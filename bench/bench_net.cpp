// Connection-scaling soak for the real-socket evidence transport: one
// epoll appraiser server, a SwitchFleet load generator, loopback TCP.
//
// Two sweeps:
//
//   * connection scaling — establish N concurrent RA sessions (the
//     handshake storm is timed too), then run closed-loop evidence
//     rounds at pipeline depth 4 per connection and record rounds/s and
//     per-round latency percentiles. N rises to 1024 in the full run.
//   * reactor-shard scaling — fixed fleet, the server's reactor count
//     sweeps 1 / 2 / 4; rounds/s per cell shows what epoll sharding
//     buys (on a multi-core host) or costs (on one core).
//
// Acceptance gates (nonzero exit on violation):
//   1. the top connection cell establishes every session — ≥1000
//      concurrent RA sessions in the full run — and completes every
//      round with a true verdict;
//   2. reactor sharding must not collapse throughput: rounds/s at the
//      deployable 2-shard point ≥ floor × rounds/s at 1 reactor, where
//      the floor is host-aware (0.5 on a single hardware thread, where
//      extra reactors only add contention; 0.8 otherwise). The sweep runs
//      kShardRepetitions alternating repetitions of the 1/2/4 cells and
//      judges the median of the per-repetition 2-shard/1-shard ratios, as
//      one pair of millisecond cells is too noisy to gate. The 4-shard
//      cell is recorded as data, not gated — on a small host it only
//      measures oversubscription;
//   3. a switch whose quote claims a tampered measurement is refused
//      admission (the transport's whole point).
//
// Flags: --smoke (small fleet) and bench/harness.h's common ones.
// Results land in BENCH_net.json (committed).
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "crypto/sha256.h"
#include "net/client.h"
#include "harness.h"
#include "net/server.h"
#include "netsim/stats.h"
#include "pipeline/pipeline.h"

namespace {

using namespace pera;

crypto::Digest d(std::string_view label) {
  crypto::Sha256 h;
  h.update(label);
  return h.finish();
}

struct Keys {
  crypto::Digest quote_root = d("bench-net-quote-root");
  crypto::Digest golden = d("bench-net-golden");
  crypto::Digest evidence_root = d("bench-net-evidence-root");
  crypto::Digest cert_key = d("bench-net-cert-key");
  crypto::Digest appraiser_meas = d("bench-net-appraiser-meas");
};

struct Cell {
  std::size_t connections = 0;
  std::size_t reactors = 0;
  std::size_t established = 0;
  double establish_ms = 0.0;
  std::uint64_t rounds = 0;
  std::uint64_t verdict_failures = 0;
  std::uint64_t session_failures = 0;
  double rounds_per_s = 0.0;
  double latency_p50_us = 0.0;
  double latency_p99_us = 0.0;
};

Cell run_cell(const Keys& keys, std::size_t connections, std::size_t reactors,
              std::uint64_t total_rounds, std::size_t depth) {
  net::ServerConfig sc;
  sc.reactors = reactors;
  sc.quote_root_key = keys.quote_root;
  sc.golden_measurement = keys.golden;
  sc.evidence_root_key = keys.evidence_root;
  sc.cert_key = keys.cert_key;
  sc.appraiser_measurement = keys.appraiser_meas;
  net::AppraiserServer server(sc);
  server.start();

  net::SwitchFleet::Config fc;
  fc.port = server.port();
  fc.connections = connections;
  fc.depth = depth;
  fc.device_keys =
      pipeline::PeraPipeline::shard_keys(keys.evidence_root,
                                         "pera.net.device", 16);
  fc.quote_root_key = keys.quote_root;
  fc.measurement = keys.golden;
  net::SwitchFleet fleet(fc);

  Cell cell;
  cell.connections = connections;
  cell.reactors = reactors;
  const auto t0 = std::chrono::steady_clock::now();
  cell.established = fleet.establish(60'000);
  cell.establish_ms =
      std::chrono::duration<double, std::milli>(
          std::chrono::steady_clock::now() - t0)
          .count();

  net::SwitchFleet::RunStats rs = fleet.run_rounds(total_rounds, 120'000);
  cell.rounds = rs.rounds_completed;
  cell.verdict_failures = rs.verdict_failures;
  cell.session_failures = rs.session_failures;
  cell.rounds_per_s =
      rs.wall_ns > 0 ? double(rs.rounds_completed) * 1e9 / double(rs.wall_ns)
                     : 0.0;
  netsim::Summary latency;
  for (const float us : rs.latency_us) latency.add(us);
  cell.latency_p50_us = latency.percentile(0.50);
  cell.latency_p99_us = latency.percentile(0.99);
  fleet.shutdown();
  server.stop();
  return cell;
}

void print_cell(const char* tag, const Cell& c) {
  std::printf(
      "%s conns=%4zu reactors=%zu est=%4zu (%.0f ms)  rounds=%llu  "
      "%.0f rounds/s  p50=%.0fus p99=%.0fus  vfail=%llu sfail=%llu\n",
      tag, c.connections, c.reactors, c.established, c.establish_ms,
      static_cast<unsigned long long>(c.rounds), c.rounds_per_s,
      c.latency_p50_us, c.latency_p99_us,
      static_cast<unsigned long long>(c.verdict_failures),
      static_cast<unsigned long long>(c.session_failures));
}

void add_cells(bench::Json& j, std::string_view key,
               const std::vector<Cell>& cells) {
  j.array(key);
  for (const Cell& c : cells) {
    j.object().field("connections", c.connections).field("reactors", c.reactors)
        .field("established", c.established)
        .field("establish_ms", c.establish_ms, 1).field("rounds", c.rounds)
        .field("rounds_per_s", c.rounds_per_s, 1)
        .field("latency_p50_us", c.latency_p50_us, 1)
        .field("latency_p99_us", c.latency_p99_us, 1)
        .field("verdict_failures", c.verdict_failures)
        .field("session_failures", c.session_failures).end();
  }
  j.end();
}

// The cell whose rounds/s is the median of `cells`.
Cell median_cell(std::vector<Cell> cells) {
  std::sort(cells.begin(), cells.end(), [](const Cell& a, const Cell& b) {
    return a.rounds_per_s < b.rounds_per_s;
  });
  return cells[cells.size() / 2];
}

// Gate 3: tampered measurement in the quote → refused at the door.
bool bad_quote_rejected(const Keys& keys) {
  net::ServerConfig sc;
  sc.quote_root_key = keys.quote_root;
  sc.golden_measurement = keys.golden;
  sc.evidence_root_key = keys.evidence_root;
  sc.cert_key = keys.cert_key;
  net::AppraiserServer server(sc);
  server.start();
  net::ClientIdentity id;
  id.place = "intruder";
  id.quote_root_key = keys.quote_root;
  id.measurement = d("tampered-program");
  id.device_key =
      pipeline::PeraPipeline::shard_keys(keys.evidence_root,
                                         "pera.net.device", 16)[0];
  net::SwitchClient client(id);
  const bool admitted = client.connect(server.port(), 2000);
  const bool rejected_right =
      !admitted && client.reject_reason() == net::RejectReason::kBadQuote;
  server.stop();
  return rejected_right;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  bench::Harness h(bench::Runner::kPlain, "BENCH_net.json");
  h.flag("smoke", smoke, "small fleet");
  if (const int rc = h.parse(argc, argv); rc != 0) return rc;

  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
  const Keys keys;

  // Sweep 1: connection scaling at 2 reactors.
  const std::vector<std::size_t> conn_levels =
      smoke ? std::vector<std::size_t>{16, 64}
            : std::vector<std::size_t>{64, 256, 1024};
  std::vector<Cell> scaling;
  for (const std::size_t conns : conn_levels) {
    scaling.push_back(run_cell(keys, conns, 2, conns * 8, 4));
    print_cell("scale  ", scaling.back());
  }

  // Sweep 2: reactor shards at a fixed fleet, in alternating repetitions.
  constexpr std::size_t kShardRepetitions = 5;
  const std::vector<std::size_t> reactor_levels = {1, 2, 4};
  const std::size_t shard_conns = smoke ? 32 : 256;
  std::vector<std::vector<Cell>> runs(reactor_levels.size());
  std::vector<double> ratios;
  for (std::size_t r = 0; r < kShardRepetitions; ++r) {
    for (std::size_t i = 0; i < reactor_levels.size(); ++i) {
      runs[i].push_back(run_cell(keys, shard_conns, reactor_levels[i],
                                 shard_conns * 8, 4));
      print_cell("shards ", runs[i].back());
    }
    const double base = runs[0].back().rounds_per_s;
    ratios.push_back(base > 0 ? runs[1].back().rounds_per_s / base : 0.0);
  }
  std::vector<Cell> shards;
  for (const auto& cells : runs) shards.push_back(median_cell(cells));
  std::sort(ratios.begin(), ratios.end());
  const double ratio_median = ratios[ratios.size() / 2];

  const bool gate_reject = bad_quote_rejected(keys);

  bench::Json j;
  j.field("transport", "loopback TCP, epoll reactors, RA-session handshake")
      .field("host_threads", hw);
  add_cells(j, "scaling_cells", scaling);
  add_cells(j, "reactor_cells", shards);
  j.object("reactor_ratio_2_to_1")
      .field("repetitions", kShardRepetitions)
      .field("min", ratios.front(), 3)
      .field("median", ratio_median, 3)
      .field("max", ratios.back(), 3)
      .end();
  j.field("bad_quote_rejected", gate_reject);
  h.write(j);

  // Gate 1: the top cell establishes and completes everything.
  const Cell& top = scaling.back();
  h.gate("all-sessions",
         top.established == top.connections &&
             top.rounds == top.connections * 8 && top.verdict_failures == 0 &&
             top.session_failures == 0,
         "%zu/%zu sessions established, all rounds true", top.established,
         top.connections);

  // Gate 2: host-aware no-collapse floor for reactor sharding, judged at
  // the deployable 2-shard point on the median repetition's ratio (the
  // 4-shard cell is recorded as data; on a 1-thread host it only
  // measures oversubscription). On one hardware thread extra reactors
  // cannot help, so the floor just forbids collapse; with real
  // parallelism the bar is higher.
  const double floor = hw >= 2 ? 0.8 : 0.5;
  h.gate("reactor-sharding", ratio_median >= floor,
         "2-shard/1-shard rounds/s median %.2fx (min %.2f, max %.2f over %zu "
         "repetitions; floor %.1fx on %u threads)",
         ratio_median, ratios.front(), ratios.back(), kShardRepetitions, floor,
         hw);

  h.gate("bad-quote", gate_reject, "tampered quote refused admission");
  return h.finish();
}
