// State-attestation benchmark: what does a measurement cost when the
// dataplane holds production-scale state?
//
// The workload is the StatefulNat NF (per-flow table entries + per-flow
// register state with LRU expiry). For each (table size n, churn rate)
// cell the bench builds n live flows, then per round expires/adds/touches
// n*churn of them and measures evidence production both ways:
//
//   * incremental — tables_digest() + state_digest(): O(changes) dirty
//     Merkle leaves rehashed since the previous measurement
//   * full        — tables_digest_full() + state_digest_full(): the O(n)
//     reference recompute
//
// Acceptance gates (exit code):
//   * roots bit-identical between the two paths in EVERY cell (always)
//   * incremental >= 10x faster than full at n = 1M for churn <= 1%
//     (full sweep only; smoke runs tiny sizes where the tree is trivial)
//
// A side sweep differential-tests and times Table's exact-match hash
// index against the reference linear scan (n <= 10k; the scan at 1M
// would dominate the bench runtime for no extra information).
//
// Flags: --smoke (tiny sizes), --rounds=N and bench/harness.h's common
// ones. Results land in BENCH_state.json (committed).
#include <chrono>
#include <cstdio>
#include <random>
#include <string>
#include <vector>

#include "dataplane/nf.h"
#include "harness.h"

namespace {

using namespace pera;
using Clock = std::chrono::steady_clock;

std::uint64_t elapsed_ns(Clock::time_point t0, Clock::time_point t1) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0).count());
}

// Fresh, never-repeating flow keys (sport stays in [1024, 61024)).
dataplane::FlowKey nth_flow(std::uint64_t i) {
  return {static_cast<std::uint32_t>(0x0a000001 + i / 60000),
          static_cast<std::uint16_t>(1024 + i % 60000)};
}

struct Cell {
  std::size_t n = 0;
  double churn = 0.0;
  std::size_t rounds = 0;
  std::size_t dirty_per_round = 0;
  double incr_ns = 0.0;   // mean per round
  double full_ns = 0.0;   // mean per round
  double speedup = 0.0;
  bool root_match = true;
};

struct LookupCell {
  std::size_t n = 0;
  std::size_t probes = 0;
  double indexed_ns = 0.0;  // mean per probe
  double scan_ns = 0.0;     // mean per probe (0 when skipped)
  bool match = true;        // indexed result == scan result on every probe
};

// One NF instance per table size, reused across churn rates (the digest is
// over whatever state is live; only the churn volume matters per cell).
class Workload {
 public:
  explicit Workload(std::size_t n) : n_(n) {
    dataplane::StatefulNat::Config cfg;
    cfg.capacity = n + n / 10 + 16;  // headroom so adds never evict
    cfg.idle_timeout = ~std::uint64_t{0} >> 1;  // expiry driven explicitly
    nat_ = std::make_unique<dataplane::StatefulNat>(cfg);
    for (std::size_t i = 0; i < n; ++i) {
      nat_->add_flow(nth_flow(next_flow_++), now_++);
    }
    // Prime the incremental trees so rounds measure O(changes), not the
    // one-time O(n) tree build.
    (void)nat_->sw().program().tables_digest();
    (void)nat_->sw().registers().state_digest();
  }

  /// Expire the c oldest flows, add c fresh ones, touch c survivors.
  void churn(std::size_t c, std::mt19937_64& rng) {
    nat_->expire_oldest(c);
    for (std::size_t i = 0; i < c; ++i) {
      nat_->add_flow(nth_flow(next_flow_++), now_++);
    }
    std::uniform_int_distribution<std::uint64_t> pick(0, next_flow_ - 1);
    for (std::size_t i = 0; i < c; ++i) {
      (void)nat_->touch_flow(nth_flow(pick(rng)), now_);
    }
    ++now_;
  }

  Cell measure_round() {
    Cell r;
    auto& prog = nat_->sw().program();
    auto& regs = nat_->sw().registers();
    const auto t0 = Clock::now();
    const crypto::Digest ti = prog.tables_digest();
    const crypto::Digest ri = regs.state_digest();
    const auto t1 = Clock::now();
    const crypto::Digest tf = prog.tables_digest_full();
    const crypto::Digest rf = regs.state_digest_full();
    const auto t2 = Clock::now();
    r.incr_ns = static_cast<double>(elapsed_ns(t0, t1));
    r.full_ns = static_cast<double>(elapsed_ns(t1, t2));
    r.root_match = ti == tf && ri == rf;
    return r;
  }

  LookupCell lookup_probe(std::size_t probes, bool with_scan,
                          std::mt19937_64& rng) {
    LookupCell lc;
    lc.n = nat_->sw().program().table("nat")->entry_count();
    lc.probes = probes;
    dataplane::Table* nat = nat_->sw().program().table("nat");
    // Probe a mix of live flows and guaranteed misses.
    std::vector<dataplane::ParsedPacket> pkts;
    pkts.reserve(probes);
    std::uniform_int_distribution<std::uint64_t> pick(0, next_flow_ - 1);
    for (std::size_t i = 0; i < probes; ++i) {
      dataplane::FlowKey k =
          (i % 8 == 7) ? dataplane::FlowKey{0xDEAD0000u + static_cast<std::uint32_t>(i), 9}
                       : nth_flow(pick(rng));
      pkts.push_back(nat_->sw().parse(nat_->make_packet(k)));
    }
    std::uint64_t sink = 0;
    const auto t0 = Clock::now();
    for (auto& p : pkts) {
      const dataplane::TableEntry* e = nat->lookup(p);
      sink += e != nullptr ? e->action_params[0] : 0;
    }
    const auto t1 = Clock::now();
    lc.indexed_ns =
        static_cast<double>(elapsed_ns(t0, t1)) / static_cast<double>(probes);
    if (with_scan) {
      const auto s0 = Clock::now();
      for (auto& p : pkts) {
        const dataplane::TableEntry* e = nat->lookup_scan(p);
        sink += e != nullptr ? e->action_params[0] : 0;
      }
      const auto s1 = Clock::now();
      lc.scan_ns =
          static_cast<double>(elapsed_ns(s0, s1)) / static_cast<double>(probes);
      for (auto& p : pkts) {
        if (nat->lookup(p) != nat->lookup_scan(p)) lc.match = false;
      }
    }
    if (sink == 0xFFFFFFFFFFFFFFFFULL) std::printf("(unreachable)\n");
    return lc;
  }

 private:
  std::size_t n_;
  std::unique_ptr<dataplane::StatefulNat> nat_;
  std::uint64_t next_flow_ = 0;
  std::uint64_t now_ = 1;
};

Cell run_cell(Workload& w, std::size_t n, double churn, std::size_t rounds,
              std::mt19937_64& rng) {
  Cell c;
  c.n = n;
  c.churn = churn;
  c.rounds = rounds;
  c.dirty_per_round =
      std::max<std::size_t>(1, static_cast<std::size_t>(
                                   static_cast<double>(n) * churn));
  for (std::size_t r = 0; r < rounds; ++r) {
    w.churn(c.dirty_per_round, rng);
    const Cell m = w.measure_round();
    c.incr_ns += m.incr_ns / static_cast<double>(rounds);
    c.full_ns += m.full_ns / static_cast<double>(rounds);
    c.root_match = c.root_match && m.root_match;
  }
  c.speedup = c.incr_ns > 0 ? c.full_ns / c.incr_ns : 0.0;
  return c;
}

void print_cell(const Cell& c) {
  std::printf(
      "n=%8zu churn=%.3f (%6zu flows/round)  incr=%10.0f ns  "
      "full=%12.0f ns  speedup=%8.1fx  roots=%s\n",
      c.n, c.churn, c.dirty_per_round, c.incr_ns, c.full_ns, c.speedup,
      c.root_match ? "match" : "MISMATCH");
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  std::size_t rounds = 3;
  bench::Harness h(bench::Runner::kPlain, "BENCH_state.json");
  h.flag("smoke", smoke, "tiny sizes, no speedup gate");
  h.flag("rounds", rounds, "measured rounds per cell");
  if (const int rc = h.parse(argc, argv); rc != 0) return rc;
  if (rounds == 0) rounds = 1;

  const std::vector<std::size_t> sizes =
      smoke ? std::vector<std::size_t>{1000, 4000}
            : std::vector<std::size_t>{1000, 10000, 100000, 1000000};
  const std::vector<double> churns =
      smoke ? std::vector<double>{0.01}
            : std::vector<double>{0.001, 0.01, 0.1};

  std::mt19937_64 rng(0x5eedULL);
  std::vector<Cell> cells;
  std::vector<LookupCell> lookup_cells;
  for (const std::size_t n : sizes) {
    Workload w(n);
    for (const double churn : churns) {
      cells.push_back(run_cell(w, n, churn, rounds, rng));
      print_cell(cells.back());
    }
    if (n <= 10000) {
      lookup_cells.push_back(w.lookup_probe(std::min<std::size_t>(n, 1000),
                                            /*with_scan=*/true, rng));
      const LookupCell& lc = lookup_cells.back();
      std::printf(
          "n=%8zu lookup: indexed=%7.0f ns/probe  scan=%9.0f ns/probe  "
          "results=%s\n",
          lc.n, lc.indexed_ns, lc.scan_ns, lc.match ? "match" : "MISMATCH");
    }
  }

  bench::Json j;
  j.field("scenario",
          "StatefulNat churn: evidence cost, incremental vs full recompute")
      .field("rounds", rounds).array("cells");
  for (const Cell& c : cells) {
    j.object().field("n", c.n).field("churn", c.churn, 3)
        .field("dirty_per_round", c.dirty_per_round).field("rounds", c.rounds)
        .field("incr_ns", c.incr_ns, 0).field("full_ns", c.full_ns, 0)
        .field("speedup", c.speedup, 2).field("root_match", c.root_match).end();
  }
  j.end().array("lookup_cells");
  for (const LookupCell& lc : lookup_cells) {
    j.object().field("n", lc.n).field("probes", lc.probes)
        .field("indexed_ns", lc.indexed_ns, 1).field("scan_ns", lc.scan_ns, 1)
        .field("lookup_match", lc.match).end();
  }
  h.write(j);

  for (const Cell& c : cells) {
    h.gate("digest-identity", c.root_match,
           "incremental vs full roots at n=%zu churn=%.3f", c.n, c.churn);
  }
  for (const LookupCell& lc : lookup_cells) {
    h.gate("lookup-differential", lc.match, "indexed vs scan at n=%zu", lc.n);
  }
  if (!smoke) {
    for (const Cell& c : cells) {
      if (c.n != 1000000 || c.churn > 0.01) continue;
      h.gate("incremental-speedup", c.speedup >= 10.0,
             "%.1fx at n=%zu churn=%.3f, need 10x", c.speedup, c.n, c.churn);
    }
  }
  return h.finish();
}
