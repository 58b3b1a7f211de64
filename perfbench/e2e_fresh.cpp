// e2e_fresh: the paper's whole attestation path with a fresh nonce every
// round, over real loopback TCP.
//
// An AppraiserServer (1 reactor, 1 appraiser worker) plus the benchmark
// thread make 3 threads. The benchmark thread runs a closed loop of 4
// switch sessions with 8 rounds in flight on each, from its own poll()
// loop. One round:
//
//   RelyingParty::challenge()            fresh nonce
//   PeraSwitch::process(packet, header)  Program evidence bound to that
//                                        nonce, signed, out of band
//   ClientSession::send_evidence         framed; written with writev
//   ... server: frame, appraise, certify ...
//   ClientSession::on_bytes              the certificate comes back
//   RelyingParty::accept                 signature, nonce, verdict
//
// A round's latency runs from the nonce being issued to the RP accepting.
// Work per pass is fixed (switches and RP are rebuilt per pass: the
// evidence cache keys on nonces, so it grows with every round), and
// passes repeat until the time is up. set-up is starting the server and
// handshaking the 4 sessions; it is repeated and the median reported.
#include <poll.h>

#include <cstdio>
#include <deque>
#include <memory>
#include <stdexcept>

#include "bench.h"
#include "inputs.h"
#include "net/server.h"
#include "net/session.h"
#include "net/socket.h"
#include "net/wire.h"
#include "pera/pera_switch.h"
#include "pipeline/pipeline.h"
#include "ra/roles.h"
#include "replay.h"

namespace perfbench {

namespace {

namespace pd = pera::dataplane;
namespace pn = pera::net;
using pera::crypto::Nonce;

constexpr std::size_t kConnections = 4;
constexpr std::size_t kDepth = 8;  // rounds in flight per connection
constexpr char kDeviceLabel[] = "pera.net.device";
constexpr std::size_t kLiveSpanCap = 500'000;
constexpr int kPassTimeoutMs = 60'000;

struct Keys {
  Digest quote_root, golden, evidence_root, cert_key, appraiser_meas;
  explicit Keys(std::uint64_t seed)
      : quote_root(seeded_key(seed, "quote-root")),
        golden(seeded_key(seed, "golden")),
        evidence_root(seeded_key(seed, "evidence-root")),
        cert_key(seeded_key(seed, "cert-key")),
        appraiser_meas(seeded_key(seed, "appraiser-meas")) {}
};

std::uint64_t op_of(const Nonce& n) {
  std::uint64_t op = 0;
  for (int i = 0; i < 8; ++i) op = (op << 8) | n.value.v[i];
  return op;
}

struct Conn {
  std::size_t idx = 0;
  std::string place;
  pn::Fd fd;
  std::unique_ptr<pera::crypto::HmacSigner> quote_signer;
  std::unique_ptr<pera::crypto::HmacSigner> device_signer;
  std::unique_ptr<pn::ClientSession> session;
  pera::crypto::Bytes outq;  // bytes taken from the outbox, not yet written
  std::size_t out_head = 0;
  std::unique_ptr<pera::pera::PeraSwitch> sw;  // rebuilt every pass
  pera::nac::PolicyHeader header;              // nonce rewritten per round
  struct Inflight {
    Nonce nonce;
    std::int64_t issued_at = 0;
    std::uint32_t span = Tracer::kNone;
  };
  std::deque<Inflight> inflight;
};

/// The server, the 4 established sessions and the socket I/O between
/// them. Byte counts feed the per-round gauges.
class Rig {
 public:
  Rig(const Keys& keys, std::uint64_t seed) : keys_(keys) {
    pn::ServerConfig sc;
    sc.reactors = 1;
    sc.appraiser_workers = 1;
    sc.quote_root_key = keys.quote_root;
    sc.golden_measurement = keys.golden;
    sc.evidence_root_key = keys.evidence_root;
    sc.evidence_key_label = kDeviceLabel;
    sc.cert_key = keys.cert_key;
    sc.appraiser_measurement = keys.appraiser_meas;
    sc.nonce_seed = seed ^ 0xC0C0'0001ULL;
    server_ = std::make_unique<pn::AppraiserServer>(sc);
    server_->start();
    const std::vector<Digest> device_keys = pera::pipeline::PeraPipeline::
        shard_keys(keys.evidence_root, kDeviceLabel, kConnections);
    pera::crypto::NonceRegistry session_nonces(seed ^ 0xFACE'0001ULL);
    for (std::size_t i = 0; i < kConnections; ++i) {
      auto c = std::make_unique<Conn>();
      c->idx = i;
      c->place = "sw" + std::to_string(i);
      c->quote_signer = std::make_unique<pera::crypto::HmacSigner>(
          pn::derive_quote_key(keys.quote_root, c->place));
      c->device_signer =
          std::make_unique<pera::crypto::HmacSigner>(device_keys[i]);
      c->fd = pn::connect_loopback_blocking(server_->port(), 5000);
      if (!c->fd.valid()) throw std::runtime_error("connect failed");
      pn::ClientSessionConfig cfg;
      cfg.place = c->place;
      cfg.role = pn::SessionRole::kSwitch;
      pera::crypto::Signer* qs = c->quote_signer.get();
      const std::string place = c->place;
      const Digest golden = keys.golden;
      cfg.make_quote = [qs, place, golden](const Nonce& nonce) {
        return pn::Quote::make(place, nonce, golden, *qs);
      };
      c->session = std::make_unique<pn::ClientSession>(
          std::move(cfg), session_nonces.issue());
      c->session->start();
      conns_.push_back(std::move(c));
    }
    Tracer none(0);
    const std::int64_t deadline = now_ns() + 5'000'000'000LL;
    for (auto& c : conns_) {
      while (!c->session->established()) {
        if (c->session->failed() || now_ns() > deadline) {
          throw std::runtime_error("handshake failed for " + c->place);
        }
        if (!flush(*c, none)) throw std::runtime_error("handshake write");
        pollfd p{c->fd.get(), POLLIN, 0};
        if (::poll(&p, 1, 100) > 0 && !read_ready(*c, none)) {
          throw std::runtime_error("handshake read");
        }
      }
    }
  }

  ~Rig() {
    Tracer none(0);
    for (auto& c : conns_) {
      c->session->send_bye();
      (void)flush(*c, none);
      c->fd.reset();
    }
    server_->stop();
  }

  Rig(const Rig&) = delete;
  Rig& operator=(const Rig&) = delete;

  std::vector<std::unique_ptr<Conn>>& conns() { return conns_; }
  const Keys& keys() const { return keys_; }

  /// Move the session's queued frames to the socket; one span per write
  /// call. False on a write error.
  bool flush(Conn& c, Tracer& t) {
    pera::crypto::Bytes& outbox = c.session->outbox();
    if (!outbox.empty()) {
      c.outq.insert(c.outq.end(), outbox.begin(), outbox.end());
      outbox.clear();
    }
    while (c.out_head < c.outq.size()) {
      const pn::IoSlice slice{c.outq.data() + c.out_head,
                              c.outq.size() - c.out_head};
      pn::IoResult res;
      {
        const Tracer::Scope s(t, "net.write", 0);
        res = pn::write_vec(c.fd.get(), &slice, 1);
      }
      if (res.status == pn::IoStatus::kWouldBlock) break;
      if (res.status != pn::IoStatus::kOk) return false;
      c.out_head += res.bytes;
      bytes_out += res.bytes;
    }
    if (c.out_head == c.outq.size()) {
      c.outq.clear();
      c.out_head = 0;
    }
    return true;
  }

  /// Read until the socket is drained, feeding the session. False when
  /// the connection closed or the stream is malformed.
  bool read_ready(Conn& c, Tracer& t) {
    for (;;) {
      pn::IoResult res;
      {
        const Tracer::Scope s(t, "net.read", 0);
        res = pn::read_some(c.fd.get(), buf_.data(), buf_.size());
      }
      if (res.status == pn::IoStatus::kWouldBlock) return true;
      if (res.status != pn::IoStatus::kOk) return false;
      bytes_in += res.bytes;
      bool ok = false;
      {
        const Tracer::Scope s(t, "net.on_bytes", 0);
        ok = c.session->on_bytes(
            pera::crypto::BytesView{buf_.data(), res.bytes});
      }
      if (!ok) return false;
      if (res.bytes < buf_.size()) return true;
    }
  }

  std::uint64_t bytes_in = 0;
  std::uint64_t bytes_out = 0;

 private:
  Keys keys_;
  std::unique_ptr<pn::AppraiserServer> server_;
  std::vector<std::unique_ptr<Conn>> conns_;
  std::vector<std::uint8_t> buf_ = std::vector<std::uint8_t>(64 * 1024);
};

struct Inputs {
  std::vector<pd::RawPacket> packets;  // seeded flows, one frame each
  pera::nac::PolicyHeader header;
  pera::pera::PeraConfig config;
};

struct PassStats {
  std::uint64_t rounds = 0;
  std::uint64_t failed = 0;
  double wall_s = 0.0;
  double cpu_s = 0.0;
  std::uint64_t bytes_in = 0;
  std::uint64_t bytes_out = 0;
};

/// One pass of `rounds` closed-loop rounds. `replay_rounds`, when given,
/// collects up to its capacity the inputs of the pass's first rounds.
PassStats run_pass(Rig& rig, const Inputs& in, std::uint64_t rp_seed,
                   std::size_t rounds, Tracer& live,
                   std::vector<double>* latencies_us,
                   std::vector<ReplayRound>* replay_rounds, Outcome& out) {
  pera::ra::RelyingParty rp("rp", rp_seed);
  const pera::crypto::HmacVerifier cert_verifier(rig.keys().cert_key);
  for (auto& c : rig.conns()) {
    c->sw = std::make_unique<pera::pera::PeraSwitch>(
        c->place, pd::make_router(), *c->device_signer, in.config);
    c->header = in.header;
  }

  PassStats ps;
  std::size_t issued = 0;
  std::size_t completed = 0;
  std::size_t next_packet = rp_seed % in.packets.size();
  const auto start_round = [&](Conn& c) {
    const std::int64_t issued_at = now_ns();
    const Nonce nonce = rp.challenge();
    const std::int64_t challenged_at = now_ns();
    const std::uint64_t op = op_of(nonce);
    const std::uint32_t round = live.begin("round", op, Tracer::kNone,
                                           issued_at);
    live.record("ra.challenge", op, round, issued_at, challenged_at);
    const pd::RawPacket& packet = in.packets[next_packet];
    next_packet = (next_packet + 1) % in.packets.size();
    ++issued;
    if (replay_rounds != nullptr &&
        replay_rounds->size() < replay_rounds->capacity()) {
      replay_rounds->push_back(ReplayRound{&packet, nonce, c.idx, nullptr});
    }

    c.header.nonce = nonce;
    pera::pera::PeraResult res;
    {
      const Tracer::Scope s(live, "pera.process", op, round);
      res = c.sw->process(packet, &c.header, nullptr);
    }
    if (res.out_of_band.size() != 1) {
      out.fail("switch produced no out-of-band evidence");
      ++ps.failed;
      ++completed;
      live.end(round);
      return;
    }
    const pera::crypto::Bytes& ev = res.out_of_band.front().evidence;
    {
      const Tracer::Scope s(live, "net.send_evidence", op, round);
      c.session->send_evidence(nonce,
                               pera::crypto::BytesView{ev.data(), ev.size()});
    }
    c.inflight.push_back(Conn::Inflight{nonce, issued_at, round});
  };

  const std::uint64_t in0 = rig.bytes_in;
  const std::uint64_t out0 = rig.bytes_out;
  const double cpu0 = cpu_seconds();
  const std::int64_t t0 = now_ns();
  const std::int64_t deadline = t0 + kPassTimeoutMs * 1'000'000LL;
  for (auto& c : rig.conns()) {
    for (std::size_t d = 0; d < kDepth && issued < rounds; ++d) {
      start_round(*c);
    }
  }
  bool broken = false;
  while (completed < rounds && !broken) {
    for (auto& c : rig.conns()) {
      if (!rig.flush(*c, live)) {
        out.fail("write to the appraiser failed");
        broken = true;
      }
    }
    pollfd fds[kConnections];
    for (std::size_t i = 0; i < kConnections; ++i) {
      const Conn& c = *rig.conns()[i];
      fds[i] = pollfd{c.fd.get(),
                      static_cast<short>(POLLIN | (c.outq.empty() ? 0
                                                                  : POLLOUT)),
                      0};
    }
    int ready = 0;
    {
      const Tracer::Scope s(live, "net.poll", 0);
      ready = ::poll(fds, kConnections, 1000);
    }
    if (ready <= 0) {
      if (now_ns() > deadline) {
        out.fail("pass timed out");
        broken = true;
      }
      continue;
    }
    for (std::size_t i = 0; i < kConnections && !broken; ++i) {
      Conn& c = *rig.conns()[i];
      if ((fds[i].revents & (POLLIN | POLLERR | POLLHUP)) == 0) continue;
      if (!rig.read_ready(c, live)) {
        out.fail("connection to the appraiser lost: " +
                 c.session->error_text());
        broken = true;
        break;
      }
      for (const pera::ra::Certificate& cert : c.session->take_results()) {
        auto it = c.inflight.begin();
        while (it != c.inflight.end() && it->nonce != cert.nonce) ++it;
        if (it == c.inflight.end()) {
          out.fail("certificate for a nonce not in flight");
          broken = true;
          break;
        }
        bool accepted = false;
        {
          const Tracer::Scope s(live, "ra.accept", op_of(it->nonce),
                                it->span);
          accepted = rp.accept(cert, cert_verifier);
        }
        const std::int64_t done = now_ns();
        live.end(it->span);
        if (!cert.verdict) {
          out.fail("certificate verdict is false");
        } else if (!accepted) {
          out.fail("relying party rejected the certificate");
        }
        if (!cert.verdict || !accepted) ++ps.failed;
        if (latencies_us != nullptr) {
          latencies_us->push_back(static_cast<double>(done - it->issued_at) /
                                  1e3);
        }
        c.inflight.erase(it);
        ++completed;
        if (issued < rounds) start_round(c);
      }
    }
  }
  const std::int64_t t1 = now_ns();
  ps.cpu_s = cpu_seconds() - cpu0;
  ps.wall_s = static_cast<double>(t1 - t0) * 1e-9;
  ps.rounds = rounds;
  if (broken) ps.failed = rounds - (completed - ps.failed);
  ps.bytes_in = rig.bytes_in - in0;
  ps.bytes_out = rig.bytes_out - out0;
  if (broken) throw std::runtime_error("e2e_fresh pass aborted");
  return ps;
}

}  // namespace

Outcome run_e2e_fresh(const Options& opt) {
  Outcome out;
  const Keys keys(opt.seed);
  Inputs in;
  std::mt19937_64 rng(opt.seed);
  in.packets = make_flow_packets(rng, opt.small ? 64 : 4096);
  in.config.cache_enabled = true;
  in.header = make_policy_header(
      pera::nac::mask_of(pera::nac::EvidenceDetail::kProgram), Nonce{});
  const std::size_t rounds = opt.small ? 512 : 16384;

  // Set-up, repeated: start the server and handshake every session.
  PassSeries series;
  std::unique_ptr<Rig> rig;
  for (int i = 0; i < (opt.small ? 2 : 101); ++i) {
    rig.reset();
    const std::int64_t s0 = now_ns();
    rig = std::make_unique<Rig>(keys, opt.seed + static_cast<unsigned>(i));
    series.setup_s.push_back(static_cast<double>(now_ns() - s0) * 1e-9);
  }

  Tracer live(opt.trace ? kLiveSpanCap : 0);
  std::vector<ReplayRound> replay_rounds;
  replay_rounds.reserve(opt.trace ? (opt.small ? 256 : 4096) : 0);
  std::uint64_t pass_seed = opt.seed * 0x9E37'79B9'7F4A'7C15ULL;

  // A discarded warm-up pass; its checks and rounds still count.
  {
    const PassStats w = run_pass(*rig, in, ++pass_seed, rounds, live,
                                 nullptr, &replay_rounds, out);
    out.attempted += w.rounds;
    out.failed += w.failed;
  }

  std::vector<double> latencies_us;
  TraceTotals totals;
  std::uint64_t traced_bytes_in = 0;
  std::uint64_t traced_bytes_out = 0;
  std::vector<Metric> gauges;
  std::size_t live_spans_per_pass = 0;
  const std::size_t min_passes = opt.small ? 2 : 3;
  const std::int64_t deadline =
      now_ns() + static_cast<std::int64_t>(opt.seconds * 1e9);
  for (std::size_t pass = 0;
       pass < min_passes || now_ns() < deadline; ++pass) {
    const bool traced =
        opt.trace && pass % 2 == 1 &&
        live.size() + live_spans_per_pass < kLiveSpanCap;
    const std::size_t spans_before = live.size();
    live.set_enabled(traced);
    const PassStats ps =
        run_pass(*rig, in, ++pass_seed, rounds, live,
                 opt.trace ? nullptr : &latencies_us, nullptr, out);
    live.set_enabled(false);
    std::fprintf(stderr,
                 "pass %zu%s: %.0f ops/s, %.3f us cpu/op, p50 %.1f us, "
                 "p99 %.1f us\n",
                 pass, traced ? " (traced)" : "",
                 static_cast<double>(ps.rounds) / ps.wall_s,
                 ps.cpu_s * 1e6 / static_cast<double>(ps.rounds),
                 percentile(latencies_us, 0.50),
                 percentile(latencies_us, 0.99));
    out.attempted += ps.rounds;
    out.failed += ps.failed;
    if (traced) {
      live_spans_per_pass = live.size() - spans_before;
      totals.traced_ops += ps.rounds;
      totals.traced_wall_s += ps.wall_s;
      totals.traced_cpu_s += ps.cpu_s;
      traced_bytes_in += ps.bytes_in;
      traced_bytes_out += ps.bytes_out;
      pera::pera::CacheStats cache;
      std::size_t entries = 0;
      std::size_t routes = 0;
      for (const auto& c : rig->conns()) {
        cache.hits += c->sw->cache().stats().hits;
        cache.misses += c->sw->cache().stats().misses;
        entries += c->sw->cache().size();
        routes += c->sw->dataplane().program().tables().front()->entry_count();
      }
      gauges = {
          {"cache_hit_ratio", cache.hit_rate(), "ratio"},
          {"cache_entries", static_cast<double>(entries), "count"},
          {"route_entries",
           static_cast<double>(routes) / static_cast<double>(kConnections),
           "count"},
      };
    } else {
      totals.untraced_ops += ps.rounds;
      totals.untraced_wall_s += ps.wall_s;
      series.add(ps.rounds, ps.wall_s, ps.cpu_s, latencies_us);
      latencies_us.clear();
    }
  }

  if (!opt.trace) {
    series.report(out);
    return out;
  }

  const auto traced_ops =
      static_cast<double>(std::max<std::uint64_t>(totals.traced_ops, 1));
  gauges.push_back({"bytes_in_per_round",
                    static_cast<double>(traced_bytes_in) / traced_ops,
                    "bytes"});
  gauges.push_back({"bytes_out_per_round",
                    static_cast<double>(traced_bytes_out) / traced_ops,
                    "bytes"});

  // Serial replay of the warm-up pass's first rounds: the switch layers
  // inside PeraSwitch::process and the server's appraisal.
  ReplaySetup rs;
  for (const auto& c : rig->conns()) rs.places.push_back(c->place);
  rs.device_keys = pera::pipeline::PeraPipeline::shard_keys(
      keys.evidence_root, kDeviceLabel, kConnections);
  rs.verify_root = keys.evidence_root;
  rs.verify_label = kDeviceLabel;
  rs.verify_keys = pn::ServerConfig{}.evidence_max_shards;
  rs.factory = [] { return pd::make_router(); };
  rs.config = in.config;
  rs.header = in.header;
  rs.flow_per_device = true;
  Tracer replay_spans(replay_rounds.size() * 24 + 1024);
  replay_spans.set_enabled(true);
  const std::uint64_t replayed =
      replay(replay_spans, rs, replay_rounds, gauges, out);

  // One round's path on the benchmark thread, plus the appraiser's
  // per-record work from the replay (the server streams verdicts, so it
  // never folds).
  finish_trace(opt, live, replay_spans, replayed,
               {"ra.challenge", "pera.process", "net.send_evidence",
                "net.write", "net.read", "net.on_bytes", "ra.accept"},
               {"pipeline.appraise_record"}, totals, gauges, out);
  return out;
}

}  // namespace perfbench
