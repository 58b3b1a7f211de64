// pera_net — socket evidence-transport runner: a standalone appraiser
// server, a switch attester, and an in-process selftest.
//
//   pera_net --serve [--port=0] [--port-file=PATH] [--reactors=2]
//            [--exit-after-rounds=N] [--duration-ms=N]
//            [--metrics-json=PATH]
//       Run the epoll appraiser server. With --port-file the bound port
//       is written there once listening (port 0 picks an ephemeral one),
//       so a second process can find it. Exits after N appraised rounds
//       (or the duration), printing session/round counters.
//
//   pera_net --switch --port=P [--place=sw0] [--rounds=3] [--mutual]
//       Connect as an attesting switch: RA handshake (quote over a fresh
//       session nonce), then N evidence rounds; prints each verdict.
//       Exit 0 iff admitted and every verdict was true.
//
//   pera_net --selftest
//       In-process server + client round trip, plus a tampered-quote
//       rejection. Prints PASS/FAIL.
//
// Both processes derive identical key material from --key-seed=LABEL
// (default "pera-net-demo") — the out-of-band provisioning a real
// deployment would do once.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>

#include "crypto/sha256.h"
#include "net/client.h"
#include "net/server.h"
#include "obs/obs.h"
#include "pipeline/pipeline.h"

using namespace pera;

namespace {

struct Options {
  bool serve = false;
  bool do_switch = false;
  bool selftest = false;
  bool mutual = false;
  std::uint16_t port = 0;
  std::string port_file;
  std::string metrics_json;
  std::string place = "sw0";
  std::string key_seed = "pera-net-demo";
  std::size_t reactors = 2;
  std::uint64_t rounds = 3;
  std::uint64_t exit_after_rounds = 0;
  std::int64_t duration_ms = 0;
};

crypto::Digest d(const std::string& label) {
  crypto::Sha256 h;
  h.update(std::string_view{label});
  return h.finish();
}

struct Keys {
  crypto::Digest quote_root;
  crypto::Digest golden;
  crypto::Digest evidence_root;
  crypto::Digest cert_key;
  crypto::Digest appraiser_meas;

  explicit Keys(const std::string& seed)
      : quote_root(d(seed + ":quote-root")),
        golden(d(seed + ":golden")),
        evidence_root(d(seed + ":evidence-root")),
        cert_key(d(seed + ":cert-key")),
        appraiser_meas(d(seed + ":appraiser-meas")) {}
};

net::ServerConfig server_config(const Keys& keys, const Options& o) {
  net::ServerConfig sc;
  sc.port = o.port;
  sc.reactors = o.reactors;
  sc.quote_root_key = keys.quote_root;
  sc.golden_measurement = keys.golden;
  sc.evidence_root_key = keys.evidence_root;
  sc.cert_key = keys.cert_key;
  sc.appraiser_measurement = keys.appraiser_meas;
  return sc;
}

net::ClientIdentity identity(const Keys& keys, const Options& o) {
  net::ClientIdentity id;
  id.place = o.place;
  id.quote_root_key = keys.quote_root;
  id.measurement = keys.golden;
  id.device_key = pipeline::PeraPipeline::shard_keys(keys.evidence_root,
                                                     "pera.net.device", 16)[0];
  id.mutual = o.mutual;
  id.cert_key = keys.cert_key;
  id.appraiser_golden = keys.appraiser_meas;
  return id;
}

// False when --metrics-json names a file that cannot be written.
bool dump_metrics(const Options& o) {
  if (o.metrics_json.empty() || obs::write_json(o.metrics_json)) return true;
  std::fprintf(stderr, "pera_net: cannot write metrics to %s\n",
               o.metrics_json.c_str());
  return false;
}

int run_serve(const Options& o) {
  const Keys keys(o.key_seed);
  net::AppraiserServer server(server_config(keys, o));
  server.start();
  std::printf("pera_net: appraiser listening on 127.0.0.1:%u\n",
              server.port());
  if (!o.port_file.empty()) {
    std::FILE* f = std::fopen(o.port_file.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "pera_net: cannot write %s\n",
                   o.port_file.c_str());
      return 1;
    }
    std::fprintf(f, "%u\n", server.port());
    std::fclose(f);
  }

  if (o.exit_after_rounds > 0) {
    const int timeout_ms =
        o.duration_ms > 0 ? static_cast<int>(o.duration_ms) : 60'000;
    if (!server.wait_for_rounds(o.exit_after_rounds, timeout_ms)) {
      std::fprintf(stderr, "pera_net: timed out waiting for %llu rounds\n",
                   static_cast<unsigned long long>(o.exit_after_rounds));
      server.stop();
      (void)dump_metrics(o);
      return 1;
    }
  } else {
    const std::int64_t ms = o.duration_ms > 0 ? o.duration_ms : 5'000;
    std::this_thread::sleep_for(std::chrono::milliseconds(ms));
  }
  server.stop();
  const net::ServerStats st = server.stats();
  std::printf(
      "pera_net: accepted=%llu rejected=%llu rounds=%llu results=%llu "
      "relayed=%llu errors=%llu\n",
      static_cast<unsigned long long>(st.sessions_accepted),
      static_cast<unsigned long long>(st.sessions_rejected),
      static_cast<unsigned long long>(st.rounds_appraised),
      static_cast<unsigned long long>(st.results_sent),
      static_cast<unsigned long long>(st.challenges_relayed),
      static_cast<unsigned long long>(st.protocol_errors));
  return dump_metrics(o) ? 0 : 1;
}

int run_switch(const Options& o) {
  const Keys keys(o.key_seed);
  net::SwitchClient client(identity(keys, o));
  if (!client.connect(o.port, 5'000)) {
    std::fprintf(stderr, "pera_net: handshake failed: %s (%s)\n",
                 client.error_text().c_str(),
                 net::to_string(client.reject_reason()));
    return 1;
  }
  std::printf("pera_net: %s admitted (session %s...)\n", o.place.c_str(),
              client.session()->id().hex().substr(0, 12).c_str());
  bool all_true = true;
  for (std::uint64_t i = 0; i < o.rounds; ++i) {
    const auto cert = client.round(5'000);
    if (!cert.has_value()) {
      std::fprintf(stderr, "pera_net: round %llu timed out\n",
                   static_cast<unsigned long long>(i));
      return 1;
    }
    const bool sig_ok = cert->verify(crypto::HmacVerifier(keys.cert_key));
    std::printf("round %llu: verdict=%s signature=%s\n",
                static_cast<unsigned long long>(i),
                cert->verdict ? "true" : "false", sig_ok ? "ok" : "BAD");
    all_true = all_true && cert->verdict && sig_ok;
  }
  client.close();
  return dump_metrics(o) && all_true ? 0 : 1;
}

int run_selftest(const Options& o) {
  const Keys keys(o.key_seed);
  Options so = o;
  so.port = 0;
  net::AppraiserServer server(server_config(keys, so));
  server.start();

  bool ok = true;
  {
    net::SwitchClient client(identity(keys, so));
    ok = ok && client.connect(server.port(), 2'000);
    if (ok) {
      const auto cert = client.round(2'000);
      ok = ok && cert.has_value() && cert->verdict &&
           cert->verify(crypto::HmacVerifier(keys.cert_key));
    }
    client.close();
  }
  {
    net::ClientIdentity bad = identity(keys, so);
    bad.measurement = d("tampered");
    // Distinct nonce seed: the replay registry must not mask the quote
    // rejection this checks for.
    bad.nonce_seed = 0xFACE'0002;
    net::SwitchClient intruder(bad);
    const bool admitted = intruder.connect(server.port(), 2'000);
    ok = ok && !admitted &&
         intruder.reject_reason() == net::RejectReason::kBadQuote;
  }
  server.stop();
  std::printf("pera_net selftest: %s\n", ok ? "PASS" : "FAIL");
  return dump_metrics(o) && ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--serve") o.serve = true;
    else if (arg == "--switch") o.do_switch = true;
    else if (arg == "--selftest") o.selftest = true;
    else if (arg == "--mutual") o.mutual = true;
    else if (arg.rfind("--port=", 0) == 0)
      o.port = static_cast<std::uint16_t>(std::strtoul(arg.c_str() + 7, nullptr, 10));
    else if (arg.rfind("--port-file=", 0) == 0) o.port_file = arg.substr(12);
    else if (arg.rfind("--metrics-json=", 0) == 0) o.metrics_json = arg.substr(15);
    else if (arg.rfind("--place=", 0) == 0) o.place = arg.substr(8);
    else if (arg.rfind("--key-seed=", 0) == 0) o.key_seed = arg.substr(11);
    else if (arg.rfind("--reactors=", 0) == 0)
      o.reactors = std::strtoull(arg.c_str() + 11, nullptr, 10);
    else if (arg.rfind("--rounds=", 0) == 0)
      o.rounds = std::strtoull(arg.c_str() + 9, nullptr, 10);
    else if (arg.rfind("--exit-after-rounds=", 0) == 0)
      o.exit_after_rounds = std::strtoull(arg.c_str() + 20, nullptr, 10);
    else if (arg.rfind("--duration-ms=", 0) == 0)
      o.duration_ms = std::strtoll(arg.c_str() + 14, nullptr, 10);
    else {
      std::fprintf(stderr, "pera_net: unknown flag %s\n", arg.c_str());
      return 2;
    }
  }
  if (!o.metrics_json.empty()) {
    obs::reset();
    obs::set_enabled(true);
  }
  if (o.selftest) return run_selftest(o);
  if (o.serve) return run_serve(o);
  if (o.do_switch) return run_switch(o);
  std::fprintf(stderr,
               "pera_net: pick a mode: --serve | --switch | --selftest\n");
  return 2;
}
