// Crypto hot-path benchmark: SHA-256 backends and WOTS chain stepping.
//
// Measures, for every backend compiled in and usable on this CPU:
//
//   * single-stream hash rate — one-block messages through the one-shot
//     sha256() path (the HMAC / evidence-digest shape);
//   * 8-wide multi-buffer rate — sha256_block_multi over batches of
//     64-byte blocks (the Merkle level-builder shape);
//   * WOTS sign / verify / sign+verify ops/sec (the batcher hot loop);
//   * derive_keys expansion of 67 chain secrets (WOTS keygen shape).
//
// A "scalar_legacy" row re-implements the pre-engine chain step (streaming
// context + heap-allocated header per step, scalar compression) so the
// committed JSON carries its own baseline: engine rows vs scalar_legacy is
// the speedup this subsystem bought, on the machine that recorded it.
//
// Flags: --smoke (tiny measurement windows, no Google Benchmark pass; the
// CI run) and bench/harness.h's common ones.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <bit>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <functional>
#include <string>
#include <vector>

#include "crypto/hmac.h"
#include "crypto/sha256.h"
#include "crypto/sha256_backend.h"
#include "crypto/sha256_backend_impl.h"
#include "crypto/wots.h"
#include "harness.h"

namespace {

using namespace pera::crypto;
namespace bench = pera::bench;

// --- pre-engine reference implementation ---------------------------------
// The hot path exactly as shipped before the backend engine: a streaming
// context whose finish() pads byte-at-a-time through update(), and a
// heap-allocated domain-separation header per chain step. Kept here (not
// in the library) purely as the benchmark baseline; it is measured with
// the scalar backend selected, matching the pre-engine compressor.
namespace legacy {

// The pre-engine block compression, verbatim (w[64] schedule, rotating
// round loop). Frozen here so the baseline stays the actual shipped code
// even as the library's scalar backend improves.
void compress(std::uint32_t state[8], const std::uint8_t block[64]) {
  using pera::crypto::engine::detail::kRound;
  const auto rotr = [](std::uint32_t x, int n) { return std::rotr(x, n); };
  std::uint32_t w[64];
  for (int i = 0; i < 16; ++i) {
    w[i] = (static_cast<std::uint32_t>(block[4 * i]) << 24) |
           (static_cast<std::uint32_t>(block[4 * i + 1]) << 16) |
           (static_cast<std::uint32_t>(block[4 * i + 2]) << 8) |
           static_cast<std::uint32_t>(block[4 * i + 3]);
  }
  for (int i = 16; i < 64; ++i) {
    const std::uint32_t s0 =
        rotr(w[i - 15], 7) ^ rotr(w[i - 15], 18) ^ (w[i - 15] >> 3);
    const std::uint32_t s1 =
        rotr(w[i - 2], 17) ^ rotr(w[i - 2], 19) ^ (w[i - 2] >> 10);
    w[i] = w[i - 16] + s0 + w[i - 7] + s1;
  }
  std::uint32_t a = state[0], b = state[1], c = state[2], d = state[3];
  std::uint32_t e = state[4], f = state[5], g = state[6], h = state[7];
  for (int i = 0; i < 64; ++i) {
    const std::uint32_t s1 = rotr(e, 6) ^ rotr(e, 11) ^ rotr(e, 25);
    const std::uint32_t ch = (e & f) ^ (~e & g);
    const std::uint32_t t1 = h + s1 + ch + kRound[i] + w[i];
    const std::uint32_t s0 = rotr(a, 2) ^ rotr(a, 13) ^ rotr(a, 22);
    const std::uint32_t maj = (a & b) ^ (a & c) ^ (b & c);
    const std::uint32_t t2 = s0 + maj;
    h = g;
    g = f;
    f = e;
    e = d + t1;
    d = c;
    c = b;
    b = a;
    a = t1 + t2;
  }
  state[0] += a;
  state[1] += b;
  state[2] += c;
  state[3] += d;
  state[4] += e;
  state[5] += f;
  state[6] += g;
  state[7] += h;
}

class LegacySha256 {
 public:
  LegacySha256() { std::memcpy(state_, engine::kInit, sizeof(state_)); }

  LegacySha256& update(BytesView data) {
    total_bits_ += static_cast<std::uint64_t>(data.size()) * 8;
    std::size_t i = 0;
    if (buffer_len_ > 0) {
      while (buffer_len_ < 64 && i < data.size()) {
        buffer_[buffer_len_++] = data[i++];
      }
      if (buffer_len_ == 64) {
        legacy::compress(state_, buffer_);
        buffer_len_ = 0;
      }
    }
    while (i + 64 <= data.size()) {
      legacy::compress(state_, data.data() + i);
      i += 64;
    }
    while (i < data.size() && buffer_len_ < 64) {
      buffer_[buffer_len_++] = data[i++];
    }
    return *this;
  }
  LegacySha256& update(const Digest& d) {
    return update(BytesView{d.v.data(), d.v.size()});
  }

  Digest finish() {
    const std::uint64_t bits = total_bits_;
    const std::uint8_t pad80 = 0x80;
    update(BytesView{&pad80, 1});
    const std::uint8_t zero = 0;
    while (buffer_len_ != 56) {
      update(BytesView{&zero, 1});
    }
    std::uint8_t len_be[8];
    for (int i = 0; i < 8; ++i) {
      len_be[i] = static_cast<std::uint8_t>(bits >> (56 - 8 * i));
    }
    update(BytesView{len_be, 8});
    Digest out;
    for (int i = 0; i < 8; ++i) {
      out.v[4 * i] = static_cast<std::uint8_t>(state_[i] >> 24);
      out.v[4 * i + 1] = static_cast<std::uint8_t>(state_[i] >> 16);
      out.v[4 * i + 2] = static_cast<std::uint8_t>(state_[i] >> 8);
      out.v[4 * i + 3] = static_cast<std::uint8_t>(state_[i]);
    }
    return out;
  }

 private:
  std::uint32_t state_[8];
  std::uint8_t buffer_[64];
  std::size_t buffer_len_ = 0;
  std::uint64_t total_bits_ = 0;
};

Digest chain_step(std::size_t chain, std::size_t position,
                  const Digest& value) {
  LegacySha256 h;
  Bytes hdr;
  append_u32(hdr, static_cast<std::uint32_t>(chain));
  append_u32(hdr, static_cast<std::uint32_t>(position));
  h.update(BytesView{hdr.data(), hdr.size()});
  h.update(value);
  return h.finish();
}

Digest chain(std::size_t chain_index, const Digest& start, std::size_t from,
             std::size_t steps) {
  Digest v = start;
  for (std::size_t i = 0; i < steps; ++i) {
    v = chain_step(chain_index, from + i, v);
  }
  return v;
}

wots::Signature sign(const wots::SecretKey& sk, const Digest& message) {
  const auto chunks = wots::chunk_message(message);
  wots::Signature sig;
  for (std::size_t i = 0; i < wots::kLen; ++i) {
    sig.chains[i] = chain(i, sk.chains[i], 0, chunks[i]);
  }
  return sig;
}

wots::PublicKey recover_public(const wots::Signature& sig,
                               const Digest& message) {
  const auto chunks = wots::chunk_message(message);
  LegacySha256 compress;
  for (std::size_t i = 0; i < wots::kLen; ++i) {
    compress.update(
        chain(i, sig.chains[i], chunks[i], wots::kW - 1 - chunks[i]));
  }
  return wots::PublicKey{compress.finish()};
}

}  // namespace legacy

// -------------------------------------------------------------------------

// Time-targeted measurement: run `fn` (which performs `ops_per_call`
// operations) until the window elapses; repeat the window and keep the
// median, which shrugs off the scheduling stalls a shared 1-core host
// injects into any single window.
double ops_per_sec(const std::function<void()>& fn, double ops_per_call,
                   double window_s, std::size_t repeats = 3) {
  using clock = std::chrono::steady_clock;
  fn();  // untimed warmup call
  std::vector<double> rates;
  rates.reserve(repeats);
  for (std::size_t r = 0; r < repeats; ++r) {
    double ops = 0.0;
    const auto t0 = clock::now();
    auto t1 = t0;
    do {
      fn();
      ops += ops_per_call;
      t1 = clock::now();
    } while (std::chrono::duration<double>(t1 - t0).count() < window_s);
    const double s = std::chrono::duration<double>(t1 - t0).count();
    rates.push_back(s > 0 ? ops / s : 0.0);
  }
  std::sort(rates.begin(), rates.end());
  return rates[rates.size() / 2];
}

struct BackendRow {
  std::string backend;
  double sha256_single_hps = 0.0;
  double sha256_multi8_hps = 0.0;
  double wots_sign_ops = 0.0;
  double wots_verify_ops = 0.0;
  double wots_signverify_ops = 0.0;
  double derive67_ops = 0.0;
};

// `win` is the measurement window in seconds.
BackendRow measure_backend(const std::string& name, double win) {
  BackendRow row;
  row.backend = name;

  // Single stream: one-block (32-byte) messages, chained so the compiler
  // can't hoist anything.
  {
    Digest d = sha256("bench_crypto.single");
    row.sha256_single_hps = ops_per_sec(
        [&] {
          for (int i = 0; i < 256; ++i) {
            Sha256::digest_into(BytesView{d.v.data(), d.v.size()}, d);
          }
        },
        256.0, win);
    benchmark::DoNotOptimize(d);
  }

  // Multi-buffer: 64 independent 64-byte blocks per call.
  {
    constexpr std::size_t kBlocks = 64;
    alignas(32) std::uint8_t blocks[kBlocks][64];
    Digest out[kBlocks];
    for (std::size_t i = 0; i < kBlocks; ++i) {
      const Digest d = sha256("bench_crypto.multi." + std::to_string(i));
      std::memcpy(blocks[i], d.v.data(), 32);
      std::memcpy(blocks[i] + 32, d.v.data(), 32);
    }
    row.sha256_multi8_hps = ops_per_sec(
        [&] { sha256_block_multi(blocks, out, kBlocks); },
        static_cast<double>(kBlocks), win);
    benchmark::DoNotOptimize(out[0]);
  }

  // WOTS: one fixed keypair, fresh message digest per round.
  {
    const Digest seed = sha256("bench_crypto.seed");
    const auto sk = wots::keygen_secret(seed, 7);
    const auto pk = wots::derive_public(sk);
    Digest msg = sha256("bench_crypto.msg");
    row.wots_sign_ops = ops_per_sec(
        [&] {
          benchmark::DoNotOptimize(wots::sign(sk, msg));
          msg.v[0] ^= 1;
        },
        1.0, win);
    const auto sig = wots::sign(sk, msg);
    row.wots_verify_ops = ops_per_sec(
        [&] { benchmark::DoNotOptimize(wots::verify(pk, msg, sig)); }, 1.0,
        win);
    row.wots_signverify_ops = ops_per_sec(
        [&] {
          const auto s = wots::sign(sk, msg);
          benchmark::DoNotOptimize(wots::verify(pk, msg, s));
        },
        1.0, win);
    row.derive67_ops = ops_per_sec(
        [&] {
          std::array<Digest, wots::kLen> out;
          derive_keys_into(BytesView{seed.v.data(), seed.v.size()},
                           "pera.wots.chain", out.data(), out.size());
          benchmark::DoNotOptimize(out[0]);
        },
        1.0, win);
  }
  return row;
}

// The pre-engine baseline always runs on the scalar compressor — that is
// what every caller got before this subsystem existed.
BackendRow measure_legacy(double win) {
  BackendRow row;
  row.backend = "scalar_legacy";

  {
    Digest d = sha256("bench_crypto.single");
    row.sha256_single_hps = ops_per_sec(
        [&] {
          for (int i = 0; i < 256; ++i) {
            legacy::LegacySha256 h;
            h.update(BytesView{d.v.data(), d.v.size()});
            d = h.finish();
          }
        },
        256.0, win);
    benchmark::DoNotOptimize(d);
  }

  const Digest seed = sha256("bench_crypto.seed");
  const auto sk = wots::keygen_secret(seed, 7);
  const auto pk = wots::derive_public(sk);
  Digest msg = sha256("bench_crypto.msg");
  row.wots_sign_ops = ops_per_sec(
      [&] {
        benchmark::DoNotOptimize(legacy::sign(sk, msg));
        msg.v[0] ^= 1;
      },
      1.0, win);
  const auto sig = legacy::sign(sk, msg);
  row.wots_verify_ops = ops_per_sec(
      [&] {
        benchmark::DoNotOptimize(legacy::recover_public(sig, msg) == pk);
      },
      1.0, win);
  row.wots_signverify_ops = ops_per_sec(
      [&] {
        const auto s = legacy::sign(sk, msg);
        benchmark::DoNotOptimize(legacy::recover_public(s, msg) == pk);
      },
      1.0, win);
  return row;
}

std::vector<BackendRow> run_suite(double win) {
  // Resolve the auto choice once (for the JSON header) before the per-
  // backend select() calls overwrite it.
  const std::string auto_name = engine::active().name;

  std::vector<BackendRow> rows;
  for (const std::string& name : engine::available()) {
    if (!engine::select(name)) continue;
    rows.push_back(measure_backend(name, win));
    const BackendRow& r = rows.back();
    std::printf(
        "%-13s single=%10.0f h/s  multi8=%10.0f h/s  sign=%8.1f/s  "
        "verify=%8.1f/s  sign+verify=%8.1f/s  derive67=%8.1f/s\n",
        r.backend.c_str(), r.sha256_single_hps, r.sha256_multi8_hps,
        r.wots_sign_ops, r.wots_verify_ops, r.wots_signverify_ops,
        r.derive67_ops);
  }

  engine::select("scalar");
  rows.push_back(measure_legacy(win));
  {
    const BackendRow& r = rows.back();
    std::printf(
        "%-13s single=%10.0f h/s  %-24s sign=%8.1f/s  verify=%8.1f/s  "
        "sign+verify=%8.1f/s\n",
        r.backend.c_str(), r.sha256_single_hps, "", r.wots_sign_ops,
        r.wots_verify_ops, r.wots_signverify_ops);
  }
  engine::select(auto_name);
  return rows;
}

// Google-Benchmark view of the headline number, so the binary composes
// with the standard bench tooling.
void BM_WotsSignVerify(benchmark::State& state) {
  const Digest seed = sha256("bench_crypto.seed");
  const auto sk = wots::keygen_secret(seed, 7);
  const auto pk = wots::derive_public(sk);
  const Digest msg = sha256("bench_crypto.msg");
  for (auto _ : state) {
    const auto sig = wots::sign(sk, msg);
    benchmark::DoNotOptimize(wots::verify(pk, msg, sig));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_WotsSignVerify);

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  bench::Harness h(bench::Runner::kGoogleBenchmark, "BENCH_crypto.json");
  h.flag("smoke", smoke,
         "tiny measurement windows, and no Google Benchmark pass");
  if (const int rc = h.parse(argc, argv); rc != 0) return rc;

  const std::vector<BackendRow> rows = run_suite(smoke ? 0.02 : 0.25);
  bench::Json j;
  j.field("smoke", smoke).object("cpu");
  j.field("shani", engine::cpu_has_shani())
      .field("avx2", engine::cpu_has_avx2()).end();
  j.field("auto_backend", engine::active().name).array("results");
  for (const BackendRow& r : rows) {
    j.object().field("backend", r.backend)
        .field("sha256_single_hps", r.sha256_single_hps, 0)
        .field("sha256_multi8_hps", r.sha256_multi8_hps, 0)
        .field("wots_sign_ops", r.wots_sign_ops, 1)
        .field("wots_verify_ops", r.wots_verify_ops, 1)
        .field("wots_signverify_ops", r.wots_signverify_ops, 1)
        .field("derive_keys_67_ops", r.derive67_ops, 1).end();
  }
  h.write(j);
  if (!smoke) h.run_benchmarks();
  return h.finish();
}
