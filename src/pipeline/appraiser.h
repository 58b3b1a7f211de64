// Parallel appraisal: per-shard appraiser workers with a deterministic
// merge.
//
// N independent appraiser workers, layered the way Petz & Alexander
// layer attestation managers, each own a disjoint slice of the flow space
// (the same multiplicative hash-partition the dispatcher uses for
// shards). They verify evidence *concurrently with the pipeline run* and
// fold every record into its flow's running transcript (FlowFold in
// reassembler.h) the moment they pop it, so a flow costs O(1) appraiser
// memory however long it runs, and finish() only finalises. Per-flow work
// is identical to the serial path (appraise_record + FlowFold), records
// of one flow arrive in sequence order (one shard per flow, in-order
// emission, FIFO rings), and flow slices are disjoint, so the merged
// verdict map and summary digest are bit-identical to ShardedAppraiser
// for any (shard count × appraiser count).
//
// Wiring: one SPSC ring per (producer shard, appraiser worker) pair —
// the producing shard thread is the only pusher and the owning appraiser
// the only popper, so the evidence hand-off takes zero locks, like the
// packet rings. Workers pop in bursts so signature verification runs in
// batches (with the XMSS scheme each verification's WOTS chain walk
// rides the multi-lane SHA-256 engine).
//
// Shutdown (the defined drain order, see PeraPipeline::stop()):
//   1. shard rings drain, shard batchers flush — on the shard threads;
//   2. finish() marks producers done; appraiser workers drain their
//      rings dry and exit;
//   3. the caller's thread finalises every flow's transcript into one
//      verdict map (flow slices are disjoint).
// Verdicts for evidence deferred to the very last batch therefore can
// never be dropped, at any batch size or packet count.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <thread>
#include <unordered_map>
#include <vector>

#include "pipeline/reassembler.h"

namespace pera::pipeline {

struct AppraiserOptions {
  std::size_t workers = 1;
  nac::CompositionMode mode = nac::CompositionMode::kChained;
  crypto::SignatureScheme scheme = crypto::SignatureScheme::kHmacDeviceKey;
  unsigned xmss_height = 8;
  /// Pin worker i to core pin_base + i (affinity.h); < 0 = no pinning.
  int pin_base = -1;
};

class ParallelAppraiser final : public EvidenceSink {
 public:
  /// Capacity of each (producer, worker) evidence ring.
  static constexpr std::size_t kRingCapacity = 4096;
  /// Max items popped per ring visit — the verification batch grain.
  static constexpr std::size_t kVerifyBurst = 16;

  /// Provision verifiers for up to `max_shards` derived device keys,
  /// exactly like ShardedAppraiser.
  ParallelAppraiser(const crypto::Digest& root_key, std::string_view label,
                    std::size_t max_shards, AppraiserOptions options = {});
  ~ParallelAppraiser() override;

  ParallelAppraiser(const ParallelAppraiser&) = delete;
  ParallelAppraiser& operator=(const ParallelAppraiser&) = delete;

  /// Spawn the appraiser workers, wired for `producers` producing
  /// shards. Idempotent.
  void start(std::size_t producers);

  /// EvidenceSink: called from producer shard threads. Lossless — spins
  /// with backoff while the owning worker's ring is full. Returns false
  /// only after finish() (late evidence is dropped and counted).
  bool accept(std::uint32_t producer, EvidenceItem&& item) override;

  /// Drain, join, finalise, merge. Call after every producer stopped
  /// emitting (PeraPipeline::stop() returned). Idempotent.
  void finish();

  // --- results (valid after finish()) -------------------------------------
  [[nodiscard]] const std::map<std::uint64_t, FlowVerdict>& verdicts() const {
    return verdicts_;
  }
  [[nodiscard]] crypto::Digest summary() const {
    return ShardedAppraiser::summary(verdicts_);
  }
  [[nodiscard]] std::size_t flows() const { return verdicts_.size(); }
  [[nodiscard]] std::uint64_t records() const { return records_; }
  [[nodiscard]] std::uint64_t dropped() const {
    return dropped_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::size_t workers() const { return options_.workers; }

  /// Appraiser worker a flow lands on (exposed for tests).
  [[nodiscard]] std::size_t worker_of(std::uint64_t flow) const {
    return static_cast<std::size_t>(
        (static_cast<unsigned __int128>(flow) * options_.workers) >> 64);
  }

 private:
  struct WorkerState {
    // One running fold per flow; records are folded as they are popped.
    std::unordered_map<std::uint64_t, FlowFold> flows;
    std::uint64_t records = 0;
  };

  void run_worker(std::size_t w);
  void appraise(WorkerState& state, const EvidenceItem& item);
  [[nodiscard]] SpscQueue<EvidenceItem>& ring(std::size_t producer,
                                              std::size_t worker) {
    return *rings_[producer * options_.workers + worker];
  }

  AppraiserOptions options_;
  VerifierSet verifiers_;
  std::size_t producers_ = 0;
  // [producer][worker], flattened; unique_ptr keeps SpscQueue immovable.
  std::vector<std::unique_ptr<SpscQueue<EvidenceItem>>> rings_;
  std::vector<WorkerState> states_;
  std::vector<std::thread> threads_;
  std::atomic<bool> done_{false};
  std::atomic<std::uint64_t> dropped_{0};
  bool started_ = false;
  bool finished_ = false;

  std::map<std::uint64_t, FlowVerdict> verdicts_;
  std::uint64_t records_ = 0;
};

}  // namespace pera::pipeline
