// The sharded multi-worker PERA packet pipeline.
//
// An RSS-style dispatcher flow-hashes incoming packets onto N shard
// workers over bounded lock-free SPSC rings; each worker is a
// shared-nothing PERA pipe (own dataplane tables, measurement unit,
// evidence cache, batcher and HMAC device key derived per shard from the
// pipeline root key). Control-plane mutations go through the seqlock
// EpochBlock; everything else is per-shard. See docs/ARCHITECTURE.md
// ("Parallel pipeline") for the protocol and the shard-invariance
// argument.
//
// Two clocks run at once:
//  * wall clock — the workers really are std::threads, so ThreadSanitizer
//    and the race tests exercise true concurrency;
//  * simulated time — every packet is also cost-accounted through the
//    CostModel (like the rest of the reproduction), giving deterministic
//    packets/sec and latency percentiles that don't depend on host cores.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "pipeline/appraiser.h"
#include "pipeline/flow_hash.h"
#include "pipeline/worker.h"

namespace pera::pipeline {

struct PipelineOptions {
  std::size_t shards = 4;
  std::size_t queue_capacity = 1024;  // rounded up to a power of two
  /// Full ring policy: true = drop the packet (counted), false = the
  /// dispatcher spins (requires started workers) — lossless backpressure.
  bool drop_on_full = true;
  ::pera::pera::PeraConfig pera;
  /// Simulated dispatcher cost per packet (flow hash + ring push) — the
  /// serial fraction that Amdahl-limits shard scaling.
  netsim::SimTime dispatch_cost = 25;
  /// Simulated parse/match/deparse cost per packet on a shard, on top of
  /// the RA cost the evidence engine reports.
  netsim::SimTime base_packet_cost = 120;
  /// Label for per-shard device-key derivation from the root key.
  std::string shard_key_label = "pera.pipeline.shard";
  /// > 0: run a ParallelAppraiser with this many workers concurrently
  /// with the pipeline — shards stream evidence straight into it and
  /// stop() finishes it (the defined drain order). 0 (default): evidence
  /// buffers per shard for post-run collect_evidence(), as before.
  std::size_t appraisers = 0;
  /// Fold mode the in-pipeline appraiser uses per flow.
  nac::CompositionMode appraise_mode = nac::CompositionMode::kChained;
  /// Evidence signature scheme for every shard signer (and the matching
  /// appraiser verifiers). kXmss routes each verification's WOTS chain
  /// walk through the multi-lane SHA-256 engine.
  crypto::SignatureScheme scheme = crypto::SignatureScheme::kHmacDeviceKey;
  unsigned xmss_height = 8;
  /// Pin threads round-robin: shard i -> core i, appraiser j -> core
  /// shards + j (modulo the host's core count). Best effort.
  bool pin_cores = false;
};

struct PipelineReport {
  std::uint64_t submitted = 0;
  std::uint64_t dropped = 0;
  /// Packet buffers whose capacity came from the recycle pool vs. fresh
  /// allocations (dispatch-side; pool_reused / (reused + fresh) is the
  /// hot-path allocation-avoidance rate).
  std::uint64_t pool_reused = 0;
  std::uint64_t pool_fresh = 0;
  std::vector<ShardReport> shards;
  /// Simulated makespan: dispatcher end vs. the slowest shard.
  netsim::SimTime makespan = 0;
  /// Simulated packets/sec over the makespan (processed only).
  double sim_packets_per_sec = 0.0;
  /// Sorted per-packet simulated latencies (queue wait + processing).
  std::vector<netsim::SimTime> latencies;

  [[nodiscard]] std::uint64_t processed() const {
    std::uint64_t n = 0;
    for (const ShardReport& s : shards) n += s.processed;
    return n;
  }
  [[nodiscard]] netsim::SimTime latency_percentile(double p) const;
};

class PeraPipeline {
 public:
  /// `factory` must deterministically build identical programs (each
  /// shard materializes its own instance). The per-shard HMAC device
  /// keys are derive_keys(root_key, options.shard_key_label, shards);
  /// appraisers derive the same set — see ShardedAppraiser.
  PeraPipeline(std::string name, ProgramFactory factory,
               const crypto::Digest& root_key, PipelineOptions options = {});
  ~PeraPipeline();

  PeraPipeline(const PeraPipeline&) = delete;
  PeraPipeline& operator=(const PeraPipeline&) = delete;

  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] std::size_t shards() const { return workers_.size(); }
  [[nodiscard]] const PipelineOptions& options() const { return options_; }

  /// Spawn one thread per shard. Idempotent.
  void start();

  /// Dispatch one packet: flow-hash, stamp (seq, sim arrival), push onto
  /// the owning shard's ring. Returns false when the packet was dropped
  /// (ring full under drop_on_full). `header` must outlive stop().
  bool submit(const dataplane::RawPacket& raw,
              const nac::PolicyHeader* header);

  /// Signal end-of-stream, let workers drain their rings, join threads
  /// and flush deferred evidence batches. Idempotent.
  void stop();

  /// Shard a packet would land on (exposed for tests).
  [[nodiscard]] std::size_t shard_of_packet(
      const dataplane::RawPacket& raw) const {
    return shard_of(raw, workers_.size());
  }

  // --- control plane (any thread; serialized on the epoch block) ----------
  /// Swap the dataplane program on every shard (lazily, at each shard's
  /// next packet). Bumps each shard's program epoch on replay.
  void load_program(ProgramFactory factory);

  /// Add a table entry on every shard (lazily). Bumps tables epochs.
  /// Checked on the calling thread against the program the shards will
  /// run when they apply it: an entry that program cannot run throws
  /// std::invalid_argument and never reaches a shard.
  void update_table(std::string table, dataplane::TableEntry entry);

  [[nodiscard]] const EpochBlock& epochs() const { return epochs_; }

  /// The in-pipeline parallel appraiser (null unless options.appraisers
  /// > 0). Verdicts/summary are valid after stop().
  [[nodiscard]] ParallelAppraiser* appraiser() { return appraiser_.get(); }
  [[nodiscard]] const ParallelAppraiser* appraiser() const {
    return appraiser_.get();
  }

  // --- post-run results (call after stop()) -------------------------------
  /// All shards' evidence, merged and sorted by (flow, seq, shard) — a
  /// canonical order independent of shard count and thread timing.
  /// Empty when evidence streamed into an appraiser instead.
  [[nodiscard]] std::vector<EvidenceItem> collect_evidence() const;

  [[nodiscard]] PipelineReport report() const;

  [[nodiscard]] const ShardWorker& worker(std::size_t i) const {
    return *workers_[i];
  }

  /// The per-shard device keys this pipeline derived (appraiser-side
  /// provisioning uses the same derivation).
  [[nodiscard]] static std::vector<crypto::Digest> shard_keys(
      const crypto::Digest& root_key, std::string_view label, std::size_t n);

 private:
  std::string name_;
  PipelineOptions options_;
  EpochBlock epochs_;
  std::vector<std::unique_ptr<ShardWorker>> workers_;
  std::unique_ptr<ParallelAppraiser> appraiser_;
  std::vector<std::thread> threads_;
  std::atomic<bool> stop_{false};

  // The control plane's copy of the latest program, built from factory_
  // when an update first needs checking. control_mu_ orders the checks
  // and publishes of concurrent control threads.
  std::mutex control_mu_;
  ProgramFactory factory_;
  std::shared_ptr<dataplane::DataplaneProgram> control_program_;

  // Per-shard metric names, built once.
  std::vector<std::string> queue_depth_metric_;
  bool started_ = false;
  bool stopped_ = false;

  std::uint64_t next_seq_ = 0;
  std::uint64_t dropped_ = 0;
  std::uint64_t pool_reused_ = 0;
  std::uint64_t pool_fresh_ = 0;
  netsim::SimTime dispatch_clock_ = 0;
};

}  // namespace pera::pipeline
