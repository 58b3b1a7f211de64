// One shard of the parallel PERA pipeline.
//
// A ShardWorker is shared-nothing on the packet path: it owns its own
// PeraSwitch (and through it a MeasurementUnit, EvidenceCache and
// EvidenceBatcher), its own signer keyed with a per-shard device key
// (HMAC by default, XMSS/WOTS optionally), and its own SPSC ingress
// queue. The only cross-shard state it touches is the EpochBlock version
// word (one acquire load per packet) — control ops are replayed onto the
// shard-private switch only when that word moves, and the switch's
// measurement-epoch machinery then invalidates cached evidence lazily,
// exactly as on the serial path.
//
// Every worker uses the *same* place name (the pipeline's switch name):
// the shards model the parallel pipes of one PERA element, so unsigned
// evidence content is bit-identical no matter which shard produced it.
//
// Evidence leaves a shard one of two ways: buffered locally in
// `evidence_` (post-run collection), or streamed into an EvidenceSink
// (the parallel appraiser) as it is produced — either way in dispatcher
// sequence order: records queue behind out-of-band evidence still
// deferred in the batcher. The end-of-stream drain order is fixed: a
// worker first empties its ingress ring, then flushes its batcher's
// deferred evidence — both *on the worker thread*, before run() returns —
// so every record reaches the sink before the appraiser side is allowed
// to finish (see PeraPipeline::stop()).
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <vector>

#include "crypto/signer.h"
#include "pera/pera_switch.h"
#include "pipeline/epoch.h"
#include "pipeline/spsc_queue.h"

namespace pera::pipeline {

/// A dispatched packet: raw bytes plus the dispatcher-assigned flow hash,
/// global sequence number and simulated arrival time. `header` borrows
/// the caller's policy header — it must outlive the pipeline run.
struct PacketJob {
  dataplane::RawPacket raw;
  const nac::PolicyHeader* header = nullptr;
  std::uint64_t flow = 0;
  std::uint64_t seq = 0;
  netsim::SimTime arrival = 0;
};

/// One evidence record leaving a shard, tagged for reassembly: (flow, seq)
/// orders a flow's records however shard streams interleave.
struct EvidenceItem {
  std::uint64_t flow = 0;
  std::uint64_t seq = 0;
  std::uint32_t shard = 0;
  crypto::Bytes evidence;  // copland::encode() of the signed evidence
  crypto::Nonce nonce{};
};

/// Consumer of evidence items as they are produced (the streaming hand-off
/// to the parallel appraiser). accept() is called from the producing
/// shard's worker thread; implementations must be safe for concurrent
/// calls from *different* producers (the ParallelAppraiser keeps one SPSC
/// ring per (producer, appraiser) pair, so it never locks).
class EvidenceSink {
 public:
  virtual ~EvidenceSink() = default;
  /// Returns false when the item was dropped (sink shutting down).
  virtual bool accept(std::uint32_t producer, EvidenceItem&& item) = 0;
};

struct ShardReport {
  std::uint64_t processed = 0;
  std::uint64_t forwarded = 0;
  std::uint64_t attested = 0;
  std::uint64_t epoch_syncs = 0;
  netsim::SimTime busy = 0;        // sum of per-packet simulated costs
  netsim::SimTime completion = 0;  // shard sim clock after its last packet
  pera::CacheStats cache;
};

class ShardWorker {
 public:
  ShardWorker(std::uint32_t id, std::string place, const ProgramFactory& factory,
              const crypto::Digest& device_key, const EpochBlock& epochs,
              pera::PeraConfig config, std::size_t queue_capacity,
              netsim::SimTime base_packet_cost,
              crypto::SignatureScheme scheme =
                  crypto::SignatureScheme::kHmacDeviceKey,
              unsigned xmss_height = 8);

  [[nodiscard]] SpscQueue<PacketJob>& queue() { return queue_; }
  [[nodiscard]] std::uint32_t id() const { return id_; }

  /// Stream evidence into `sink` instead of buffering it locally. Set
  /// before start(); the sink must outlive the run.
  void set_sink(EvidenceSink* sink) { sink_ = sink; }

  /// Pin the worker thread to `cpu` when it starts (affinity.h).
  void set_pin_cpu(int cpu) { pin_cpu_ = cpu; }

  /// The packet-buffer recycle ring: the worker (producer side) returns
  /// spent `RawPacket::data` buffers; the dispatcher (consumer side)
  /// reuses their capacity for the next submit — the dispatch stage then
  /// allocates only while the ring warms up.
  [[nodiscard]] SpscQueue<crypto::Bytes>& recycle() { return recycle_; }

  /// Thread body: pop-process until `stop` is set AND the queue is dry,
  /// then flush deferred (batched) evidence — the defined drain order.
  void run(const std::atomic<bool>& stop);

  /// Process one packet (also the inline single-threaded mode).
  void process(PacketJob job);

  /// Flush evidence still deferred in the batcher. run() already drains
  /// on the worker thread before returning; this is the inline-mode /
  /// never-started path (idempotent — a second flush is empty).
  void drain_deferred();

  // --- post-run results (owner thread only, after join) -------------------
  [[nodiscard]] const std::vector<EvidenceItem>& evidence() const {
    return evidence_;
  }
  [[nodiscard]] const std::vector<netsim::SimTime>& latencies() const {
    return latencies_;
  }
  [[nodiscard]] ShardReport report() const;
  [[nodiscard]] const ::pera::pera::PeraSwitch& pera_switch() const {
    return switch_;
  }

 private:
  void sync_epoch();
  void emit(EvidenceItem&& item);
  /// Fill the oldest open slots with `oob`, then emit the ready prefix.
  void release(std::vector<::pera::pera::OutOfBandEvidence> oob);

  struct Pending {  // out-of-band slots stay !ready until the batcher flushes
    EvidenceItem item;
    bool ready = false;
  };

  std::uint32_t id_;
  std::unique_ptr<crypto::Signer> signer_;
  ::pera::pera::PeraSwitch switch_;
  const EpochBlock* epochs_;
  SpscQueue<PacketJob> queue_;
  SpscQueue<crypto::Bytes> recycle_;
  netsim::SimTime base_packet_cost_;
  std::string packets_metric_;  // pipeline.shard.packets.<id>
  EvidenceSink* sink_ = nullptr;
  int pin_cpu_ = -1;

  std::uint64_t synced_version_ = 0;
  std::size_t applied_ops_ = 0;
  netsim::SimTime clock_ = 0;  // shard-local simulated clock

  ShardReport report_;
  std::vector<EvidenceItem> evidence_;
  std::vector<netsim::SimTime> latencies_;
  std::deque<Pending> pending_;  // emission FIFO, front = oldest
};

}  // namespace pera::pipeline
