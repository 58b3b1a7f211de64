#include "pipeline/worker.h"

#include <algorithm>
#include <thread>

#include "obs/obs.h"
#include "obs/profiler.h"
#include "pipeline/affinity.h"

namespace pera::pipeline {

namespace {

std::unique_ptr<crypto::Signer> make_signer(const crypto::Digest& device_key,
                                            crypto::SignatureScheme scheme,
                                            unsigned xmss_height) {
  if (scheme == crypto::SignatureScheme::kXmss) {
    return std::make_unique<crypto::XmssSigner>(device_key, xmss_height);
  }
  return std::make_unique<crypto::HmacSigner>(device_key);
}

}  // namespace

ShardWorker::ShardWorker(std::uint32_t id, std::string place,
                         const ProgramFactory& factory,
                         const crypto::Digest& device_key,
                         const EpochBlock& epochs, pera::PeraConfig config,
                         std::size_t queue_capacity,
                         netsim::SimTime base_packet_cost,
                         crypto::SignatureScheme scheme, unsigned xmss_height)
    : id_(id),
      signer_(make_signer(device_key, scheme, xmss_height)),
      switch_(std::move(place), factory(), *signer_, config),
      epochs_(&epochs),
      queue_(queue_capacity),
      recycle_(queue_capacity),
      base_packet_cost_(base_packet_cost),
      packets_metric_("pipeline.shard.packets." + std::to_string(id)) {}

void ShardWorker::run(const std::atomic<bool>& stop) {
  crypto::engine::publish_metrics();
  if (pin_cpu_ >= 0) pin_current_thread(static_cast<unsigned>(pin_cpu_));
  namespace prof = obs::profiler;
  const prof::ScopedThread profile("shard" + std::to_string(id_),
                                   prof::Stage::kIdle);
  PacketJob job;
  Backoff idle;
  for (;;) {
    if (queue_.try_pop(job)) {
      idle.reset();
      prof::enter(prof::Stage::kShardWork);
      process(std::move(job));
      continue;
    }
    if (stop.load(std::memory_order_acquire) && queue_.empty()) break;
    prof::enter(prof::Stage::kIdle);
    idle.wait();
  }
  // Defined drain order, step 2 (after the ring is dry): flush the
  // batcher's deferred evidence on this thread, so when streaming into a
  // sink the final batch reaches the appraiser before finish().
  prof::enter(prof::Stage::kShardWork);
  drain_deferred();
}

void ShardWorker::sync_epoch() {
  std::vector<ControlOp> ops;
  const std::uint64_t v = epochs_->ops_since(applied_ops_, ops);
  for (const ControlOp& op : ops) {
    if (op.kind == ControlOp::Kind::kLoadProgram) {
      switch_.load_program(op.factory());
    } else {
      switch_.update_table(op.table, op.entry);
    }
    ++applied_ops_;
  }
  synced_version_ = v;
  ++report_.epoch_syncs;
  PERA_OBS_COUNT("pipeline.epoch.syncs");
}

void ShardWorker::emit(EvidenceItem&& item) {
  if (sink_ != nullptr) {
    obs::profiler::ScopedStage transit(obs::profiler::Stage::kRingTransit);
    (void)sink_->accept(id_, std::move(item));
    return;
  }
  evidence_.push_back(std::move(item));
}

void ShardWorker::process(PacketJob job) {
  // Seqlock fast path: one acquire load; an odd (mid-publish) or moved
  // version sends us to the mutex-protected resync.
  if (epochs_->version() != synced_version_) sync_epoch();

  const std::uint64_t attested_before = switch_.ra_stats().attestations;
  nac::EvidenceCarrier carrier;
  ::pera::pera::PeraResult res =
      switch_.process(job.raw, job.header, &carrier);

  // Simulated-time accounting: the shard is a serial pipe; a packet
  // starts when both it and the pipe are ready.
  const netsim::SimTime cost = base_packet_cost_ + res.ra_latency;
  const netsim::SimTime start = std::max(clock_, job.arrival);
  clock_ = start + cost;
  report_.busy += cost;
  report_.completion = clock_;
  latencies_.push_back(clock_ - job.arrival);

  ++report_.processed;
  if (res.forwarded.has_value()) ++report_.forwarded;
  if (res.attested) ++report_.attested;
  PERA_OBS_COUNT(packets_metric_);

  // The packet's payload buffer is spent: hand its capacity back to the
  // dispatcher through the recycle ring (full ring = let it free).
  if (job.raw.data.capacity() > 0) {
    (void)recycle_.try_push(std::move(job.raw.data));
  }

  // Records leave in sequence order through one FIFO. In-band evidence
  // is ready now (the carrier is packet-local, so its buffers move out);
  // every remaining attestation went out of band and will surface as
  // exactly one record — now, or later when the batcher flushes — so it
  // holds a slot, filled in the FIFO order the batcher preserves.
  for (nac::EvidenceRecord& rec : carrier.records) {
    pending_.push_back({{job.flow, job.seq, id_, std::move(rec.evidence),
                         job.header->nonce},
                        true});
  }
  const std::uint64_t delta =
      switch_.ra_stats().attestations - attested_before;
  for (std::uint64_t k = carrier.records.size(); k < delta; ++k) {
    pending_.push_back({{job.flow, job.seq, id_, {}, {}}, false});
  }
  release(std::move(res.out_of_band));
}

void ShardWorker::release(std::vector<::pera::pera::OutOfBandEvidence> oob) {
  auto slot = pending_.begin();
  for (::pera::pera::OutOfBandEvidence& ev : oob) {
    while (slot->ready) ++slot;
    slot->item.evidence = std::move(ev.evidence);
    slot->item.nonce = ev.nonce;
    slot->ready = true;
  }
  while (!pending_.empty() && pending_.front().ready) {
    emit(std::move(pending_.front().item));
    pending_.pop_front();
  }
}

void ShardWorker::drain_deferred() { release(switch_.flush_pending()); }

ShardReport ShardWorker::report() const {
  ShardReport r = report_;
  r.cache = switch_.cache().stats();
  return r;
}

}  // namespace pera::pipeline
