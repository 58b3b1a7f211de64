#include "pipeline/pipeline.h"

#include <algorithm>

#include "crypto/hmac.h"
#include "obs/obs.h"
#include "obs/profiler.h"
#include "pipeline/affinity.h"

namespace pera::pipeline {

namespace prof = obs::profiler;

netsim::SimTime PipelineReport::latency_percentile(double p) const {
  if (latencies.empty()) return 0;
  const double rank = p * static_cast<double>(latencies.size() - 1);
  const std::size_t idx = static_cast<std::size_t>(rank + 0.5);
  return latencies[std::min(idx, latencies.size() - 1)];
}

std::vector<crypto::Digest> PeraPipeline::shard_keys(
    const crypto::Digest& root_key, std::string_view label, std::size_t n) {
  return crypto::derive_keys(
      crypto::BytesView{root_key.v.data(), root_key.v.size()}, label, n);
}

PeraPipeline::PeraPipeline(std::string name, ProgramFactory factory,
                           const crypto::Digest& root_key,
                           PipelineOptions options)
    : name_(std::move(name)), options_(options), factory_(factory) {
  if (options_.shards == 0) options_.shards = 1;
  const std::vector<crypto::Digest> keys =
      shard_keys(root_key, options_.shard_key_label, options_.shards);
  workers_.reserve(options_.shards);
  for (std::size_t i = 0; i < options_.shards; ++i) {
    workers_.push_back(std::make_unique<ShardWorker>(
        static_cast<std::uint32_t>(i), name_, factory, keys[i], epochs_,
        options_.pera, options_.queue_capacity, options_.base_packet_cost,
        options_.scheme, options_.xmss_height));
    if (options_.pin_cores) {
      workers_.back()->set_pin_cpu(static_cast<int>(i));
    }
    queue_depth_metric_.push_back("pipeline.queue.depth.shard" +
                                  std::to_string(i));
  }
  if (options_.appraisers > 0) {
    AppraiserOptions ao;
    ao.workers = options_.appraisers;
    ao.mode = options_.appraise_mode;
    ao.scheme = options_.scheme;
    ao.xmss_height = options_.xmss_height;
    ao.pin_base =
        options_.pin_cores ? static_cast<int>(options_.shards) : -1;
    appraiser_ = std::make_unique<ParallelAppraiser>(
        root_key, options_.shard_key_label, options_.shards, ao);
    for (auto& w : workers_) w->set_sink(appraiser_.get());
  }
}

PeraPipeline::~PeraPipeline() { stop(); }

void PeraPipeline::start() {
  if (started_) return;
  crypto::engine::publish_metrics();
  started_ = true;
  stop_.store(false, std::memory_order_release);
  if (appraiser_) appraiser_->start(workers_.size());
  threads_.reserve(workers_.size());
  for (auto& w : workers_) {
    threads_.emplace_back([worker = w.get(), this] { worker->run(stop_); });
  }
}

bool PeraPipeline::submit(const dataplane::RawPacket& raw,
                          const nac::PolicyHeader* header) {
  const prof::ScopedStage dispatching(prof::Stage::kDispatch);
  const std::uint64_t flow = flow_hash(extract_flow_key(raw));
  const std::size_t shard = static_cast<std::size_t>(
      (static_cast<unsigned __int128>(flow) * workers_.size()) >> 64);

  dispatch_clock_ += options_.dispatch_cost;
  PacketJob job;
  // Allocation-free fast path: reuse the capacity of a buffer the target
  // shard already spent, instead of allocating a fresh copy.
  crypto::Bytes pooled;
  if (workers_[shard]->recycle().try_pop(pooled)) {
    pooled.assign(raw.data.begin(), raw.data.end());
    job.raw.port = raw.port;
    job.raw.data = std::move(pooled);
    ++pool_reused_;
  } else {
    job.raw = raw;
    ++pool_fresh_;
  }
  job.header = header;
  job.flow = flow;
  job.seq = next_seq_++;
  job.arrival = dispatch_clock_;

  // try_push moves from the job only on success, so a full ring leaves it
  // intact for the retry loop.
  SpscQueue<PacketJob>& q = workers_[shard]->queue();
  if (!q.try_push(std::move(job))) {
    if (options_.drop_on_full) {
      ++dropped_;
      PERA_OBS_COUNT("pipeline.drops");
      return false;
    }
    // Lossless backpressure: wait (with escalating backoff, so an
    // oversubscribed worker actually gets cycles) until a slot frees.
    const prof::ScopedStage blocked(prof::Stage::kRingTransit);
    Backoff full;
    while (!q.try_push(std::move(job))) full.wait();
  }
  if (obs::enabled()) {
    obs::gauge_set(queue_depth_metric_[shard],
                   static_cast<std::int64_t>(q.size()));
  }
  return true;
}

void PeraPipeline::stop() {
  if (!started_ || stopped_) return;
  stopped_ = true;
  stop_.store(true, std::memory_order_release);
  // Defined drain order: (1) each worker empties its ring and flushes its
  // batcher on its own thread before run() returns (so streamed evidence
  // reaches the appraiser rings); (2) the appraiser drains, finalises and
  // merges. drain_deferred() here is the idempotent fallback for the
  // inline path (it is empty after a threaded run).
  for (std::thread& t : threads_) {
    if (t.joinable()) t.join();
  }
  threads_.clear();
  for (auto& w : workers_) w->drain_deferred();
  if (appraiser_) appraiser_->finish();
}

void PeraPipeline::load_program(ProgramFactory factory) {
  const std::lock_guard<std::mutex> lock(control_mu_);
  factory_ = factory;
  control_program_.reset();
  ControlOp op;
  op.kind = ControlOp::Kind::kLoadProgram;
  op.factory = std::move(factory);
  epochs_.publish(std::move(op));
  PERA_OBS_COUNT("pipeline.control.program_swaps");
}

void PeraPipeline::update_table(std::string table,
                                dataplane::TableEntry entry) {
  const std::lock_guard<std::mutex> lock(control_mu_);
  if (!control_program_) control_program_ = factory_();
  control_program_->check_entry(table, entry);
  ControlOp op;
  op.kind = ControlOp::Kind::kUpdateTable;
  op.table = std::move(table);
  op.entry = std::move(entry);
  epochs_.publish(std::move(op));
  PERA_OBS_COUNT("pipeline.control.table_updates");
}

std::vector<EvidenceItem> PeraPipeline::collect_evidence() const {
  std::vector<EvidenceItem> out;
  for (const auto& w : workers_) {
    out.insert(out.end(), w->evidence().begin(), w->evidence().end());
  }
  std::stable_sort(out.begin(), out.end(),
                   [](const EvidenceItem& a, const EvidenceItem& b) {
                     if (a.flow != b.flow) return a.flow < b.flow;
                     if (a.seq != b.seq) return a.seq < b.seq;
                     return a.shard < b.shard;
                   });
  return out;
}

PipelineReport PeraPipeline::report() const {
  PipelineReport rep;
  rep.submitted = next_seq_;
  rep.dropped = dropped_;
  rep.pool_reused = pool_reused_;
  rep.pool_fresh = pool_fresh_;
  rep.makespan = dispatch_clock_;
  for (const auto& w : workers_) {
    rep.shards.push_back(w->report());
    rep.makespan = std::max(rep.makespan, rep.shards.back().completion);
    rep.latencies.insert(rep.latencies.end(), w->latencies().begin(),
                         w->latencies().end());
  }
  std::sort(rep.latencies.begin(), rep.latencies.end());
  if (rep.makespan > 0) {
    rep.sim_packets_per_sec =
        static_cast<double>(rep.processed()) *
        static_cast<double>(netsim::kSecond) /
        static_cast<double>(rep.makespan);
  }
  return rep;
}

}  // namespace pera::pipeline
