#include "pipeline/appraiser.h"

#include <string>

#include "obs/obs.h"
#include "obs/profiler.h"
#include "pipeline/affinity.h"

namespace pera::pipeline {

namespace prof = obs::profiler;

ParallelAppraiser::ParallelAppraiser(const crypto::Digest& root_key,
                                     std::string_view label,
                                     std::size_t max_shards,
                                     AppraiserOptions options)
    : options_(options),
      verifiers_(root_key, label, max_shards, options.scheme,
                 options.xmss_height) {
  if (options_.workers == 0) options_.workers = 1;
}

ParallelAppraiser::~ParallelAppraiser() { finish(); }

void ParallelAppraiser::start(std::size_t producers) {
  if (started_) return;
  started_ = true;
  producers_ = producers == 0 ? 1 : producers;
  done_.store(false, std::memory_order_release);
  rings_.reserve(producers_ * options_.workers);
  for (std::size_t i = 0; i < producers_ * options_.workers; ++i) {
    rings_.push_back(
        std::make_unique<SpscQueue<EvidenceItem>>(kRingCapacity));
  }
  states_.resize(options_.workers);
  threads_.reserve(options_.workers);
  for (std::size_t w = 0; w < options_.workers; ++w) {
    threads_.emplace_back([this, w] { run_worker(w); });
  }
}

bool ParallelAppraiser::accept(std::uint32_t producer, EvidenceItem&& item) {
  if (!started_ || producer >= producers_) {
    dropped_.fetch_add(1, std::memory_order_relaxed);
    PERA_OBS_COUNT("pipeline.appraise.dropped");
    return false;
  }
  SpscQueue<EvidenceItem>& q = ring(producer, worker_of(item.flow));
  if (!q.try_push(std::move(item))) {
    if (done_.load(std::memory_order_acquire)) {
      dropped_.fetch_add(1, std::memory_order_relaxed);
      PERA_OBS_COUNT("pipeline.appraise.dropped");
      return false;
    }
    // Lossless: the appraiser is the pipeline's consumer of record —
    // spin with escalating backoff until the owning worker catches up.
    Backoff full;
    while (!q.try_push(std::move(item))) full.wait();
  }
  return true;
}

void ParallelAppraiser::appraise(WorkerState& state, const EvidenceItem& item) {
  prof::enter(prof::Stage::kWotsVerify);
  const AppraisedRecord rec = appraise_record(item, verifiers_);
  prof::enter(prof::Stage::kReassembly);
  state.flows.try_emplace(item.flow, options_.mode).first->second.add(rec);
  ++state.records;
}

void ParallelAppraiser::run_worker(std::size_t w) {
  if (options_.pin_base >= 0) {
    pin_current_thread(static_cast<unsigned>(options_.pin_base) +
                       static_cast<unsigned>(w));
  }
  const prof::ScopedThread profile("appraiser" + std::to_string(w),
                                   prof::Stage::kIdle);
  WorkerState& state = states_[w];
  EvidenceItem item;
  Backoff idle;
  for (;;) {
    // done_ is set only after every producer thread was joined: once it
    // reads true, a pass that pops nothing leaves the rings empty forever.
    const bool done = done_.load(std::memory_order_acquire);
    // Visit every producer's ring; pop in bursts so verification runs
    // as a batch per visit.
    std::size_t popped = 0;
    for (std::size_t p = 0; p < producers_; ++p) {
      SpscQueue<EvidenceItem>& q = ring(p, w);
      for (std::size_t n = 0; n < kVerifyBurst; ++n) {
        if (!q.try_pop(item)) break;
        ++popped;
        appraise(state, item);
      }
    }
    if (popped != 0) {
      idle.reset();
      continue;
    }
    if (done) break;
    prof::enter(prof::Stage::kIdle);
    idle.wait();
  }
}

void ParallelAppraiser::finish() {
  if (!started_ || finished_) return;
  finished_ = true;
  done_.store(true, std::memory_order_release);
  for (std::thread& t : threads_) {
    if (t.joinable()) t.join();
  }
  threads_.clear();
  // Deterministic merge: flow slices are disjoint across workers, and
  // std::map orders by flow id — the merged map is independent of worker
  // count and thread timing.
  const prof::ScopedStage merge(prof::Stage::kMerge);
  for (WorkerState& state : states_) {
    records_ += state.records;
    for (auto& [flow, fold] : state.flows) {
      verdicts_.emplace(flow, fold.finish(flow));
    }
  }
  PERA_OBS_COUNT("pipeline.appraise.flows", verdicts_.size());
}

}  // namespace pera::pipeline
