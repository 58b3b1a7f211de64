#include "ctrl/scheduler.h"

#include <algorithm>
#include <stdexcept>

#include "obs/obs.h"

namespace pera::ctrl {

ReattestScheduler::ReattestScheduler(netsim::EventQueue& events,
                                     SchedulerConfig config, std::uint64_t seed)
    : events_(&events), config_(config), root_rng_(seed) {
  config_.jitter = std::clamp(config_.jitter, 0.0, 0.99);
}

void ReattestScheduler::add_switch(const std::string& place) {
  for (const auto level : nac::kAllLevels) {
    if (!nac::has_detail(config_.levels, level)) continue;
    auto track = std::make_unique<Track>(Track{
        place, level, root_rng_.fork(place + "/" + nac::to_string(level))});
    tracks_.push_back(std::move(track));
    if (running_) arm(tracks_.size() - 1, /*first=*/true);
  }
  PERA_OBS_GAUGE("ctrl.scheduler.tracks", static_cast<double>(tracks_.size()));
}

void ReattestScheduler::start(Issue issue) {
  if (running_) throw std::logic_error("ReattestScheduler: already running");
  running_ = true;
  ++generation_;
  issue_ = std::move(issue);
  for (std::size_t i = 0; i < tracks_.size(); ++i) arm(i, /*first=*/true);
}

void ReattestScheduler::stop() {
  running_ = false;
  ++generation_;  // queued events carry the old generation and no-op
}

netsim::SimTime ReattestScheduler::jittered(netsim::SimTime interval,
                                            crypto::Drbg& rng) const {
  const double scale =
      1.0 - config_.jitter + 2.0 * config_.jitter * rng.uniform01();
  const auto out =
      static_cast<netsim::SimTime>(static_cast<double>(interval) * scale);
  return std::max<netsim::SimTime>(out, 1);
}

void ReattestScheduler::arm(std::size_t track, bool first) {
  Track& t = *tracks_[track];
  const netsim::SimTime interval = config_.cadence.interval_for(t.level);
  netsim::SimTime delay;
  if (first && config_.stagger_start) {
    // First fire uniform in [0, interval): decorrelates a fleet provisioned
    // at the same instant.
    delay = static_cast<netsim::SimTime>(
        t.rng.uniform(static_cast<std::uint64_t>(std::max<netsim::SimTime>(
            interval, 1))));
  } else {
    delay = jittered(interval, t.rng);
  }
  const std::uint64_t gen = generation_;
  events_->schedule_in(delay, [this, track, gen] {
    if (gen != generation_ || !running_) return;
    Track& tr = *tracks_[track];
    ++issued_;
    PERA_OBS_COUNT("ctrl.scheduler.rounds");
    if (issue_) issue_(tr.place, tr.level);
    arm(track, /*first=*/false);
  });
}

}  // namespace pera::ctrl
