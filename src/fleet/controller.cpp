#include "fleet/controller.h"

#include <algorithm>
#include <stdexcept>

#include "core/wire.h"
#include "obs/obs.h"

namespace pera::fleet {

namespace {
/// Deterministic per-place seed derivation (stable across platforms).
std::uint64_t place_seed(std::uint64_t seed, const std::string& name) {
  const crypto::Digest d = crypto::sha256(name);
  return seed ^ crypto::ByteReader(crypto::BytesView{d.v.data(), d.v.size()}).u64();
}
}  // namespace

// --- RegionalNode ----------------------------------------------------------

RegionalNode::RegionalNode(core::Deployment& dep, const std::string& place,
                           const FleetConfig& config, std::uint64_t seed)
    : dep_(&dep),
      place_(place),
      self_(dep.network().topology().require(place)),
      config_(config),
      inner_(dep.network().behavior_of(self_)),
      appraiser_(place, dep.keys()),
      bucket_(config.admit_rate, config.admit_burst),
      transport_(dep.network(), self_, place, dep.keys(), config.transport,
                 place_seed(seed, place)) {
  sync_reference_values();

  // Member rounds bind derived nonces so the root can audit freshness
  // without holding per-member round state.
  transport_.set_nonce_source(
      [this](const std::string& member, std::size_t attempt) {
        const auto it = member_wave_nonce_.find(member);
        const crypto::Nonce wave_nonce =
            it == member_wave_nonce_.end() ? crypto::Nonce{} : it->second;
        return derive_member_nonce(wave_nonce, member, attempt);
      });
}

void RegionalNode::sync_reference_values() {
  // The delegated appraiser judges with the root's reference values: a
  // copy of the goldens (and required measurements) provisioned
  // out-of-band. Re-synced at every wave command so goldens provisioned
  // or rotated after this node was built still reach the delegated tier.
  ra::Appraiser& root = dep_->appraiser().appraiser();
  for (const auto& [cid, golden] : root.goldens()) {
    appraiser_.set_golden(cid.first, cid.second, golden);
  }
  for (const auto& [place, targets] : root.requirements()) {
    for (const auto& target : targets) appraiser_.require(place, target);
  }
}

RegionalNode::~RegionalNode() {
  if (attached_) dep_->network().attach(self_, inner_);
}

void RegionalNode::attach() {
  if (attached_) return;
  dep_->network().attach(self_, this);
  attached_ = true;
}

netsim::TransitResult RegionalNode::on_transit(netsim::Network& net,
                                               netsim::NodeId self,
                                               netsim::Message& msg) {
  if (inner_ != nullptr) return inner_->on_transit(net, self, msg);
  return {};
}

void RegionalNode::on_deliver(netsim::Network& net, netsim::NodeId self,
                              netsim::Message msg) {
  if (msg.type == "wave-cmd") {
    handle_wave(net, msg);
    return;
  }
  if (msg.type == "evidence") {
    handle_evidence(net, msg);
    return;
  }
  // Everything else — including the root's direct "challenge" rounds
  // against this regional — goes to the displaced SwitchNode.
  if (inner_ != nullptr) inner_->on_deliver(net, self, std::move(msg));
}

void RegionalNode::forge_member(const std::string& member, bool forge) {
  if (forge) {
    forged_.insert(member);
  } else {
    forged_.erase(member);
  }
}

const crypto::IncrementalMerkleTree::Stats* RegionalNode::tree_stats(
    const std::string& region) const {
  const auto it = regions_.find(region);
  if (it == regions_.end() || !it->second.aggregator) return nullptr;
  return &it->second.aggregator->tree_stats();
}

void RegionalNode::handle_wave(netsim::Network& net,
                               const netsim::Message& msg) {
  WaveCommand cmd;
  try {
    cmd = WaveCommand::deserialize(
        crypto::BytesView{msg.payload.data(), msg.payload.size()});
  } catch (const std::exception&) {
    PERA_OBS_COUNT("fleet.wave.malformed");
    return;
  }
  (void)net;
  sync_reference_values();
  RegionCtx& ctx = regions_[cmd.region];
  std::vector<std::string> sorted = cmd.members;
  std::sort(sorted.begin(), sorted.end());
  if (!ctx.aggregator || ctx.aggregator->members() != sorted) {
    // First wave for this region here (or a membership change after a
    // rehome/split): fresh composition tree, full build on first seal.
    ctx.aggregator =
        std::make_unique<EvidenceAggregator>(cmd.region, place_, cmd.members);
  }
  if (ctx.session && !ctx.session->finished()) {
    ctx.session->abandon();
    PERA_OBS_COUNT("fleet.wave.overrun");
  }
  ctx.wave = cmd.wave;
  ctx.nonce = cmd.nonce;
  ctx.detail = cmd.detail;
  ctx.carry = cmd.carry_evidence;
  ctx.reply_to = msg.reply_to != netsim::kNoNode ? msg.reply_to : msg.src;
  ctx.aggregator->begin_wave(cmd.wave, cmd.nonce);
  ++waves_served_;
  PERA_OBS_COUNT("fleet.wave.served");

  const std::string region = cmd.region;
  ctx.session = std::make_unique<RegionSession>(
      cmd.members, RegionSession::Config{config_.fanout, &bucket_},
      [this] { return dep_->network().now(); },
      [this](netsim::SimTime delay, std::function<void()> fn) {
        dep_->network().events().schedule_in(delay, std::move(fn));
      },
      [this, region](const std::string& member) {
        start_member_round(region, member);
      },
      [this, region] { seal_and_send(region); });
  ctx.session->run();
}

void RegionalNode::start_member_round(const std::string& region,
                                      const std::string& member) {
  const auto it = regions_.find(region);
  if (it == regions_.end()) return;
  RegionCtx& ctx = it->second;
  member_region_[member] = region;
  member_wave_nonce_[member] = ctx.nonce;

  if (forged_.contains(member)) {
    // The compromised-regional adversary: vouch for the member without
    // challenging it, replaying the last honest evidence. The stale
    // derived nonce is what the root's freshness pass catches.
    AggregateEntry e;
    e.place = member;
    e.outcome = EntryOutcome::kPass;
    e.verdict = true;
    e.attempts = 1;
    const auto lg = last_good_.find(member);
    if (lg != last_good_.end()) {
      e.measurement_root = lg->second.measurement_root;
      e.evidence_digest = lg->second.evidence_digest;
      if (ctx.carry) e.evidence = lg->second.evidence;
    }
    ++forged_entries_;
    PERA_OBS_COUNT("fleet.entries.forged");
    ctx.aggregator->record(std::move(e));
    ctx.session->complete(member);
    return;
  }

  transport_.begin_round(
      member, ctx.detail,
      [this](const std::string& p, const ctrl::RoundOutcome& out) {
        finish_member_round(p, out);
      });
}

void RegionalNode::finish_member_round(const std::string& member,
                                       const ctrl::RoundOutcome& out) {
  const auto rit = member_region_.find(member);
  if (rit == member_region_.end()) {
    ++stale_completions_;
    return;
  }
  const auto cit = regions_.find(rit->second);
  if (cit == regions_.end()) {
    ++stale_completions_;
    return;
  }
  RegionCtx& ctx = cit->second;
  const auto nit = member_wave_nonce_.find(member);
  if (nit == member_wave_nonce_.end() || !(nit->second == ctx.nonce)) {
    // A completion from an abandoned (overrun) wave: the new wave owns
    // the member's slot now.
    ++stale_completions_;
    PERA_OBS_COUNT("fleet.round.stale");
    return;
  }

  AggregateEntry e;
  e.place = member;
  e.attempts = static_cast<std::uint32_t>(out.attempts);
  if (!out.completed) {
    e.outcome = EntryOutcome::kTimeout;
  } else {
    e.verdict = out.verdict;
    e.outcome = out.verdict ? EntryOutcome::kPass : EntryOutcome::kFail;
    const auto sit = stash_.find(out.nonce.value);
    if (sit != stash_.end()) {
      e.measurement_root = sit->second.measurement_root;
      e.evidence_digest = sit->second.evidence_digest;
      if (ctx.carry) e.evidence = sit->second.evidence;
      if (out.verdict) {
        last_good_[member] = sit->second;
      }
    }
  }
  ctx.aggregator->record(std::move(e));
  if (ctx.session) ctx.session->complete(member);
}

void RegionalNode::handle_evidence(netsim::Network& net,
                                   const netsim::Message& msg) {
  core::EvidenceMsg em;
  try {
    em = core::EvidenceMsg::deserialize(msg.payload);
  } catch (const std::exception&) {
    PERA_OBS_COUNT("fleet.evidence.malformed");
    return;
  }
  const auto now = static_cast<std::int64_t>(net.now());
  copland::AppraisalReport report;
  const ra::AttestationResult res =
      appraiser_.appraise(em.evidence, em.nonce, /*certify=*/false, now,
                          /*enforce_freshness=*/true, &report);
  crypto::Signer* signer = dep_->keys().signer_for(place_);
  if (signer == nullptr) return;
  const ra::Certificate cert = ra::Certificate::issue(
      place_, em.nonce, em.evidence, res.ok, now, *signer);

  // Stash the raw evidence under the result's nonce BEFORE feeding the
  // transport: on_result completes the round synchronously, and the
  // completion handler recovers the evidence for the aggregate entry.
  stash_[em.nonce.value] = Appraised{em.evidence, cert.evidence_digest,
                                     measurement_root_of(report)};
  transport_.on_result(cert, net.now());
  stash_.erase(em.nonce.value);
}

void RegionalNode::seal_and_send(const std::string& region) {
  const auto it = regions_.find(region);
  if (it == regions_.end()) return;
  RegionCtx& ctx = it->second;
  crypto::Signer* signer = dep_->keys().signer_for(place_);
  if (signer == nullptr || !ctx.aggregator) return;
  if (ctx.session) {
    peak_inflight_ = std::max(peak_inflight_, ctx.session->peak_inflight());
  }
  const Aggregate agg = ctx.aggregator->seal(*signer);
  ++aggregates_sent_;
  PERA_OBS_COUNT("fleet.aggregate.sent");
  if (ctx.reply_to == netsim::kNoNode) return;
  netsim::Message out;
  out.src = self_;
  out.dst = ctx.reply_to;
  out.reply_to = self_;
  out.type = "aggregate";
  out.payload = agg.serialize();
  dep_->network().send(std::move(out));
}

// --- FleetController -------------------------------------------------------

FleetController::FleetController(core::Deployment& dep,
                                 const std::string& host, DelegationTree tree,
                                 FleetConfig config, std::uint64_t seed)
    : dep_(&dep),
      host_name_(host),
      self_(dep.network().topology().require(host)),
      config_(config),
      seed_(seed),
      inner_(dep.network().behavior_of(self_)),
      tree_(std::move(tree)),
      transport_(dep.network(), self_, dep.appraiser_name(), dep.keys(),
                 config.root_transport, seed),
      scheduler_(dep.network().events(), config.wave, seed + 1),
      enforcer_(dep.network()),
      wave_nonce_rng_(seed ^ 0xF1EE7A11D0C5ULL) {
  if (config_.fanout == 0) config_.fanout = 1;

  const auto make_machine = [this](const std::string& place,
                                   bool apply_enforcer) {
    auto machine =
        std::make_unique<ctrl::TrustStateMachine>(place, config_.trust);
    machine->on_transition([this, apply_enforcer](
                               const ctrl::TrustStateMachine& m,
                               const ctrl::TrustTransition& t) {
      timeline_.push_back({m.place(), t});
      if (apply_enforcer && config_.quarantine_reroutes) {
        enforcer_.apply(m.place(), t);
      }
      if (is_regional(m.place()) && t.to == ctrl::TrustState::kQuarantined) {
        // Failover runs from a fresh event so it never re-enters the
        // machine mid-record.
        const std::string place = m.place();
        dep_->network().events().schedule_in(
            1, [this, place] { handle_regional_quarantine(place); });
      }
      if (hook_) hook_(m.place(), t);
    });
    return machine;
  };
  const auto add_machine = [&](const std::string& place) {
    machines_.emplace(place, make_machine(place, /*apply_enforcer=*/true));
  };

  for (const auto& appraiser : tree_.appraisers()) {
    regionals_.emplace(appraiser,
                       std::make_unique<RegionalNode>(
                           dep, appraiser, config_, place_seed(seed, appraiser)));
    add_machine(appraiser);
    // Delegation trust: aggregate outcomes only, no data-plane reroute (a
    // lying delegate may still forward packets fine — and vice versa, a
    // direct-round pass must not launder aggregate failures).
    delegation_.emplace(appraiser,
                        make_machine(appraiser, /*apply_enforcer=*/false));
  }
  for (const auto& member : tree_.all_members()) add_machine(member);
  for (const Region* r : tree_.regions()) scheduler_.add_region(r->name);
  PERA_OBS_GAUGE("fleet.switches.monitored",
                 static_cast<std::int64_t>(machines_.size()));
  PERA_OBS_GAUGE("fleet.regions",
                 static_cast<std::int64_t>(tree_.region_count()));
}

FleetController::~FleetController() {
  if (attached_) dep_->network().attach(self_, inner_);
}

void FleetController::start() {
  if (!attached_) {
    dep_->network().attach(self_, this);
    attached_ = true;
  }
  for (auto& [name, rn] : regionals_) rn->attach();
  scheduler_.start([this](const std::string& region, std::uint64_t wave) {
    fire_wave(region, wave);
  });
}

void FleetController::stop() { scheduler_.stop(); }

void FleetController::fire_wave(const std::string& region,
                                std::uint64_t wave) {
  const Region& r = tree_.region(region);
  PendingWave p;
  p.wave = wave;
  p.nonce = crypto::Nonce{wave_nonce_rng_.digest()};
  p.appraiser = r.appraiser;
  p.members = r.members;

  WaveCommand cmd;
  cmd.region = region;
  cmd.wave = wave;
  cmd.nonce = p.nonce;
  cmd.detail = config_.detail;
  cmd.carry_evidence = config_.carry_evidence;
  cmd.members = r.members;

  pending_[region] = std::move(p);
  ++stats_.waves_launched;

  netsim::Message msg;
  msg.src = self_;
  msg.dst = dep_->network().topology().require(r.appraiser);
  msg.reply_to = self_;
  msg.type = "wave-cmd";
  msg.payload = cmd.serialize();
  dep_->network().send(std::move(msg));

  if (config_.attest_regionals) issue_direct_round(r.appraiser);

  dep_->network().events().schedule_in(
      config_.wave_timeout,
      [this, region, wave] { on_wave_timeout(region, wave); });
}

netsim::TransitResult FleetController::on_transit(netsim::Network& net,
                                                  netsim::NodeId self,
                                                  netsim::Message& msg) {
  if (inner_ != nullptr) return inner_->on_transit(net, self, msg);
  return {};
}

void FleetController::on_deliver(netsim::Network& net, netsim::NodeId self,
                                 netsim::Message msg) {
  if (msg.type == "aggregate") {
    handle_aggregate(net, msg);
    return;
  }
  if (msg.type == "result") {
    const ra::Certificate cert = ra::Certificate::deserialize(
        crypto::BytesView{msg.payload.data(), msg.payload.size()});
    if (transport_.on_result(cert, net.now())) return;
  }
  if (inner_ != nullptr) inner_->on_deliver(net, self, std::move(msg));
}

void FleetController::handle_aggregate(netsim::Network& net,
                                       const netsim::Message& msg) {
  (void)net;
  Aggregate agg;
  try {
    agg = Aggregate::deserialize(
        crypto::BytesView{msg.payload.data(), msg.payload.size()});
  } catch (const std::exception&) {
    PERA_OBS_COUNT("fleet.aggregate.malformed");
    return;
  }
  ++stats_.aggregates_received;
  PERA_OBS_COUNT("fleet.aggregate.received");

  const auto it = pending_.find(agg.region);
  if (it == pending_.end() || it->second.wave != agg.wave) {
    ++stats_.aggregates_late;
    PERA_OBS_COUNT("fleet.aggregate.late");
    return;
  }
  const PendingWave p = std::move(it->second);
  pending_.erase(it);

  VerifyOptions opts;
  opts.keys = &dep_->keys();
  opts.root_appraiser = &dep_->appraiser().appraiser();
  opts.audit_entries = config_.audit_entries;
  opts.audit_seed = seed_;
  opts.max_attempts =
      static_cast<std::uint32_t>(config_.transport.max_attempts);
  opts.require_evidence = config_.carry_evidence;
  const AggregateCheck check =
      verify_aggregate(agg, p.members, p.nonce, p.wave, opts);

  if (check.valid) {
    ++stats_.aggregates_valid;
    PERA_OBS_COUNT("fleet.aggregate.valid");
    failure_streak_[agg.region] = 0;
    feed_delegation(p.appraiser, ctrl::Outcome::kPass);
    for (const auto& e : agg.entries) {
      ++stats_.entries_applied;
      PERA_OBS_COUNT("fleet.entries.applied");
      if (e.outcome != EntryOutcome::kTimeout) {
        last_verdicts_[e.place] = e.verdict;
      }
      // A live direct probe round against this member is settled by the
      // aggregate (and must not later be double-counted as a duplicate
      // or timeout); its completion handler feeds the trust machine.
      ctrl::RoundOutcome sub;
      sub.completed = e.outcome != EntryOutcome::kTimeout;
      sub.verdict = e.verdict;
      const std::size_t subsumed = transport_.subsume_round(e.place, sub);
      stats_.rounds_subsumed += subsumed;
      if (subsumed == 0) {
        feed(e.place, e.outcome == EntryOutcome::kPass ? ctrl::Outcome::kPass
                      : e.outcome == EntryOutcome::kFail
                          ? ctrl::Outcome::kFail
                          : ctrl::Outcome::kTimeout);
      }
    }
    return;
  }

  // The composition tree itself is bad: that is failure evidence about
  // the REGIONAL, and the members' verdicts are unusable — probe them
  // directly while the regional's trust drains.
  ++stats_.aggregates_invalid;
  PERA_OBS_COUNT("fleet.aggregate.invalid");
  PERA_OBS_EVENT(obs::SpanKind::kAppraise, "fleet.aggregate." + agg.region, 0,
                 0);
  feed_delegation(p.appraiser, ctrl::Outcome::kFail);
  const int streak = ++failure_streak_[agg.region];
  probe_region(agg.region, p.members);
  if (streak >= config_.split_after_failures) {
    if (const auto halves = tree_.split(agg.region, config_.min_split_size)) {
      ++stats_.region_splits;
      PERA_OBS_COUNT("fleet.region.split");
      scheduler_.remove_region(agg.region);
      scheduler_.add_region(halves->first);
      scheduler_.add_region(halves->second);
      failure_streak_.erase(agg.region);
    }
  }
}

void FleetController::on_wave_timeout(const std::string& region,
                                      std::uint64_t wave) {
  const auto it = pending_.find(region);
  if (it == pending_.end() || it->second.wave != wave) return;
  const PendingWave p = std::move(it->second);
  pending_.erase(it);
  ++stats_.aggregates_timeout;
  PERA_OBS_COUNT("fleet.aggregate.timeout");
  feed_delegation(p.appraiser, ctrl::Outcome::kTimeout);
  ++failure_streak_[region];
  probe_region(region, p.members);
}

void FleetController::issue_direct_round(const std::string& place) {
  if (root_inflight_ >= config_.fanout) {
    direct_queue_.push_back(place);
    return;
  }
  start_direct_round(place);
}

void FleetController::start_direct_round(const std::string& place) {
  ++root_inflight_;
  peak_root_inflight_ = std::max(peak_root_inflight_, root_inflight_);
  PERA_OBS_GAUGE("fleet.root.inflight",
                 static_cast<std::int64_t>(root_inflight_));
  transport_.begin_round(
      place, config_.detail,
      [this](const std::string& p, const ctrl::RoundOutcome& out) {
        if (root_inflight_ > 0) --root_inflight_;
        if (out.completed) last_verdicts_[p] = out.verdict;
        feed(p, !out.completed       ? ctrl::Outcome::kTimeout
               : out.verdict ? ctrl::Outcome::kPass
                             : ctrl::Outcome::kFail);
        while (!direct_queue_.empty() && root_inflight_ < config_.fanout) {
          const std::string next = direct_queue_.front();
          direct_queue_.pop_front();
          start_direct_round(next);
        }
      });
}

void FleetController::probe_region(const std::string& region,
                                   const std::vector<std::string>& members) {
  (void)region;
  stats_.probe_rounds += members.size();
  PERA_OBS_COUNT("fleet.probe.rounds", members.size());
  for (const auto& m : members) issue_direct_round(m);
}

void FleetController::handle_regional_quarantine(const std::string& place) {
  std::vector<std::string> moved_regions;
  for (const Region* r : tree_.regions()) {
    if (r->appraiser == place) moved_regions.push_back(r->name);
  }
  if (moved_regions.empty()) return;

  std::vector<std::string> sick;
  for (const auto& [name, rn] : regionals_) {
    const auto mit = machines_.find(name);
    const auto dit = delegation_.find(name);
    const bool device_bad =
        mit != machines_.end() &&
        mit->second->state() == ctrl::TrustState::kQuarantined;
    const bool delegation_bad =
        dit != delegation_.end() &&
        dit->second->state() == ctrl::TrustState::kQuarantined;
    if (device_bad || delegation_bad) sick.push_back(name);
  }
  const auto sibling = tree_.sibling_of(place, sick);
  if (!sibling) {
    PERA_OBS_COUNT("fleet.rehome.no_sibling");
    return;
  }

  const std::size_t moved = tree_.rehome(place, *sibling);
  stats_.domains_rehomed += moved;
  PERA_OBS_COUNT("fleet.domain.rehomed", moved);

  const netsim::SimTime now = dep_->network().now();
  for (const auto& rname : moved_regions) {
    // The quarantined regional vouched for these members; their evidence
    // chain is broken. Treat that as failure evidence until the bulk
    // wave through the new home re-establishes trust member by member.
    for (const auto& m : tree_.region(rname).members) {
      auto& machine = *machines_.at(m);
      while (machine.state() != ctrl::TrustState::kQuarantined) {
        machine.record(ctrl::Outcome::kFail, now);
      }
    }
    scheduler_.trigger_now(rname);
  }
}

void FleetController::feed(const std::string& place, ctrl::Outcome o) {
  const auto it = machines_.find(place);
  if (it == machines_.end()) return;
  it->second->record(o, dep_->network().now());
}

void FleetController::feed_delegation(const std::string& place,
                                      ctrl::Outcome o) {
  const auto it = delegation_.find(place);
  if (it == delegation_.end()) return;
  it->second->record(o, dep_->network().now());
}

RegionalNode& FleetController::regional(const std::string& place) {
  const auto it = regionals_.find(place);
  if (it == regionals_.end()) {
    throw std::invalid_argument("FleetController: unknown regional " + place);
  }
  return *it->second;
}

const ctrl::TrustStateMachine& FleetController::trust(
    const std::string& place) const {
  const auto it = machines_.find(place);
  if (it == machines_.end()) {
    throw std::invalid_argument("FleetController: unknown place " + place);
  }
  return *it->second;
}

const ctrl::TrustStateMachine& FleetController::delegation_trust(
    const std::string& place) const {
  const auto it = delegation_.find(place);
  if (it == delegation_.end()) {
    throw std::invalid_argument("FleetController: unknown regional " + place);
  }
  return *it->second;
}

std::optional<netsim::SimTime> FleetController::first_transition(
    const std::string& place, ctrl::TrustState state) const {
  for (const auto& e : timeline_) {
    if (e.place == place && e.transition.to == state) return e.transition.at;
  }
  return std::nullopt;
}

}  // namespace pera::fleet
