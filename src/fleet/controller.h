// Fleet-scale hierarchical appraisal, assembled.
//
// Two decorators complete the delegation chain over any deployment:
//
//  * RegionalNode rides a regional appraiser's switch slot. It stays a
//    normal attesting element (the root's direct challenges reach the
//    displaced SwitchNode), and additionally serves "wave-cmd": it runs
//    one paced attestation round per member (RegionSession + token
//    bucket), appraises the evidence locally against a copy of the
//    goldens, folds outcomes into an incremental composition tree, and
//    returns ONE signed Aggregate to the root.
//
//  * FleetController rides the root host. It partitions the fleet
//    (DelegationTree), launches staggered per-region waves
//    (WaveScheduler), keeps a trust machine per member AND per regional,
//    verifies each aggregate (signature, Merkle, nonce freshness, seeded
//    evidence audits), recovers per-switch verdicts, and on regional
//    failure probes members directly, splits chronically failing
//    regions, and re-homes a quarantined regional's domains onto a
//    sibling followed by an immediate bulk re-attestation wave.
//
// Root appraisal load is strictly bounded: direct rounds (regionals +
// probes) pass an admission gate of at most `fanout` concurrent rounds,
// and each regional's member window is capped the same way — fan-out is
// bounded at every tier.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "core/deployment.h"
#include "ctrl/reroute.h"
#include "ctrl/transport.h"
#include "ctrl/trust.h"
#include "fleet/aggregate.h"
#include "fleet/delegation.h"
#include "fleet/wave.h"

namespace pera::fleet {

struct FleetConfig {
  /// Fan-out bound: members per region, concurrent member rounds per
  /// regional, and concurrent direct rounds at the root.
  std::size_t fanout = 32;
  /// Detail attested per wave and per direct round.
  nac::DetailMask detail = nac::EvidenceDetail::kHardware |
                           nac::EvidenceDetail::kProgram |
                           nac::EvidenceDetail::kTables;
  WaveConfig wave;
  /// Regional -> member rounds.
  ctrl::TransportConfig transport;
  /// Root -> regional direct rounds and probes.
  ctrl::TransportConfig root_transport;
  ctrl::TrustPolicy trust;
  /// Root-side deadline for a region's aggregate after the wave fires.
  netsim::SimTime wave_timeout = 150 * netsim::kMillisecond;
  /// Token-bucket admission for member rounds at each regional.
  double admit_rate = 4000.0;  // rounds per second
  double admit_burst = 16.0;
  /// Carried-evidence entries the root re-appraises per aggregate.
  std::size_t audit_entries = 2;
  /// Entries ship raw evidence (required for audits; netsim default).
  bool carry_evidence = true;
  /// Keep a direct re-attestation round on each regional per wave.
  bool attest_regionals = true;
  /// Consecutive aggregate failures before a region is split in half.
  int split_after_failures = 2;
  std::size_t min_split_size = 4;
  bool quarantine_reroutes = true;
};

/// The delegated appraiser riding one regional's node slot.
class RegionalNode final : public netsim::NodeBehavior {
 public:
  RegionalNode(core::Deployment& dep, const std::string& place,
               const FleetConfig& config, std::uint64_t seed);
  ~RegionalNode() override;

  RegionalNode(const RegionalNode&) = delete;
  RegionalNode& operator=(const RegionalNode&) = delete;

  /// Displace the switch's behaviour (restored on destruction).
  void attach();

  netsim::TransitResult on_transit(netsim::Network& net, netsim::NodeId self,
                                   netsim::Message& msg) override;
  void on_deliver(netsim::Network& net, netsim::NodeId self,
                  netsim::Message msg) override;

  /// Adversary hook: while set, this regional fabricates passing entries
  /// for `member` (replaying the last honest evidence) instead of
  /// actually challenging it.
  void forge_member(const std::string& member, bool forge);

  [[nodiscard]] std::uint64_t waves_served() const { return waves_served_; }
  [[nodiscard]] std::uint64_t aggregates_sent() const {
    return aggregates_sent_;
  }
  [[nodiscard]] std::uint64_t forged_entries() const { return forged_entries_; }
  [[nodiscard]] std::size_t peak_inflight() const { return peak_inflight_; }
  [[nodiscard]] const ctrl::EvidenceTransport& transport() const {
    return transport_;
  }
  /// Composition-tree work counters for `region` (O(Δ) assertions).
  [[nodiscard]] const crypto::IncrementalMerkleTree::Stats* tree_stats(
      const std::string& region) const;

 private:
  struct RegionCtx {
    std::unique_ptr<EvidenceAggregator> aggregator;
    std::unique_ptr<RegionSession> session;
    std::uint64_t wave = 0;
    crypto::Nonce nonce{};
    nac::DetailMask detail = 0;
    bool carry = true;
    netsim::NodeId reply_to = netsim::kNoNode;
  };
  /// Evidence this regional appraised, kept for its aggregate entry.
  struct Appraised {
    crypto::Bytes evidence;
    crypto::Digest evidence_digest{};
    crypto::Digest measurement_root{};
  };

  void sync_reference_values();
  void handle_wave(netsim::Network& net, const netsim::Message& msg);
  void handle_evidence(netsim::Network& net, const netsim::Message& msg);
  void start_member_round(const std::string& region,
                          const std::string& member);
  void finish_member_round(const std::string& member,
                           const ctrl::RoundOutcome& out);
  void seal_and_send(const std::string& region);

  core::Deployment* dep_;
  std::string place_;
  netsim::NodeId self_;
  FleetConfig config_;
  netsim::NodeBehavior* inner_;
  bool attached_ = false;
  ra::Appraiser appraiser_;  // local goldens copy
  TokenBucket bucket_;
  ctrl::EvidenceTransport transport_;
  std::map<std::string, RegionCtx> regions_;
  std::map<std::string, std::string> member_region_;
  std::map<std::string, crypto::Nonce> member_wave_nonce_;
  std::map<crypto::Digest, Appraised> stash_;  // by result nonce, transient
  std::map<std::string, Appraised> last_good_;
  std::set<std::string> forged_;
  std::uint64_t waves_served_ = 0;
  std::uint64_t aggregates_sent_ = 0;
  std::uint64_t forged_entries_ = 0;
  std::uint64_t stale_completions_ = 0;
  std::size_t peak_inflight_ = 0;
};

struct FleetStats {
  std::uint64_t waves_launched = 0;
  std::uint64_t aggregates_received = 0;
  std::uint64_t aggregates_valid = 0;
  std::uint64_t aggregates_invalid = 0;
  std::uint64_t aggregates_timeout = 0;
  std::uint64_t aggregates_late = 0;
  std::uint64_t entries_applied = 0;
  std::uint64_t rounds_subsumed = 0;
  std::uint64_t probe_rounds = 0;
  std::uint64_t region_splits = 0;
  std::uint64_t domains_rehomed = 0;
};

/// One entry of the fleet-wide trust-transition timeline.
struct FleetTimelineEntry {
  std::string place;
  ctrl::TrustTransition transition;
};

class FleetController final : public netsim::NodeBehavior {
 public:
  FleetController(core::Deployment& dep, const std::string& host,
                  DelegationTree tree, FleetConfig config,
                  std::uint64_t seed);
  ~FleetController() override;

  FleetController(const FleetController&) = delete;
  FleetController& operator=(const FleetController&) = delete;

  /// Attach root + regionals and start launching waves.
  void start();
  void stop();

  netsim::TransitResult on_transit(netsim::Network& net, netsim::NodeId self,
                                   netsim::Message& msg) override;
  void on_deliver(netsim::Network& net, netsim::NodeId self,
                  netsim::Message msg) override;

  [[nodiscard]] const DelegationTree& tree() const { return tree_; }
  [[nodiscard]] const FleetStats& stats() const { return stats_; }
  [[nodiscard]] WaveScheduler& scheduler() { return scheduler_; }
  [[nodiscard]] const ctrl::EvidenceTransport& transport() const {
    return transport_;
  }
  [[nodiscard]] const ctrl::QuarantineEnforcer& quarantine() const {
    return enforcer_;
  }
  [[nodiscard]] RegionalNode& regional(const std::string& place);
  [[nodiscard]] const ctrl::TrustStateMachine& trust(
      const std::string& place) const;
  /// A regional's *delegation* trust, fed by aggregate outcomes only.
  /// Device trust (direct rounds) and delegation trust are separate
  /// machines so a pass on one channel can never erase failures on the
  /// other; either one quarantining triggers failover.
  [[nodiscard]] const ctrl::TrustStateMachine& delegation_trust(
      const std::string& place) const;
  [[nodiscard]] const std::vector<FleetTimelineEntry>& timeline() const {
    return timeline_;
  }
  [[nodiscard]] std::optional<netsim::SimTime> first_transition(
      const std::string& place, ctrl::TrustState state) const;
  /// Latest appraisal verdict per member, recovered from valid
  /// aggregates (flat-appraisal parity checks).
  [[nodiscard]] const std::map<std::string, bool>& last_verdicts() const {
    return last_verdicts_;
  }
  /// High-water mark of concurrent direct rounds at the root (gated at
  /// config.fanout).
  [[nodiscard]] std::size_t peak_root_inflight() const {
    return peak_root_inflight_;
  }

  using TransitionHook = std::function<void(const std::string& place,
                                            const ctrl::TrustTransition&)>;
  void on_transition(TransitionHook hook) { hook_ = std::move(hook); }

 private:
  struct PendingWave {
    std::uint64_t wave = 0;
    crypto::Nonce nonce{};
    std::string appraiser;
    std::vector<std::string> members;
  };

  void fire_wave(const std::string& region, std::uint64_t wave);
  void handle_aggregate(netsim::Network& net, const netsim::Message& msg);
  void on_wave_timeout(const std::string& region, std::uint64_t wave);
  void issue_direct_round(const std::string& place);
  void start_direct_round(const std::string& place);
  void probe_region(const std::string& region,
                    const std::vector<std::string>& members);
  void handle_regional_quarantine(const std::string& place);
  void feed(const std::string& place, ctrl::Outcome o);
  void feed_delegation(const std::string& place, ctrl::Outcome o);
  [[nodiscard]] bool is_regional(const std::string& place) const {
    return regionals_.contains(place);
  }

  core::Deployment* dep_;
  std::string host_name_;
  netsim::NodeId self_;
  FleetConfig config_;
  std::uint64_t seed_;
  netsim::NodeBehavior* inner_;
  bool attached_ = false;
  DelegationTree tree_;
  ctrl::EvidenceTransport transport_;
  WaveScheduler scheduler_;
  ctrl::QuarantineEnforcer enforcer_;
  crypto::Drbg wave_nonce_rng_;
  std::map<std::string, std::unique_ptr<RegionalNode>> regionals_;
  std::map<std::string, std::unique_ptr<ctrl::TrustStateMachine>> machines_;
  /// Per-regional delegation trust (aggregate valid/invalid/timeout).
  std::map<std::string, std::unique_ptr<ctrl::TrustStateMachine>> delegation_;
  std::map<std::string, PendingWave> pending_;
  std::map<std::string, int> failure_streak_;  // per region
  std::map<std::string, bool> last_verdicts_;
  std::vector<FleetTimelineEntry> timeline_;
  TransitionHook hook_;
  FleetStats stats_;
  std::size_t root_inflight_ = 0;
  std::size_t peak_root_inflight_ = 0;
  std::deque<std::string> direct_queue_;
};

}  // namespace pera::fleet
