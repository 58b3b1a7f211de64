// Node behaviours binding the RA principals to netsim nodes:
//
//   SwitchNode    — a PERA switch on the packet path (attesting element)
//   AppraiserNode — runs ra::Appraiser; appraises, certifies, stores
//   HostNode      — end host / relying party: sources flows, receives
//                   results, forwards in-band carriers for appraisal
#pragma once

#include <functional>
#include <map>
#include <memory>

#include "core/wire.h"
#include "netsim/network.h"
#include "pera/pera_switch.h"
#include "ra/roles.h"

namespace pera::core {

class SwitchNode final : public netsim::NodeBehavior {
 public:
  explicit SwitchNode(std::unique_ptr<pera::PeraSwitch> sw)
      : switch_(std::move(sw)) {}

  [[nodiscard]] pera::PeraSwitch& pera() { return *switch_; }

  netsim::TransitResult on_transit(netsim::Network& net, netsim::NodeId self,
                                   netsim::Message& msg) override;
  void on_deliver(netsim::Network& net, netsim::NodeId self,
                  netsim::Message msg) override;

 private:
  std::unique_ptr<pera::PeraSwitch> switch_;
};

class AppraiserNode final : public netsim::NodeBehavior {
 public:
  AppraiserNode(std::string name, crypto::KeyStore& keys)
      : appraiser_(std::move(name), keys) {}

  [[nodiscard]] ra::Appraiser& appraiser() { return appraiser_; }

  void on_deliver(netsim::Network& net, netsim::NodeId self,
                  netsim::Message msg) override;

  /// Count of carrier records whose appraisal failed.
  [[nodiscard]] std::uint64_t failed_appraisals() const { return failures_; }

 private:
  void appraise_and_reply(netsim::Network& net, netsim::NodeId self,
                          crypto::BytesView evidence,
                          const crypto::Nonce& nonce, netsim::NodeId reply_to,
                          bool enforce_freshness);

  ra::Appraiser appraiser_;
  std::uint64_t failures_ = 0;
};

/// What a host records about a received flow packet.
struct ReceivedPacket {
  netsim::SimTime latency = 0;
  std::size_t carrier_bytes = 0;
  std::size_t carrier_records = 0;
};

class HostNode final : public netsim::NodeBehavior {
 public:
  explicit HostNode(std::string name, std::uint64_t seed = 0x1209)
      : rp_(std::move(name), seed) {}

  [[nodiscard]] ra::RelyingParty& relying_party() { return rp_; }

  /// When set, received in-band carriers are forwarded to this appraiser
  /// node for appraisal (the RP2 role in expression (4)).
  void forward_carriers_to(netsim::NodeId appraiser) {
    carrier_sink_ = appraiser;
  }

  /// Callback invoked on every "result" certificate received.
  using ResultHook = std::function<void(const ra::Certificate&)>;
  void on_result(ResultHook hook) { result_hook_ = std::move(hook); }

  void on_deliver(netsim::Network& net, netsim::NodeId self,
                  netsim::Message msg) override;

  [[nodiscard]] const std::vector<ReceivedPacket>& received() const {
    return received_;
  }
  [[nodiscard]] const std::vector<ra::Certificate>& results() const {
    return results_;
  }

 private:
  ra::RelyingParty rp_;
  std::optional<netsim::NodeId> carrier_sink_;
  ResultHook result_hook_;
  std::vector<ReceivedPacket> received_;
  std::vector<ra::Certificate> results_;
};

}  // namespace pera::core
