// The evidence engine of Fig. 3: Create / Inspect / Compose (block E) plus
// the Sign/Verify unit (block D). Every operation returns both evidence
// and a simulated latency cost so netsim experiments can account for RA
// overhead in the packet path.
#pragma once

#include <functional>
#include <string>

#include "copland/evidence.h"
#include "crypto/signer.h"
#include "nac/header.h"
#include "pera/cache.h"
#include "pera/config.h"

namespace pera::pera {

struct EngineResult {
  copland::EvidencePtr evidence;
  crypto::Bytes encoded;  // copland::encode(evidence); empty on guard failure
  netsim::SimTime cost = 0;
  bool from_cache = false;
  bool guard_failed = false;
};

/// Boolean packet/flow test evaluated for a `T |> ...` guard.
using GuardTest = std::function<bool(const std::string& name)>;

class EvidenceEngine {
 public:
  EvidenceEngine(std::string place, crypto::Signer& signer,
                 MeasurementUnit& mu, EvidenceCache& cache, CostModel costs)
      : place_(std::move(place)),
        signer_(&signer),
        mu_(&mu),
        cache_(&cache),
        costs_(costs) {
    crypto::engine::publish_metrics();
  }

  /// Create evidence for one hop instruction (Fig. 3 E "Create").
  /// `packet_bytes` backs kPacket-level measurement; `guard` evaluates the
  /// instruction's test (nullptr = all tests pass).
  [[nodiscard]] EngineResult create(const nac::HopInstruction& inst,
                                    const crypto::Nonce& nonce,
                                    const crypto::Bytes* packet_bytes,
                                    const GuardTest* guard);

  /// Fold a fresh record into accumulated evidence (Fig. 3 E "Compose").
  [[nodiscard]] EngineResult compose(const copland::EvidencePtr& prior,
                                     const copland::EvidencePtr& fresh,
                                     nac::CompositionMode mode) const;

  /// Decode and structurally check an in-band carrier (Fig. 3 E
  /// "Inspect"). Returns the decoded evidence list cost-accounted; throws
  /// std::invalid_argument on malformed carriers.
  [[nodiscard]] std::pair<std::vector<copland::EvidencePtr>, netsim::SimTime>
  inspect(const nac::EvidenceCarrier& carrier) const;

  [[nodiscard]] const std::string& place() const { return place_; }
  [[nodiscard]] crypto::Signer& signer() { return *signer_; }

 private:
  [[nodiscard]] netsim::SimTime sign_cost() const;

  std::string place_;
  crypto::Signer* signer_;
  MeasurementUnit* mu_;
  EvidenceCache* cache_;
  CostModel costs_;
};

}  // namespace pera::pera
