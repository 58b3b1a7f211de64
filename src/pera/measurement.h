// The measurement unit of a PERA element: turns Fig. 4's inertia levels
// into live digests of the attached switch. This models the "trustworthy
// evidence-producing hardware component" of the §3 threat model — it reads
// the true state of the switch, even if the dataplane program is rogue.
//
// Each level but Packet is measured once per epoch (§5.2: high-inertia
// evidence changes rarely). The epochs are read from live switch state —
// the switch's program-load count, the program's schema revision, and the
// table and register content revisions — so every mutation path moves
// them and no caller has to report a change. The memo is per unit, so a
// program shared by several switches gains no mutable state of its own.
#pragma once

#include <array>
#include <memory>
#include <string>
#include <vector>

#include "crypto/sha256.h"
#include "dataplane/program.h"
#include "nac/detail.h"

namespace pera::pera {

/// Immutable hardware identity (model + serial), the highest-inertia level.
struct HardwareIdentity {
  std::string model = "PERA-1000";
  std::string serial;

  [[nodiscard]] crypto::Digest digest() const {
    crypto::Sha256 h;
    h.update("pera.hardware.v1");
    h.update(model);
    h.update(serial);
    return h.finish();
  }
};

class MeasurementUnit {
 public:
  MeasurementUnit(HardwareIdentity hw, const dataplane::PisaSwitch& sw)
      : hw_(std::move(hw)), switch_(&sw) {}

  /// Measure one detail level. kPacket requires `packet_bytes` and is
  /// hashed on every call; every other level is served from a memo while
  /// its epoch is unchanged. The memo equals the reference digests
  /// (DataplaneProgram::program_digest, tables_digest) by construction.
  [[nodiscard]] crypto::Digest measure(
      nac::EvidenceDetail level,
      const crypto::Bytes* packet_bytes = nullptr) const;

  /// Human-readable claim text for a level.
  [[nodiscard]] std::string claim_text(nac::EvidenceDetail level) const;

  /// Epoch of a level: a value that changes whenever the measured value
  /// can have changed, read from live switch state. Hardware never
  /// changes. Program is (program loads << 32) + schema revision. Tables
  /// and ProgState add their content revision — the tables' summed
  /// revisions, the register file's — to the Program epoch. Within one
  /// load every counter only grows, so each sum moves on any change;
  /// lookups, hit counters and no-op register writes move none of them.
  /// Packet, which differs with every packet, has none: it reads ~0.
  [[nodiscard]] std::uint64_t epoch(nac::EvidenceDetail level) const;

  [[nodiscard]] const HardwareIdentity& hardware() const { return hw_; }

 private:
  // What epoch() returns for Packet and for a value that is no level, and
  // where each memo starts: no memoised level's epoch reaches it.
  static constexpr std::uint64_t kNoEpoch = ~std::uint64_t{0};

  struct Memo {
    std::uint64_t epoch = kNoEpoch;
    crypto::Digest value{};
  };

  [[nodiscard]] crypto::Digest measure_live(
      nac::EvidenceDetail level, const crypto::Bytes* packet_bytes) const;

  HardwareIdentity hw_;
  const dataplane::PisaSwitch* switch_;
  mutable std::array<Memo, 4> memo_{};  // Hardware, Program, Tables, State
};

/// Detail level whose digest observes a state object's *content*: table
/// entries are covered by the kTables Merkle root, register arrays by the
/// kProgState digest. (Schema changes ride kProgram, but the V6 coverage
/// check is about content mutations between rounds.)
[[nodiscard]] nac::EvidenceDetail covering_level(
    const dataplane::StateObject& obj);

/// All mutable state objects of `program` that a measurement at the detail
/// levels in `mask` observes — the detail-level → measured-object mapping
/// the V6 coverage check inverts to find TOCTOU-blind state.
[[nodiscard]] std::vector<dataplane::StateObject> objects_measured_by(
    const dataplane::DataplaneProgram& program, nac::DetailMask mask);

}  // namespace pera::pera
