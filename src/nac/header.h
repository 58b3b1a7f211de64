// Wire formats for §5.2: "The policy will be compiled by the Relying Party
// and serialized into an options header in the transport layer, to be
// evaluated along the path of traffic that it is sending out."
//
// PolicyHeader  — the compiled policy, prepended to flow traffic.
// EvidenceCarrier — accumulated in-band evidence records riding behind the
//                   policy header (Fig. 2 "In-band Evidence").
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "crypto/bytes.h"
#include "crypto/nonce.h"
#include "nac/compiler.h"

namespace pera::nac {

/// Header flags.
enum PolicyFlags : std::uint8_t {
  kFlagInBand = 1 << 0,    // evidence rides with the packet
  kFlagChained = 1 << 1,   // chained composition (else pointwise)
};

/// The options header carrying a compiled policy.
struct PolicyHeader {
  static constexpr std::uint16_t kMagic = 0x5241;  // "RA"
  static constexpr std::uint8_t kVersion = 1;

  std::uint8_t flags = 0;
  std::uint8_t sampling_log2 = 0;  // attest 1 in 2^k packets of the flow
  crypto::Nonce nonce{};
  crypto::Digest policy_id{};
  std::string appraiser;
  std::vector<HopInstruction> hops;

  [[nodiscard]] bool in_band() const { return (flags & kFlagInBand) != 0; }
  [[nodiscard]] bool chained() const { return (flags & kFlagChained) != 0; }

  [[nodiscard]] crypto::Bytes serialize() const;
  /// Throws std::invalid_argument on malformed input.
  [[nodiscard]] static PolicyHeader deserialize(crypto::BytesView data);

  [[nodiscard]] std::size_t wire_size() const { return serialize().size(); }

  /// Instructions applying to `place`: its pinned instruction if any,
  /// otherwise the wildcard instructions.
  [[nodiscard]] std::vector<const HopInstruction*> instructions_for(
      const std::string& place) const;
};

/// Build a header from a compiled policy.
[[nodiscard]] PolicyHeader make_header(const CompiledPolicy& policy,
                                       const crypto::Nonce& nonce,
                                       bool in_band,
                                       std::uint8_t sampling_log2 = 0);

/// In-band evidence records appended hop by hop.
struct EvidenceRecord {
  std::string place;
  crypto::Bytes evidence;  // copland::encode() of the hop's evidence
};

struct EvidenceCarrier {
  std::vector<EvidenceRecord> records;

  void add(std::string place, crypto::Bytes evidence);

  [[nodiscard]] crypto::Bytes serialize() const;
  /// Throws std::invalid_argument on malformed input.
  [[nodiscard]] static EvidenceCarrier deserialize(crypto::BytesView data);
  [[nodiscard]] std::size_t wire_size() const;
};

}  // namespace pera::nac
