// Evidence detail levels — Fig. 4's vertical axis, ordered by inertia:
// hardware identity changes never, the program on control-plane pushes,
// tables on rule updates, program state on register writes, and packets
// every packet. Higher-inertia evidence caches longer (§5.2).
#pragma once

#include <cstdint>
#include <string>

namespace pera::nac {

enum class EvidenceDetail : std::uint8_t {
  kHardware = 1 << 0,
  kProgram = 1 << 1,
  kTables = 1 << 2,
  kProgState = 1 << 3,
  kPacket = 1 << 4,
};

using DetailMask = std::uint8_t;

constexpr DetailMask mask_of(EvidenceDetail d) {
  return static_cast<DetailMask>(d);
}

constexpr DetailMask operator|(EvidenceDetail a, EvidenceDetail b) {
  return static_cast<DetailMask>(static_cast<std::uint8_t>(a) |
                                 static_cast<std::uint8_t>(b));
}

constexpr DetailMask operator|(DetailMask a, EvidenceDetail b) {
  return static_cast<DetailMask>(a | static_cast<std::uint8_t>(b));
}

constexpr DetailMask operator|(EvidenceDetail a, DetailMask b) {
  return static_cast<DetailMask>(static_cast<std::uint8_t>(a) | b);
}

constexpr bool has_detail(DetailMask m, EvidenceDetail d) {
  return (m & static_cast<std::uint8_t>(d)) != 0;
}

constexpr DetailMask kAllDetail =
    static_cast<DetailMask>(0x1f);

/// Every detail level, highest inertia first.
inline constexpr EvidenceDetail kAllLevels[] = {
    EvidenceDetail::kHardware, EvidenceDetail::kProgram,
    EvidenceDetail::kTables, EvidenceDetail::kProgState,
    EvidenceDetail::kPacket};

/// Map a Copland attest() target name ("Hardware", "Program", "Tables",
/// "State", "Packet") to its detail bit; unknown names map to kProgram
/// (configuration properties ride along with the program measurement).
[[nodiscard]] EvidenceDetail detail_from_target(const std::string& name);

[[nodiscard]] std::string to_string(EvidenceDetail d);
[[nodiscard]] std::string describe_mask(DetailMask m);

}  // namespace pera::nac
