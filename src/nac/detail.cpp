#include "nac/detail.h"

namespace pera::nac {

EvidenceDetail detail_from_target(const std::string& name) {
  if (name == "Hardware") return EvidenceDetail::kHardware;
  if (name == "Program") return EvidenceDetail::kProgram;
  if (name == "Tables") return EvidenceDetail::kTables;
  if (name == "State" || name == "ProgState") return EvidenceDetail::kProgState;
  if (name == "Packet") return EvidenceDetail::kPacket;
  return EvidenceDetail::kProgram;
}

std::string to_string(EvidenceDetail d) {
  switch (d) {
    case EvidenceDetail::kHardware: return "Hardware";
    case EvidenceDetail::kProgram: return "Program";
    case EvidenceDetail::kTables: return "Tables";
    case EvidenceDetail::kProgState: return "ProgState";
    case EvidenceDetail::kPacket: return "Packet";
  }
  return "?";
}

std::string describe_mask(DetailMask m) {
  std::string out;
  for (EvidenceDetail d : kAllLevels) {
    if (has_detail(m, d)) {
      if (!out.empty()) out += "+";
      out += to_string(d);
    }
  }
  return out.empty() ? "none" : out;
}

}  // namespace pera::nac
