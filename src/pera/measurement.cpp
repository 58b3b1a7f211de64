#include "pera/measurement.h"

#include <bit>
#include <stdexcept>

#include "obs/obs.h"

namespace pera::pera {

crypto::Digest MeasurementUnit::measure(nac::EvidenceDetail level,
                                        const crypto::Bytes* packet_bytes) const {
  PERA_OBS_COUNT("pera.measure." + nac::to_string(level));
  PERA_OBS_EVENT(obs::SpanKind::kMeasure, nac::to_string(level), 0,
                 static_cast<std::uint64_t>(level));
  const std::uint64_t now = epoch(level);
  // Packet, and any value that is no level, is measured afresh;
  // measure_live throws on the latter.
  if (now == kNoEpoch) return measure_live(level, packet_bytes);
  Memo& memo = memo_[std::countr_zero(static_cast<unsigned>(level))];
  if (memo.epoch != now) {
    memo.value = measure_live(level, packet_bytes);
    memo.epoch = now;
  }
  return memo.value;
}

crypto::Digest MeasurementUnit::measure_live(
    nac::EvidenceDetail level, const crypto::Bytes* packet_bytes) const {
  switch (level) {
    case nac::EvidenceDetail::kHardware:
      return hw_.digest();
    case nac::EvidenceDetail::kProgram:
      return switch_->program().program_digest();
    case nac::EvidenceDetail::kTables:
      return switch_->program().tables_digest();
    case nac::EvidenceDetail::kProgState:
      return switch_->registers().state_digest();
    case nac::EvidenceDetail::kPacket: {
      if (packet_bytes == nullptr) {
        throw std::invalid_argument(
            "MeasurementUnit: packet-level measurement needs packet bytes");
      }
      return crypto::sha256(
          crypto::BytesView{packet_bytes->data(), packet_bytes->size()});
    }
  }
  throw std::invalid_argument("MeasurementUnit: unknown detail level");
}

std::string MeasurementUnit::claim_text(nac::EvidenceDetail level) const {
  switch (level) {
    case nac::EvidenceDetail::kHardware:
      return "hardware " + hw_.model + "/" + hw_.serial;
    case nac::EvidenceDetail::kProgram:
      return "program " + switch_->program().name() + " " +
             switch_->program().version();
    case nac::EvidenceDetail::kTables:
      return "tables of " + switch_->program().name();
    case nac::EvidenceDetail::kProgState:
      return "register state of " + switch_->program().name();
    case nac::EvidenceDetail::kPacket:
      return "packet contents";
  }
  return "?";
}

nac::EvidenceDetail covering_level(const dataplane::StateObject& obj) {
  return obj.kind == dataplane::StateObject::Kind::kTable
             ? nac::EvidenceDetail::kTables
             : nac::EvidenceDetail::kProgState;
}

std::vector<dataplane::StateObject> objects_measured_by(
    const dataplane::DataplaneProgram& program, nac::DetailMask mask) {
  std::vector<dataplane::StateObject> out;
  for (auto& obj : program.state_objects()) {
    if (nac::has_detail(mask, covering_level(obj))) {
      out.push_back(std::move(obj));
    }
  }
  return out;
}

std::uint64_t MeasurementUnit::epoch(nac::EvidenceDetail level) const {
  const dataplane::DataplaneProgram& program = switch_->program();
  const std::uint64_t program_epoch =
      (switch_->loads() << 32) + program.schema_revision();
  switch (level) {
    case nac::EvidenceDetail::kHardware:
      return 0;  // never changes
    case nac::EvidenceDetail::kProgram:
      return program_epoch;
    case nac::EvidenceDetail::kTables:
      return program_epoch + program.tables_revision();
    case nac::EvidenceDetail::kProgState:
      return program_epoch + switch_->registers().revision();
    case nac::EvidenceDetail::kPacket:
      break;  // every packet differs: never cacheable
  }
  return kNoEpoch;
}

}  // namespace pera::pera
