#include "pera/pera_switch.h"

#include "obs/obs.h"

namespace pera::pera {

using copland::Evidence;
using copland::EvidencePtr;

namespace {

/// Attribute encoded-evidence bytes to each inertia level present in the
/// instruction's detail mask (docs/OBSERVABILITY.md: pera.wire.bytes.*).
void count_wire_bytes_per_level(nac::DetailMask detail, std::size_t bytes) {
  for (const nac::EvidenceDetail level : nac::kAllLevels) {
    if (nac::has_detail(detail, level)) {
      obs::count("pera.wire.bytes." + nac::to_string(level), bytes);
    }
  }
}

}  // namespace

PeraSwitch::PeraSwitch(std::string name,
                       std::shared_ptr<dataplane::DataplaneProgram> program,
                       crypto::Signer& signer, PeraConfig config,
                       HardwareIdentity hw)
    : name_(std::move(name)),
      switch_(std::move(program)),
      config_(config),
      mu_([&] {
        if (hw.serial.empty()) hw.serial = name_;
        return MeasurementUnit(hw, switch_);
      }()),
      cache_(config.cache_enabled),
      engine_(name_, signer, mu_, cache_, config.costs) {
  if (config_.oob_batch_size > 1) {
    batcher_.emplace(signer, config_.oob_batch_size);
  }
}

void PeraSwitch::load_program(
    std::shared_ptr<dataplane::DataplaneProgram> program) {
  switch_.load_program(std::move(program));
  // The control plane correlates this event with the appraisal failure
  // that follows when the new program's digest is not the golden one.
  PERA_OBS_COUNT("pera.epoch.program");
  PERA_OBS_EVENT(obs::SpanKind::kEpochBump, name_, 0,
                 mu_.epoch(nac::EvidenceDetail::kProgram));
}

void PeraSwitch::update_table(const std::string& table,
                              dataplane::TableEntry entry) {
  switch_.program().check_entry(table, entry);
  switch_.program().table(table)->add_entry(std::move(entry));
  PERA_OBS_COUNT("pera.epoch.tables");
  PERA_OBS_EVENT(obs::SpanKind::kEpochBump, name_, 0,
                 mu_.epoch(nac::EvidenceDetail::kTables));
}

void PeraSwitch::set_guard(const std::string& name, PacketGuard guard) {
  guards_[name] = std::move(guard);
}

bool PeraSwitch::sampler_fires(const crypto::Digest& flow_key,
                               std::uint8_t sampling_log2) {
  if (sampling_log2 == 0) return true;  // no counter: nothing would read it
  const std::uint64_t count = flow_counters_[flow_key]++;
  const std::uint64_t period = std::uint64_t{1} << sampling_log2;
  return count % period == 0;
}

PeraResult PeraSwitch::process(const dataplane::RawPacket& in,
                               const nac::PolicyHeader* header,
                               nac::EvidenceCarrier* carrier) {
  PeraResult result;

  // (A) parse + (B/C) the ordinary pipeline.
  dataplane::ParsedPacket& pkt = packet_;
  try {
    switch_.parse(in, pkt);
  } catch (const std::exception&) {
    return result;  // parse error counted by the dataplane
  }
  switch_.run_pipeline(pkt);

  if (header != nullptr) {
    const auto instructions = header->instructions_for(name_);
    if (!instructions.empty() &&
        sampler_fires(header->nonce.value, header->sampling_log2)) {
      PERA_OBS_COUNT("pera.sampler.attest");
      PERA_OBS_EVENT(obs::SpanKind::kSampleDecision, name_, 0, 1);
      // Guard tests see the parsed packet.
      const GuardTest guard = [this, &pkt](const std::string& test) {
        const auto it = guards_.find(test);
        return it == guards_.end() ? true : it->second(pkt);
      };
      for (const nac::HopInstruction* inst : instructions) {
        const bool goes_out_of_band = inst->out_of_band || !header->in_band();
        const bool batch_this = goes_out_of_band && batcher_.has_value() &&
                                inst->sign_evidence;

        // Deferred signing: create the evidence unsigned; the batcher
        // signs one Merkle root per config_.oob_batch_size items.
        std::optional<nac::HopInstruction> unsigned_inst;
        if (batch_this) {
          unsigned_inst = *inst;
          unsigned_inst->sign_evidence = false;
        }
        const nac::HopInstruction& effective =
            unsigned_inst ? *unsigned_inst : *inst;

        EngineResult ev =
            engine_.create(effective, header->nonce, &in.data, &guard);
        result.ra_latency += ev.cost;
        if (ev.guard_failed) {
          ++stats_.guard_failures;
          PERA_OBS_COUNT("pera.guard.failures");
          continue;
        }
        ++stats_.attestations;
        result.attested = true;

        const std::string collector = header->appraiser.empty()
                                          ? std::string{"Appraiser"}
                                          : header->appraiser;
        if (batch_this) {
          pending_oob_.push_back(
              PendingOob{collector, ev.evidence, header->nonce});
          // copland::digest(ev.evidence), without encoding it again.
          const auto receipts = batcher_->add(crypto::sha256(
              crypto::BytesView{ev.encoded.data(), ev.encoded.size()}));
          if (receipts) {
            // One signing operation amortized over the whole batch.
            result.ra_latency += config_.costs.sign_cost_hmac;
            PERA_OBS_OBSERVE("pera.sign.sim_ns", config_.costs.sign_cost_hmac);
            PERA_OBS_EVENT(obs::SpanKind::kSign, name_,
                           config_.costs.sign_cost_hmac, receipts->size());
            emit_batch(*receipts, result.out_of_band);
          }
          continue;
        }

        const std::size_t encoded_size = ev.encoded.size();
        if (obs::enabled()) {
          count_wire_bytes_per_level(effective.detail == 0
                                         ? nac::mask_of(
                                               nac::EvidenceDetail::kProgram)
                                         : effective.detail,
                                     encoded_size);
        }
        PERA_OBS_EVENT(obs::SpanKind::kWireEncode, name_, 0, encoded_size);
        if (goes_out_of_band) {
          result.out_of_band.push_back(OutOfBandEvidence{
              collector, std::move(ev.encoded), header->nonce});
          ++stats_.out_of_band_messages;
          PERA_OBS_COUNT("pera.oob.messages");
          PERA_OBS_COUNT("pera.oob.bytes", encoded_size);
        } else if (carrier != nullptr) {
          // In-band: compose with what earlier hops appended.
          carrier->add(name_, std::move(ev.encoded));
          result.inband_bytes_added += encoded_size + name_.size() + 8;
          stats_.inband_bytes_added += encoded_size;
          PERA_OBS_COUNT("pera.inband.bytes", encoded_size);
        }
      }
    } else if (!instructions.empty()) {
      ++stats_.skipped_by_sampling;
      PERA_OBS_COUNT("pera.sampler.skip");
      PERA_OBS_EVENT(obs::SpanKind::kSampleDecision, name_, 0, 0);
    }
  }
  PERA_OBS_OBSERVE("pera.process.sim_ns", result.ra_latency);
  stats_.ra_time_total += result.ra_latency;

  result.forwarded = switch_.deparse(pkt);
  return result;
}

std::vector<OutOfBandEvidence> PeraSwitch::flush_pending() {
  std::vector<OutOfBandEvidence> out;
  if (!batcher_.has_value() || pending_oob_.empty()) return out;
  stats_.ra_time_total += config_.costs.sign_cost_hmac;
  emit_batch(batcher_->flush(), out);
  return out;
}

void PeraSwitch::emit_batch(const std::vector<BatchedSignature>& receipts,
                            std::vector<OutOfBandEvidence>& out) {
  PERA_OBS_COUNT("pera.batch.flushes");
  PERA_OBS_COUNT("pera.batch.items", receipts.size());
  PERA_OBS_COUNT("pera.sign.count");
  out.reserve(out.size() + pending_oob_.size());
  for (std::size_t i = 0; i < pending_oob_.size(); ++i) {
    const auto& p = pending_oob_[i];
    const copland::EvidencePtr signed_ev = copland::Evidence::signature(
        name_, p.evidence,
        crypto::wrap_batched(receipts[i].root, receipts[i].proof,
                             receipts[i].root_sig));
    out.push_back(OutOfBandEvidence{p.to, copland::encode(signed_ev),
                                    p.nonce});
    ++stats_.out_of_band_messages;
    PERA_OBS_COUNT("pera.oob.messages");
    PERA_OBS_COUNT("pera.oob.bytes", out.back().evidence.size());
  }
  pending_oob_.clear();
}

EvidencePtr PeraSwitch::attest_challenge(nac::DetailMask detail,
                                         const crypto::Nonce& nonce,
                                         bool hash_before_sign) {
  nac::HopInstruction inst;
  inst.place = name_;
  inst.detail = detail;
  inst.hash_evidence = hash_before_sign;
  inst.sign_evidence = true;
  EngineResult res = engine_.create(inst, nonce, nullptr, nullptr);
  ++stats_.attestations;
  stats_.ra_time_total += res.cost;
  return res.evidence;
}

}  // namespace pera::pera
