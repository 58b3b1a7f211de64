#include "replay.h"

#include <map>

#include "copland/evidence.h"
#include "crypto/signer.h"
#include "pera/pera_switch.h"
#include "pipeline/flow_hash.h"
#include "pipeline/reassembler.h"

namespace perfbench {

namespace pd = pera::dataplane;
namespace pp = pera::pipeline;
using pera::copland::EvidencePtr;

std::uint64_t replay(Tracer& t, const ReplaySetup& setup,
                     const std::vector<ReplayRound>& rounds,
                     std::vector<Metric>& gauges, Outcome& out) {
  // Per device: the switch whose layers are called one by one, and a twin
  // fed the same packets through PeraSwitch::process.
  struct Device {
    std::unique_ptr<pera::crypto::HmacSigner> signer;
    std::unique_ptr<pera::crypto::HmacVerifier> verifier;
    std::unique_ptr<pera::pera::PeraSwitch> sw;
    std::unique_ptr<pera::pera::PeraSwitch> twin;
  };
  std::vector<Device> devices(setup.places.size());
  for (std::size_t i = 0; i < devices.size(); ++i) {
    Device& d = devices[i];
    d.signer = std::make_unique<pera::crypto::HmacSigner>(
        setup.device_keys[i]);
    d.verifier = std::make_unique<pera::crypto::HmacVerifier>(
        setup.device_keys[i]);
    d.sw = std::make_unique<pera::pera::PeraSwitch>(
        setup.places[i], setup.factory(), *d.signer, setup.config);
    d.twin = std::make_unique<pera::pera::PeraSwitch>(
        setup.places[i], setup.factory(), *d.signer, setup.config);
  }
  const pp::VerifierSet verifiers(setup.verify_root, setup.verify_label,
                                  setup.verify_keys);
  pera::nac::PolicyHeader header = setup.header;
  const pera::nac::HopInstruction inst = header.hops.front();

  std::map<std::uint64_t, std::vector<pp::AppraisedRecord>> flows;
  std::uint64_t evidence_bytes = 0;
  std::uint64_t ops = 0;
  for (const ReplayRound& r : rounds) {
    Device& d = devices[r.device];
    const pd::RawPacket& raw = *r.packet;
    header.nonce = r.nonce;
    const std::uint64_t op = ops++;

    EvidencePtr evidence;
    pera::crypto::Bytes encoded;
    std::uint64_t flow = 0;
    {
      const Tracer::Scope op_span(t, "op", op);
      const std::uint32_t parent = op_span.id();
      if (r.update != nullptr) {
        const Tracer::Scope s(t, "pera.update_table", op, parent);
        d.sw->update_table("route", *r.update);
      }
      {
        const Tracer::Scope s(t, "pipeline.flow_hash", op, parent);
        flow = pp::flow_hash(pp::extract_flow_key(raw));
      }
      pd::ParsedPacket pkt;
      {
        const Tracer::Scope s(t, "dataplane.parse", op, parent);
        pkt = d.sw->dataplane().parse(raw);
      }
      {
        const Tracer::Scope s(t, "dataplane.pipeline", op, parent);
        d.sw->dataplane().run_pipeline(pkt);
      }
      const std::int64_t c0 = now_ns();
      pera::pera::EngineResult res =
          d.sw->engine().create(inst, header.nonce, &raw.data, nullptr);
      t.record(res.from_cache ? "pera.create_hit" : "pera.create_miss", op,
               parent, c0, now_ns());
      evidence = std::move(res.evidence);
      {
        const Tracer::Scope s(t, "copland.encode", op, parent);
        encoded = pera::copland::encode(evidence);
      }
      {
        const Tracer::Scope s(t, "dataplane.deparse", op, parent);
        (void)d.sw->dataplane().deparse(pkt);
      }
      pp::EvidenceItem item;
      item.flow = setup.flow_per_device ? r.device : flow;
      item.seq = op;
      item.evidence = encoded;
      item.nonce = r.nonce;
      pp::AppraisedRecord rec;
      {
        const Tracer::Scope s(t, "pipeline.appraise_record", op, parent);
        rec = pp::appraise_record(item, verifiers);
      }
      if (!rec.decoded || !rec.sig_ok) {
        out.fail("replayed evidence does not verify");
        ++out.failed;
      }
      flows[item.flow].push_back(std::move(rec));
    }
    evidence_bytes += encoded.size();

    // Per-call costs of what the path does inside other layers.
    if (r.update != nullptr) d.twin->update_table("route", *r.update);
    {
      const Tracer::Scope s(t, "pera.process", op);
      (void)d.twin->process(raw, &header, nullptr);
    }
    const EvidencePtr content =
        evidence->child != nullptr ? evidence->child : evidence;
    pera::crypto::Digest digest{};
    {
      const Tracer::Scope s(t, "copland.digest", op);
      digest = pera::copland::digest(content);
    }
    pera::crypto::Signature sig;
    {
      const Tracer::Scope s(t, "crypto.sign", op);
      sig = d.signer->sign(digest);
    }
    bool verified = false;
    {
      const Tracer::Scope s(t, "crypto.verify", op);
      verified = d.verifier->verify(digest, sig);
    }
    if (!verified) out.fail("replayed signature does not verify");
    {
      const Tracer::Scope s(t, "copland.decode", op);
      (void)pera::copland::decode(
          pera::crypto::BytesView{encoded.data(), encoded.size()});
    }
    {
      const Tracer::Scope s(t, "pera.measure.program", op);
      (void)d.sw->measurement().measure(pera::nac::EvidenceDetail::kProgram);
    }
    {
      const Tracer::Scope s(t, "pera.measure.tables", op);
      (void)d.sw->measurement().measure(pera::nac::EvidenceDetail::kTables);
    }
  }

  std::int64_t fold_ns = 0;
  std::uint64_t folded = 0;
  for (auto& [flow, records] : flows) {
    const std::int64_t f0 = now_ns();
    const pp::FlowVerdict v =
        pp::fold_flow(flow, records, pera::nac::CompositionMode::kChained);
    const std::int64_t f1 = now_ns();
    t.record("pipeline.fold", flow, Tracer::kNone, f0, f1);
    fold_ns += f1 - f0;
    folded += records.size();
    if (!v.ok) out.fail("replayed flow does not fold to ok");
  }
  gauges.push_back(Metric{
      "fold_ns_per_record",
      folded == 0 ? 0.0
                  : static_cast<double>(fold_ns) / static_cast<double>(folded),
      "ns"});
  gauges.push_back(Metric{
      "evidence_bytes",
      ops == 0 ? 0.0
               : static_cast<double>(evidence_bytes) / static_cast<double>(ops),
      "bytes"});
  return ops;
}

}  // namespace perfbench
