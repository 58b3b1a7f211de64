#include "core/nodes.h"

namespace pera::core {

using netsim::Message;
using netsim::Network;
using netsim::NodeId;
using netsim::TransitResult;

TransitResult SwitchNode::on_transit(Network& net, NodeId self, Message& msg) {
  if (msg.type != "data") return {};  // control traffic passes untouched

  FlowBundle bundle = FlowBundle::from_message(msg);
  const nac::PolicyHeader* hdr =
      bundle.policy ? &*bundle.policy : nullptr;
  pera::PeraResult res =
      switch_->process(bundle.raw, hdr, &bundle.carrier);

  // Out-of-band evidence leaves toward the appraiser immediately.
  for (const auto& oob : res.out_of_band) {
    const auto appraiser_id = net.topology().find(oob.to);
    if (!appraiser_id) continue;
    Message ev;
    ev.src = self;
    ev.dst = *appraiser_id;
    ev.reply_to = msg.reply_to != netsim::kNoNode ? msg.reply_to : msg.src;
    ev.type = "evidence";
    ev.flow_id = msg.flow_id;
    ev.payload = EvidenceMsg{oob.nonce, oob.evidence}.serialize();
    net.send(std::move(ev));
  }

  if (!res.forwarded) return TransitResult::dropped();
  bundle.raw = *res.forwarded;
  bundle.to_message(msg);
  return TransitResult{true, res.ra_latency};
}

void SwitchNode::on_deliver(Network& net, NodeId self, Message msg) {
  if (msg.type != "challenge") return;
  const Challenge ch = Challenge::deserialize(
      crypto::BytesView{msg.payload.data(), msg.payload.size()});

  const copland::EvidencePtr evidence = switch_->attest_challenge(
      ch.detail, ch.nonce, ch.hash_before_sign);

  // (3) out-of-band: evidence -> appraiser, result returns to the RP.
  // (4) in-band variant: evidence -> RP2 (the challenge's reply_to), which
  //     forwards to the appraiser itself.
  NodeId target;
  if (ch.in_band_reply) {
    target = msg.reply_to != netsim::kNoNode ? msg.reply_to : msg.src;
  } else {
    const auto id = net.topology().find(ch.appraiser);
    if (!id) return;
    target = *id;
  }
  Message ev;
  ev.src = self;
  ev.dst = target;
  ev.reply_to = msg.reply_to != netsim::kNoNode ? msg.reply_to : msg.src;
  ev.type = ch.in_band_reply ? "evidence-to-rp" : "evidence";
  ev.payload = EvidenceMsg{ch.nonce, copland::encode(evidence)}.serialize();
  net.send(std::move(ev));
}

void AppraiserNode::appraise_and_reply(Network& net, NodeId self,
                                       crypto::BytesView evidence,
                                       const crypto::Nonce& nonce,
                                       NodeId reply_to,
                                       bool enforce_freshness) {
  const ra::AttestationResult res = appraiser_.appraise(
      evidence, nonce, /*certify=*/true, net.now(), enforce_freshness);
  if (!res.ok) ++failures_;
  if (res.certificate && reply_to != netsim::kNoNode) {
    Message out;
    out.src = self;
    out.dst = reply_to;
    out.type = "result";
    out.payload = res.certificate->serialize();
    net.send(std::move(out));
  }
}

void AppraiserNode::on_deliver(Network& net, NodeId self, Message msg) {
  if (msg.type == "evidence") {
    const EvidenceMsg em = EvidenceMsg::deserialize(msg.payload);
    // Per-flow evidence reuses one nonce across packets; the flow_id tag
    // distinguishes flow evidence (no per-message freshness) from one-shot
    // challenge responses (strict freshness).
    appraise_and_reply(net, self, em.evidence, em.nonce, msg.reply_to,
                       /*enforce_freshness=*/msg.flow_id == 0);
    return;
  }
  if (msg.type == "carrier") {
    // In-band evidence: appraise the Evidence::extend fold of the records,
    // seq(…seq(r₁, r₂)…, rₙ), encoded as n−1 seq tags then r₁ … rₙ.
    const EvidenceMsg em = EvidenceMsg::deserialize(msg.payload);
    const nac::EvidenceCarrier carrier =
        nac::EvidenceCarrier::deserialize(em.evidence);
    crypto::Bytes composite(
        carrier.records.empty() ? 0 : carrier.records.size() - 1,
        static_cast<std::uint8_t>(copland::EvidenceKind::kSeq));
    for (const auto& rec : carrier.records) {
      crypto::append(composite, rec.evidence);
    }
    appraise_and_reply(net, self, composite, em.nonce, msg.reply_to,
                       /*enforce_freshness=*/false);
    return;
  }
  if (msg.type == "retrieve") {
    const NonceMsg nm = NonceMsg::deserialize(
        crypto::BytesView{msg.payload.data(), msg.payload.size()});
    const auto cert = appraiser_.retrieve(nm.nonce);
    if (!cert) return;
    Message out;
    out.src = self;
    out.dst = msg.reply_to != netsim::kNoNode ? msg.reply_to : msg.src;
    out.type = "result";
    out.payload = cert->serialize();
    net.send(std::move(out));
    return;
  }
}

void HostNode::on_deliver(Network& net, NodeId self, Message msg) {
  if (msg.type == "data") {
    const FlowBundle bundle = FlowBundle::from_message(msg);
    ReceivedPacket rec;
    rec.latency = net.now() - msg.sent_at;
    rec.carrier_bytes =
        bundle.carrier.records.empty() ? 0 : bundle.carrier.wire_size();
    rec.carrier_records = bundle.carrier.records.size();
    received_.push_back(rec);

    if (carrier_sink_ && !bundle.carrier.records.empty()) {
      Message fwd;
      fwd.src = self;
      fwd.dst = *carrier_sink_;
      fwd.reply_to = self;
      fwd.type = "carrier";
      EvidenceMsg em;
      if (bundle.policy) em.nonce = bundle.policy->nonce;
      em.evidence = bundle.carrier.serialize();
      fwd.payload = em.serialize();
      net.send(std::move(fwd));
    }
    return;
  }
  if (msg.type == "evidence-to-rp") {
    // Expression (4): we are RP2; relay the evidence to the appraiser.
    if (!carrier_sink_) return;
    Message fwd;
    fwd.src = self;
    fwd.dst = *carrier_sink_;
    fwd.reply_to = self;
    fwd.type = "evidence";
    fwd.payload = msg.payload;
    net.send(std::move(fwd));
    return;
  }
  if (msg.type == "result") {
    const ra::Certificate cert = ra::Certificate::deserialize(
        crypto::BytesView{msg.payload.data(), msg.payload.size()});
    results_.push_back(cert);
    if (result_hook_) result_hook_(cert);
    return;
  }
}

}  // namespace pera::core
