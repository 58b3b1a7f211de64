// Serial replay of a workload's generated inputs through the public
// functions of each layer, one call per span.
//
// Some layers run only on the program's own threads (shard workers,
// appraiser workers, the server reactor) or inside one monolithic call
// (PeraSwitch::process). The traced run gets their per-layer costs by
// replaying a sample of the same inputs here, on the benchmark thread:
//
//   op ─┬─ pipeline.flow_hash      extract_flow_key + flow_hash
//       ├─ pera.update_table       (rule churn) PeraSwitch::update_table
//       ├─ dataplane.parse         PisaSwitch::parse
//       ├─ dataplane.pipeline      PisaSwitch::run_pipeline
//       ├─ pera.create_{hit,miss}  EvidenceEngine::create
//       ├─ copland.encode          copland::encode
//       ├─ dataplane.deparse       PisaSwitch::deparse
//       └─ pipeline.appraise_record
//   pipeline.fold                  fold_flow, once per flow at the end
//
// Each workload names which of these are on its path (their self times
// add up to one op). Outside the op, each round also times
// PeraSwitch::process on a twin switch and the building blocks the path
// calls inside other layers (digest, sign, verify, decode, measure):
// per-call costs, never added to a path.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "bench.h"
#include "dataplane/packet.h"
#include "dataplane/table.h"
#include "nac/header.h"
#include "pera/config.h"
#include "pipeline/epoch.h"

namespace perfbench {

struct ReplayRound {
  const pera::dataplane::RawPacket* packet = nullptr;
  pera::crypto::Nonce nonce{};
  /// Which switch (and device key) produced this round's evidence.
  std::size_t device = 0;
  /// Route added on that switch just before this packet (rule churn).
  const pera::dataplane::TableEntry* update = nullptr;
};

struct ReplaySetup {
  /// One place name and device key per switch.
  std::vector<std::string> places;
  std::vector<pera::crypto::Digest> device_keys;
  /// Appraiser-side provisioning: derived keys (root, label, count).
  pera::crypto::Digest verify_root{};
  std::string verify_label;
  std::size_t verify_keys = 1;
  pera::pipeline::ProgramFactory factory;
  pera::pera::PeraConfig config;
  /// Policy header template; each round's nonce is written into it.
  pera::nac::PolicyHeader header;
  /// Appraise each device's records as one flow (a socket session)
  /// instead of keying flows on the packet's 5-tuple.
  bool flow_per_device = false;
};

/// Replay `rounds` in order. Appends gauges fold_ns_per_record and
/// evidence_bytes; failed checks (a record that does not verify, a flow
/// that folds to not-ok) go to `out`. Returns the number of ops replayed.
std::uint64_t replay(Tracer& t, const ReplaySetup& setup,
                     const std::vector<ReplayRound>& rounds,
                     std::vector<Metric>& gauges, Outcome& out);

}  // namespace perfbench
