// Seeded inputs shared by the workloads: flows of minimum-size TCP
// packets, the attestation policy header, derived keys and /32 routes.
// Everything derives from the --seed argument; the program only ever sees
// the generated values.
#pragma once

#include <cstdint>
#include <random>
#include <string>
#include <vector>

#include "crypto/sha256.h"
#include "dataplane/builder.h"
#include "dataplane/table.h"
#include "nac/header.h"

namespace perfbench {

using pera::crypto::Digest;

/// A key derived from the seed and a label.
inline Digest seeded_key(std::uint64_t seed, const std::string& label) {
  pera::crypto::Sha256 h;
  h.update("perfbench." + label + "." + std::to_string(seed));
  return h.finish();
}

/// `flows` distinct 5-tuples (source address, ports) towards the routed
/// 10.0.1-8.0/24 subnets; one minimum-size frame (60 bytes before the
/// FCS) each.
inline std::vector<pera::dataplane::RawPacket> make_flow_packets(
    std::mt19937_64& rng, std::size_t flows) {
  std::vector<pera::dataplane::RawPacket> out;
  out.reserve(flows);
  for (std::size_t i = 0; i < flows; ++i) {
    pera::dataplane::PacketSpec spec;
    spec.ip_src = 0x0a800000U | static_cast<std::uint32_t>(i);  // distinct
    spec.ip_dst = 0x0a000000U |
                  static_cast<std::uint32_t>((1 + rng() % 8) << 8) |
                  static_cast<std::uint32_t>(1 + rng() % 254);
    spec.sport = static_cast<std::uint16_t>(1024 + rng() % 64000);
    spec.dport = static_cast<std::uint16_t>(rng() % 2 == 0 ? 443 : 80);
    spec.payload_len = 6;
    out.push_back(pera::dataplane::make_tcp_packet(spec));
  }
  return out;
}

/// One signed, out-of-band hop instruction for every switch, at `detail`.
inline pera::nac::PolicyHeader make_policy_header(
    pera::nac::DetailMask detail, const pera::crypto::Nonce& nonce) {
  pera::nac::HopInstruction inst;
  inst.detail = detail;
  inst.sign_evidence = true;
  inst.wildcard = true;
  inst.out_of_band = true;
  pera::nac::CompiledPolicy pol;
  pol.hops = {inst};
  pol.appraiser = "appraiser";
  pol.composition = pera::nac::CompositionMode::kChained;
  return pera::nac::make_header(pol, nonce, /*in_band=*/false);
}

/// A /32 route to a random 10/8 address, out of a random port 1-8.
inline pera::dataplane::TableEntry make_host_route(std::mt19937_64& rng) {
  pera::dataplane::TableEntry e;
  const std::uint64_t addr = 0x0a000000ULL | (rng() & 0xffffffULL);
  e.keys = {pera::dataplane::KeyMatch::lpm(addr, 32)};
  e.action = "forward";
  e.action_params = {1 + rng() % 8};
  return e;
}

}  // namespace perfbench
