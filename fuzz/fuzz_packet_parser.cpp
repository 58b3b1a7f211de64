// Fuzz harness for the programmable parser and the header codec: the
// frames an attacker puts on the wire reach make_router()'s parse graph
// before anything else in the switch. Invariants:
//   * an accepted frame deparses back to exactly its own bytes — the
//     parse -> deparse round trip dataplane/packet.h promises;
//   * a rejected frame throws std::invalid_argument (shorter than a header
//     the graph extracts) or std::runtime_error (parse-graph errors) —
//     nothing else, no crash, no out-of-bounds read.
//
// Built by -DPERA_FUZZ=ON: libFuzzer under clang, the standalone
// replay/mutation driver elsewhere. Seed corpus: tests/fixtures/fuzz
// (packet_tcp.bin is a genuine eth/ipv4/tcp frame).
#include <cstddef>
#include <cstdint>
#include <stdexcept>

#include "dataplane/builder.h"

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  // Parsed packets borrow header specs from the program: keep it alive.
  static const auto program = pera::dataplane::make_router();
  pera::dataplane::RawPacket raw;
  raw.data.assign(data, data + size);
  pera::dataplane::ParsedPacket pkt;
  try {
    pkt = program->parser().parse(raw);
  } catch (const std::invalid_argument&) {
    return 0;
  } catch (const std::runtime_error&) {
    return 0;
  }
  if (pkt.deparse() != raw.data) __builtin_trap();
  return 0;
}
