// Fuzz harness for the socket framing layer and the handshake message
// decoders — the first bytes an unauthenticated network peer controls.
// Invariants:
//   * FrameDecoder never crashes, hangs, or reads out of bounds; it
//     either emits frames or poisons the stream.
//   * Splitting the same bytes at any point yields the same frame
//     sequence and the same poisoned/clean outcome (torn-read
//     invariance, checked differentially on every input).
//   * Quote / Hello / HelloAck / ChallengeFrame deserializers decode or
//     throw std::invalid_argument — nothing else.
//
// Built by -DPERA_FUZZ=ON: libFuzzer under clang, the standalone
// replay/mutation driver elsewhere. Seed corpus:
// tests/fixtures/fuzz/net_*.bin (genuine framed handshake bytes).
#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <vector>

#include "crypto/bytes.h"
#include "net/frame.h"
#include "net/wire.h"

namespace {

struct Decoded {
  std::vector<pera::net::Frame> frames;
  bool poisoned = false;
};

Decoded drive(const std::uint8_t* data, std::size_t size, std::size_t split) {
  pera::net::FrameDecoder dec;
  Decoded out;
  (void)dec.feed(pera::crypto::BytesView{data, split});
  (void)dec.feed(pera::crypto::BytesView{data + split, size - split});
  while (auto f = dec.next()) out.frames.push_back(std::move(*f));
  out.poisoned = dec.error();
  return out;
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  // Whole-stream decode, then the same bytes split at a data-derived
  // point: identical frames, identical poisoning.
  const Decoded whole = drive(data, size, size);
  if (size > 1) {
    const std::size_t split = 1 + data[0] % (size - 1);
    const Decoded torn = drive(data, size, split);
    if (torn.poisoned != whole.poisoned ||
        torn.frames.size() != whole.frames.size()) {
      __builtin_trap();
    }
    for (std::size_t i = 0; i < whole.frames.size(); ++i) {
      if (torn.frames[i].type != whole.frames[i].type ||
          torn.frames[i].payload != whole.frames[i].payload) {
        __builtin_trap();
      }
    }
  }

  // Frame payloads feed the message decoders on a live connection; fuzz
  // the decoders both on raw input and on every decoded payload.
  const auto poke = [](pera::crypto::BytesView bytes) {
    try {
      (void)pera::net::Quote::deserialize(bytes);
    } catch (const std::invalid_argument&) {
    }
    try {
      (void)pera::net::HelloMsg::deserialize(bytes);
    } catch (const std::invalid_argument&) {
    }
    try {
      (void)pera::net::HelloAckMsg::deserialize(bytes);
    } catch (const std::invalid_argument&) {
    }
    try {
      (void)pera::net::ChallengeFrame::deserialize(bytes);
    } catch (const std::invalid_argument&) {
    }
  };
  poke(pera::crypto::BytesView{data, size});
  for (const pera::net::Frame& f : whole.frames) {
    poke(pera::crypto::BytesView{f.payload.data(), f.payload.size()});
  }
  return 0;
}
