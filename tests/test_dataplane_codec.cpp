// Differential tests of the header codec (pack_header, unpack_header,
// ParsedPacket::deparse) against a bit-at-a-time reference: random specs
// with 1-64-bit fields at any bit offset, random bytes and values wider
// than their fields.
#include <gtest/gtest.h>

#include <random>
#include <stdexcept>

#include "dataplane/builder.h"

namespace pera::dataplane {
namespace {

// Reference codec: moves one bit per step, MSB first. It defines the wire
// layout the production codec must reproduce bit for bit.
namespace reference {

Bytes pack(const HeaderSpec& spec, const std::vector<std::uint64_t>& values) {
  Bytes out(spec.byte_width(), 0);
  std::size_t bit_pos = 0;
  for (std::size_t i = 0; i < spec.fields.size(); ++i) {
    const unsigned bits = spec.fields[i].bits;
    for (unsigned b = 0; b < bits; ++b) {
      if (((values[i] >> (bits - 1 - b)) & 1) != 0) {
        out[(bit_pos + b) / 8] |=
            static_cast<std::uint8_t>(0x80 >> ((bit_pos + b) % 8));
      }
    }
    bit_pos += bits;
  }
  return out;
}

std::vector<std::uint64_t> unpack(const HeaderSpec& spec, BytesView data) {
  std::vector<std::uint64_t> values(spec.fields.size(), 0);
  std::size_t bit_pos = 0;
  for (std::size_t i = 0; i < spec.fields.size(); ++i) {
    std::uint64_t v = 0;
    for (unsigned b = 0; b < spec.fields[i].bits; ++b) {
      const std::uint8_t byte = data[(bit_pos + b) / 8];
      v = (v << 1) | ((byte >> (7 - ((bit_pos + b) % 8))) & 1);
    }
    values[i] = v;
    bit_pos += spec.fields[i].bits;
  }
  return values;
}

}  // namespace reference

BytesView view(const Bytes& b) { return BytesView{b.data(), b.size()}; }

// 1-12 fields of 1-64 bits each; the total need not be whole bytes.
HeaderSpec random_spec(std::mt19937_64& rng) {
  HeaderSpec spec;
  spec.name = "h";
  const std::size_t n = 1 + rng() % 12;
  for (std::size_t i = 0; i < n; ++i) {
    // Favour the edges: 1, 63 and 64 bits are where shifts go wrong.
    const unsigned pick = static_cast<unsigned>(rng() % 8);
    const unsigned bits = pick == 0   ? 1u
                          : pick == 1 ? 64u
                          : pick == 2 ? 63u
                                      : 1u + static_cast<unsigned>(rng() % 64);
    spec.fields.push_back({"f" + std::to_string(i), bits});
  }
  return spec;
}

Bytes random_bytes(std::mt19937_64& rng, std::size_t n) {
  Bytes out(n);
  for (auto& b : out) b = static_cast<std::uint8_t>(rng());
  return out;
}

// Full-width random values: every field narrower than 64 bits gets bits
// above its width that pack_header must drop.
std::vector<std::uint64_t> random_values(std::mt19937_64& rng,
                                         const HeaderSpec& spec) {
  std::vector<std::uint64_t> values(spec.fields.size());
  for (auto& v : values) v = rng();
  return values;
}

constexpr int kTrials = 2000;

TEST(DataplaneCodec, UnpackMatchesReferenceOnRandomBytes) {
  std::mt19937_64 rng(1);
  for (int t = 0; t < kTrials; ++t) {
    const HeaderSpec spec = random_spec(rng);
    const Bytes data = random_bytes(rng, spec.byte_width() + rng() % 4);
    ASSERT_EQ(unpack_header(spec, view(data)),
              reference::unpack(spec, view(data)))
        << "trial " << t;
  }
}

TEST(DataplaneCodec, PackMatchesReferenceOnOverWideValues) {
  std::mt19937_64 rng(2);
  for (int t = 0; t < kTrials; ++t) {
    const HeaderSpec spec = random_spec(rng);
    const std::vector<std::uint64_t> values = random_values(rng, spec);
    ASSERT_EQ(pack_header(spec, values), reference::pack(spec, values))
        << "trial " << t;
  }
}

TEST(DataplaneCodec, RoundTripKeepsValuesMaskedToWidth) {
  std::mt19937_64 rng(3);
  for (int t = 0; t < kTrials; ++t) {
    const HeaderSpec spec = random_spec(rng);
    std::vector<std::uint64_t> values = random_values(rng, spec);
    const Bytes packed = pack_header(spec, values);
    for (std::size_t i = 0; i < values.size(); ++i) {
      const unsigned bits = spec.fields[i].bits;
      if (bits < 64) values[i] &= (std::uint64_t{1} << bits) - 1;
    }
    ASSERT_EQ(unpack_header(spec, view(packed)), values) << "trial " << t;
  }
}

TEST(DataplaneCodec, FieldSpanningNineBytes) {
  // f1 starts 3 bits into byte 0 and ends 3 bits into byte 8.
  const HeaderSpec spec{"h", {{"f0", 3}, {"f1", 64}, {"f2", 5}}};
  const std::vector<std::uint64_t> values = {0x5, 0x8123456789abcdefULL, 0x11};
  const Bytes packed = pack_header(spec, values);
  ASSERT_EQ(packed.size(), 9u);
  EXPECT_EQ(packed, reference::pack(spec, values));
  EXPECT_EQ(packed.front(), 0xb0);  // 101 then the top 5 bits of f1: 10000
  EXPECT_EQ(packed.back(), 0xf1);   // low 3 bits of f1 (111) then 10001
  EXPECT_EQ(unpack_header(spec, view(packed)), values);
}

TEST(DataplaneCodec, ShortBufferThrowsInvalidArgument) {
  std::mt19937_64 rng(4);
  for (int t = 0; t < 200; ++t) {
    const HeaderSpec spec = random_spec(rng);
    Bytes data = random_bytes(rng, spec.byte_width());
    data.pop_back();
    EXPECT_THROW((void)unpack_header(spec, view(data)), std::invalid_argument);
  }
  EXPECT_THROW((void)unpack_header(stdhdr::ethernet(), BytesView{}),
               std::invalid_argument);
}

TEST(DataplaneCodec, FieldWiderThan64BitsThrows) {
  const HeaderSpec spec{"h", {{"f0", 8}, {"wide", 65}, {"f2", 7}}};
  const Bytes data(spec.byte_width(), 0xff);
  EXPECT_THROW((void)unpack_header(spec, view(data)), std::invalid_argument);
  EXPECT_THROW((void)pack_header(spec, {1, 2, 3}), std::invalid_argument);
}

TEST(DataplaneCodec, DeparseMatchesReferenceConcatenation) {
  std::mt19937_64 rng(5);
  for (int t = 0; t < 200; ++t) {
    std::vector<HeaderSpec> specs(1 + rng() % 5);
    for (HeaderSpec& spec : specs) spec = random_spec(rng);
    ParsedPacket pkt;
    Bytes expected;
    for (const HeaderSpec& spec : specs) {
      HeaderInstance& h = pkt.add_header(spec);
      h.values = random_values(rng, spec);
      h.valid = rng() % 4 != 0;
      if (!h.valid) continue;
      const Bytes packed = reference::pack(spec, h.values);
      expected.insert(expected.end(), packed.begin(), packed.end());
    }
    pkt.payload = random_bytes(rng, rng() % 40);
    expected.insert(expected.end(), pkt.payload.begin(), pkt.payload.end());
    ASSERT_EQ(pkt.deparse(), expected) << "trial " << t;
  }
}

TEST(DataplaneCodec, ParseMatchesReferenceAndRoundTrips) {
  const ParserProgram parser = standard_parser();
  std::mt19937_64 rng(6);
  for (int t = 0; t < 200; ++t) {
    RawPacket raw = make_tcp_packet(
        {.eth_src = rng() & 0xffffffffffffULL,
         .ip_src = static_cast<std::uint32_t>(rng()),
         .ip_dst = static_cast<std::uint32_t>(rng()),
         .ttl = static_cast<std::uint8_t>(rng()),
         .sport = static_cast<std::uint16_t>(rng()),
         .payload_len = rng() % 80});
    const ParsedPacket pkt = parser.parse(raw);
    std::size_t offset = 0;
    for (const HeaderInstance& h : pkt.headers()) {
      const BytesView rest{raw.data.data() + offset, raw.data.size() - offset};
      ASSERT_EQ(h.values, reference::unpack(*h.spec, rest)) << "trial " << t;
      offset += h.spec->byte_width();
    }
    ASSERT_EQ(pkt.deparse(), raw.data) << "trial " << t;
  }
}

TEST(DataplaneCodec, ParseOfTruncatedPacketThrowsInvalidArgument) {
  const ParserProgram parser = standard_parser();
  RawPacket raw = make_tcp_packet({.payload_len = 0});
  raw.data.pop_back();  // one byte short of the TCP header
  EXPECT_THROW((void)parser.parse(raw), std::invalid_argument);
}

}  // namespace
}  // namespace pera::dataplane
