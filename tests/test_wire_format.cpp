// Wire-format stability: the bytes every encoder emits and every
// measurement digest are part of the protocol, so they must not drift.
// Each single-message fixture under tests/fixtures/fuzz decodes and
// re-serializes to exactly the bytes on disk; messages without a fixture,
// and the program / table / register measurement digests, are pinned as
// hex values.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>

#include "copland/evidence.h"
#include "core/wire.h"
#include "crypto/keystore.h"
#include "crypto/merkle.h"
#include "dataplane/builder.h"
#include "fleet/aggregate.h"
#include "nac/header.h"
#include "net/frame.h"
#include "net/wire.h"
#include "ra/certificate.h"
#include "ra/endorsement.h"

namespace pera {
namespace {

using crypto::Bytes;
using crypto::BytesView;

Bytes fixture(const std::string& name) {
  const std::filesystem::path path =
      std::filesystem::path(PERA_FIXTURE_DIR) / "fuzz" / name;
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << "missing fixture " << path;
  return Bytes(std::istreambuf_iterator<char>(in),
               std::istreambuf_iterator<char>());
}

BytesView view(const Bytes& b) { return BytesView{b.data(), b.size()}; }

std::string hex(const Bytes& b) { return crypto::to_hex(view(b)); }

// Decode with T::deserialize, re-serialize, and compare with the input.
template <typename T>
void expect_round_trip(const std::string& name) {
  const Bytes bytes = fixture(name);
  ASSERT_FALSE(bytes.empty()) << name;
  EXPECT_EQ(hex(T::deserialize(view(bytes)).serialize()), hex(bytes)) << name;
}

// A framed fixture: one frame of `type` whose payload is a T.
template <typename T>
void expect_frame_round_trip(const std::string& name, net::FrameType type) {
  const Bytes bytes = fixture(name);
  net::FrameDecoder dec;
  ASSERT_TRUE(dec.feed(view(bytes))) << name;
  const auto frame = dec.next();
  ASSERT_TRUE(frame.has_value()) << name;
  EXPECT_FALSE(dec.next().has_value()) << name;
  ASSERT_EQ(frame->type, type) << name;
  const Bytes payload = T::deserialize(view(frame->payload)).serialize();
  EXPECT_EQ(hex(net::encode_frame(type, view(payload))), hex(bytes)) << name;
}

TEST(WireFormat, FixturesRoundTripByteForByte) {
  expect_round_trip<fleet::Aggregate>("aggregate.bin");
  expect_round_trip<ra::Certificate>("certificate.bin");
  expect_round_trip<core::Challenge>("challenge.bin");
  expect_round_trip<core::EvidenceMsg>("evidence_msg.bin");
  expect_round_trip<core::NonceMsg>("nonce_msg.bin");
  expect_round_trip<fleet::WaveCommand>("wave_cmd.bin");
  const Bytes ev = fixture("evidence.bin");
  EXPECT_EQ(hex(copland::encode(copland::decode(view(ev)))), hex(ev));
  expect_frame_round_trip<net::HelloMsg>("net_hello.bin",
                                         net::FrameType::kHello);
  expect_frame_round_trip<net::HelloAckMsg>("net_hello_ack.bin",
                                            net::FrameType::kHelloAck);
  expect_frame_round_trip<net::ChallengeFrame>("net_challenge_frame.bin",
                                               net::FrameType::kChallenge);
}

// --- pinned encodings for messages without a fixture --------------------
// Each encoding is pinned as hex (or, for long ones, its size and SHA-256);
// decoding the pinned bytes must reproduce them too.

TEST(WireFormat, SignatureBytesArePinned) {
  crypto::KeyStore keys(18);
  const Bytes b = keys.provision_hmac("x").sign(crypto::sha256("m")).serialize();
  EXPECT_EQ(hex(b),
            "0150d34a083cdc142a967041ea3df8d2663d2573ae10f75f990db7bb88fcdcac"
            "2d000000208bd90f946ed54e7373edece96446f8b3c30607f9ffda6321f1613c"
            "d23a0c73db");
  EXPECT_EQ(crypto::Signature::deserialize(view(b)).serialize(), b);
}

TEST(WireFormat, MerkleProofBytesArePinned) {
  std::vector<crypto::Digest> leaves;
  for (int i = 0; i < 9; ++i) leaves.push_back(crypto::sha256(std::to_string(i)));
  const Bytes b = crypto::MerkleTree(leaves).prove(4).serialize();
  EXPECT_EQ(hex(b),
            "000000000000000400000004ef2d127de37b942baad06145e54b0c619a1f2232"
            "7b2ebbcfbec78f5564afe39d134843af7fc8f29950b1e1dfb7c49752e0f7b711"
            "b458ee9ae3c5ca220166d688c478fead0c89b79540638f844c8819d9a4281763"
            "af9272c7f3968776b60523452c624232cdd221771294dfbb310aca000a0df6ac"
            "8b66b696d90ef06fdefb64a3");
  EXPECT_EQ(crypto::MerkleProof::deserialize(view(b)).serialize(), b);
}

TEST(WireFormat, XmssSignatureBytesArePinned) {
  crypto::XmssKeyPair kp(crypto::sha256("xmss"), 2);
  const Bytes b = kp.sign(crypto::sha256("m")).serialize();
  // 2.2 KB of WOTS chains: pin the size and the SHA-256 of the bytes.
  EXPECT_EQ(b.size(), 2236u);
  EXPECT_EQ(crypto::sha256(view(b)).hex(),
            "7c7c91a6058c56723638543134bd0647b588270f957edde37d670232c8ebf0da");
  EXPECT_EQ(crypto::XmssSignature::deserialize(view(b)).serialize(), b);
}

TEST(WireFormat, EndorsementBytesArePinned) {
  crypto::KeyStore keys(16);
  const Bytes b = ra::Endorsement::make("vendor", "s1", "Program", "v5",
                                        crypto::sha256("img"),
                                        keys.provision_hmac("vendor"))
                      .serialize();
  EXPECT_EQ(hex(b),
            "0000000676656e646f720000000273310000000750726f6772616d0000000276"
            "35b29814cf5792e684cd75d6a7fce7a67a11887e312f87ca2ac2496d81f365ff"
            "720000004501d9ad26358c0a12230805aba2b535a6e32a1bd6944b3963c6e066"
            "4520f588bd6f00000020ba63eb10ee41bb0dd2cce47caee2bac9aab4064cd19a"
            "e577dcfade5a8084e057");
  EXPECT_EQ(ra::Endorsement::deserialize(view(b)).serialize(), b);
}

nac::PolicyHeader sample_header() {
  nac::CompiledPolicy pol;
  pol.policy_id = crypto::sha256("p");
  nac::HopInstruction h;
  h.wildcard = true;
  h.guard = "K";
  h.detail = nac::kAllDetail;
  h.sign_evidence = true;
  h.custom_targets = {"x", "y"};
  pol.hops = {h};
  pol.appraiser = "Appraiser";
  return nac::make_header(pol, crypto::Nonce{crypto::sha256("n")}, true, 3);
}

nac::EvidenceCarrier sample_carrier() {
  nac::EvidenceCarrier c;
  c.add("s1", Bytes{1, 2, 3, 4, 5});
  c.add("s2", Bytes(40, 0xcd));
  return c;
}

TEST(WireFormat, PolicyHeaderBytesArePinned) {
  const Bytes b = sample_header().serialize();
  EXPECT_EQ(hex(b),
            "52410103031b16b1df538ba12dc3f97edbb85caa7050d46c148134290feba80f"
            "8236c83db9148de9c5a7a44d19e56cd9ae1a554bf67847afb0c58f6e12fa29ac"
            "7ddfca9940000000094170707261697365720000000100000000000000014b05"
            "1f0000000200000001780000000179");
  EXPECT_EQ(nac::PolicyHeader::deserialize(view(b)).serialize(), b);
}

TEST(WireFormat, EvidenceCarrierBytesArePinned) {
  const Bytes b = sample_carrier().serialize();
  EXPECT_EQ(hex(b),
            "0000000200000002733100000005010203040500000002733200000028cdcdcd"
            "cdcdcdcdcdcdcdcdcdcdcdcdcdcdcdcdcdcdcdcdcdcdcdcdcdcdcdcdcdcdcdcd"
            "cdcdcdcdcd");
  EXPECT_EQ(nac::EvidenceCarrier::deserialize(view(b)).serialize(), b);
}

TEST(WireFormat, FlowBundleBytesArePinned) {
  core::FlowBundle bundle;
  bundle.policy = sample_header();
  bundle.carrier = sample_carrier();
  bundle.raw = dataplane::make_tcp_packet({});
  netsim::Message msg;
  bundle.to_message(msg);
  EXPECT_EQ(crypto::sha256(view(msg.headers)).hex(),
            "8d276dc326d8975e44a053fbc3ed372859ca8a40a8fac8e8046eb621e3ea7626");
  EXPECT_EQ(crypto::sha256(view(msg.payload)).hex(),
            "0dc399a0b2a7c5059672f72249e6efdd3a573fde87e640e51893b4593167ac0c");
  netsim::Message again;
  core::FlowBundle::from_message(msg).to_message(again);
  EXPECT_EQ(again.headers, msg.headers);
  EXPECT_EQ(again.payload, msg.payload);
}

// The length-prefixed measurement encodings (parser, actions, table
// schemas and entries, register schemas) feed these digests.
TEST(WireFormat, MeasurementDigestsArePinned) {
  const auto fw = dataplane::make_firewall();
  EXPECT_EQ(fw->program_digest().hex(),
            "58fe4bee372b997c57b888427f3c8cac0b517d73b24202d96b0da4a5477a9132");
  EXPECT_EQ(fw->tables_digest().hex(),
            "39bc1d67b796eac7ec5b2d4a95929df80dd55c52af2c4506e1461c0b630339cf");
  const dataplane::PisaSwitch sw(dataplane::make_monitor());
  EXPECT_EQ(sw.registers().state_digest().hex(),
            "c5ac4fa7eabc6a8352e291f53f3fe38624f672abaf69eb4208baf3589cffb7a7");
}

}  // namespace
}  // namespace pera
