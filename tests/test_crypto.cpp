// Unit tests for the crypto substrate: SHA-256 / HMAC known-answer tests,
// DRBG determinism, WOTS and XMSS signature properties, Merkle proofs,
// signer/verifier interfaces, key store and nonce registry.
#include <gtest/gtest.h>

#include "crypto/drbg.h"
#include "crypto/hmac.h"
#include "crypto/keystore.h"
#include "crypto/merkle.h"
#include "crypto/nonce.h"
#include "crypto/sha256.h"
#include "crypto/signer.h"
#include "crypto/wots.h"

namespace pera::crypto {
namespace {

// --- bytes -------------------------------------------------------------------

TEST(Bytes, HexRoundTrip) {
  const Bytes data = {0x00, 0x01, 0xab, 0xff, 0x7f};
  EXPECT_EQ(to_hex(BytesView{data.data(), data.size()}), "0001abff7f");
  EXPECT_EQ(from_hex("0001abff7f"), data);
  EXPECT_EQ(from_hex("0001ABFF7F"), data);
}

TEST(Bytes, FromHexRejectsOddLength) {
  EXPECT_THROW((void)from_hex("abc"), std::invalid_argument);
}

TEST(Bytes, FromHexRejectsNonHex) {
  EXPECT_THROW((void)from_hex("zz"), std::invalid_argument);
}

TEST(Bytes, U32RoundTrip) {
  Bytes b;
  append_u32(b, 0xdeadbeef);
  ASSERT_EQ(b.size(), 4u);
  ByteReader r(BytesView{b.data(), b.size()});
  EXPECT_EQ(r.u32(), 0xdeadbeefu);
  r.finish();
}

TEST(Bytes, U64RoundTrip) {
  Bytes b;
  append_u64(b, 0x0123456789abcdefULL);
  ByteReader r(BytesView{b.data(), b.size()});
  EXPECT_EQ(r.u64(), 0x0123456789abcdefULL);
  r.finish();
}

TEST(Bytes, ReadPastEndThrows) {
  Bytes b = {1, 2, 3};
  ByteReader r(BytesView{b.data(), b.size()});
  EXPECT_THROW((void)r.u32(), std::invalid_argument);
  EXPECT_EQ(r.remaining(), 3u);  // a failed read consumes nothing
  EXPECT_THROW((void)r.digest(), std::invalid_argument);
  EXPECT_THROW((void)r.bytes(4), std::invalid_argument);
}

TEST(ByteReader, StrAndBlobRoundTrip) {
  Bytes b;
  append_str(b, "place");
  const Bytes blob = {9, 8, 7};
  append_blob(b, BytesView{blob.data(), blob.size()});
  append_str(b, "");
  b.push_back(0x42);
  ByteReader r(BytesView{b.data(), b.size()});
  EXPECT_EQ(r.str(), "place");
  const BytesView got = r.blob();
  EXPECT_EQ(Bytes(got.begin(), got.end()), blob);
  EXPECT_EQ(r.str(), "");
  EXPECT_EQ(r.u8(), 0x42);
  r.finish();
}

TEST(ByteReader, LengthPrefixBeyondPayloadThrows) {
  Bytes b;
  append_u32(b, 5);
  b.push_back('a');  // 1 of the 5 promised bytes
  ByteReader r(BytesView{b.data(), b.size()});
  EXPECT_THROW((void)r.str(), std::invalid_argument);
}

TEST(ByteReader, CapsRejectLongStringsAndLargeCounts) {
  Bytes b;
  append_str(b, "abcdef");
  EXPECT_THROW((void)ByteReader(BytesView{b.data(), b.size()}).str(5),
               std::invalid_argument);
  EXPECT_EQ(ByteReader(BytesView{b.data(), b.size()}).str(6), "abcdef");
  EXPECT_THROW((void)ByteReader(BytesView{b.data(), b.size()}).blob(5),
               std::invalid_argument);

  Bytes c;
  append_u32(c, 3);
  EXPECT_THROW((void)ByteReader(BytesView{c.data(), c.size()}).count(0, 2),
               std::invalid_argument);
  EXPECT_EQ(ByteReader(BytesView{c.data(), c.size()}).count(0, 3), 3u);
}

TEST(ByteReader, CountThePayloadCannotHoldThrows) {
  Bytes b;
  append_u32(b, 3);
  b.resize(b.size() + 8);  // room for two 4-byte items, not three
  EXPECT_THROW((void)ByteReader(BytesView{b.data(), b.size()}).count(4),
               std::invalid_argument);
  ByteReader r(BytesView{b.data(), b.size()});
  EXPECT_EQ(r.count(2), 3u);
  // A huge count on a tiny payload is refused before anything is reserved.
  Bytes huge;
  append_u32(huge, 0xffffffffu);
  EXPECT_THROW((void)ByteReader(BytesView{huge.data(), huge.size()}).count(1),
               std::invalid_argument);
}

TEST(ByteReader, FinishRejectsTrailingBytes) {
  const Bytes b = {0, 0, 0, 1, 0xff};
  ByteReader r(BytesView{b.data(), b.size()});
  EXPECT_EQ(r.u32(), 1u);
  EXPECT_THROW(r.finish(), std::invalid_argument);
  EXPECT_EQ(r.u8(), 0xff);
  r.finish();
}

TEST(ByteReader, ErrorNamesTheMessage) {
  const Bytes b = {1};
  try {
    (void)ByteReader(BytesView{b.data(), b.size()}, "Quote").u32();
    FAIL() << "no throw";
  } catch (const std::invalid_argument& e) {
    EXPECT_EQ(std::string(e.what()), "Quote: truncated u32");
  }
}

TEST(Bytes, CtEqual) {
  const Bytes a = {1, 2, 3};
  const Bytes b = {1, 2, 3};
  const Bytes c = {1, 2, 4};
  EXPECT_TRUE(ct_equal(BytesView{a.data(), a.size()},
                       BytesView{b.data(), b.size()}));
  EXPECT_FALSE(ct_equal(BytesView{a.data(), a.size()},
                        BytesView{c.data(), c.size()}));
  EXPECT_FALSE(ct_equal(BytesView{a.data(), 2}, BytesView{b.data(), 3}));
}

// --- SHA-256 (FIPS 180-4 known answers) ---------------------------------------

TEST(Sha256, EmptyString) {
  EXPECT_EQ(sha256("").hex(),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
}

TEST(Sha256, Abc) {
  EXPECT_EQ(sha256("abc").hex(),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
}

TEST(Sha256, TwoBlockMessage) {
  EXPECT_EQ(sha256("abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq")
                .hex(),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
}

TEST(Sha256, MillionAs) {
  Sha256 h;
  const std::string chunk(1000, 'a');
  for (int i = 0; i < 1000; ++i) h.update(chunk);
  EXPECT_EQ(h.finish().hex(),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

TEST(Sha256, StreamingMatchesOneShot) {
  const std::string msg =
      "The quick brown fox jumps over the lazy dog, repeatedly and often.";
  for (std::size_t split = 0; split <= msg.size(); split += 7) {
    Sha256 h;
    h.update(msg.substr(0, split));
    h.update(msg.substr(split));
    EXPECT_EQ(h.finish(), sha256(msg)) << "split at " << split;
  }
}

TEST(Sha256, ExactBlockBoundaries) {
  for (std::size_t len : {55u, 56u, 63u, 64u, 65u, 119u, 120u, 128u}) {
    const std::string msg(len, 'x');
    Sha256 h;
    for (char c : msg) h.update(std::string(1, c));
    EXPECT_EQ(h.finish(), sha256(msg)) << "len " << len;
  }
}

TEST(Sha256, PairCombinerDiffersFromConcat) {
  const Digest a = sha256("a");
  const Digest b = sha256("b");
  EXPECT_NE(sha256_pair(a, b), sha256_pair(b, a));
}

TEST(Sha256, DigestIntoMatchesStreaming) {
  // The one-shot fast path must be byte-identical to the streaming
  // context at every padding boundary, including the empty input.
  for (std::size_t len :
       {0u, 1u, 31u, 55u, 56u, 57u, 63u, 64u, 65u, 127u, 128u, 1000u}) {
    Bytes data(len);
    for (std::size_t i = 0; i < len; ++i) {
      data[i] = static_cast<std::uint8_t>(i * 31 + 7);
    }
    const BytesView view{data.data(), data.size()};
    Digest fast;
    Sha256::digest_into(view, fast);
    EXPECT_EQ(fast, sha256(view)) << "len " << len;
  }
}

TEST(Sha256, PairCombinerMatchesStreamingPath) {
  const Digest a = sha256("left");
  const Digest b = sha256("right");
  Sha256 h;
  h.update(a).update(b);
  EXPECT_EQ(sha256_pair(a, b), h.finish());
}

// --- HMAC (RFC 4231 test cases) -----------------------------------------------

TEST(Hmac, Rfc4231Case1) {
  const Bytes key(20, 0x0b);
  const Digest mac =
      hmac_sha256(BytesView{key.data(), key.size()}, as_bytes("Hi There"));
  EXPECT_EQ(mac.hex(),
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7");
}

TEST(Hmac, Rfc4231Case2) {
  const Digest mac = hmac_sha256(
      as_bytes("Jefe"), as_bytes("what do ya want for nothing?"));
  EXPECT_EQ(mac.hex(),
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843");
}

TEST(Hmac, Rfc4231Case3) {
  const Bytes key(20, 0xaa);
  const Bytes data(50, 0xdd);
  const Digest mac = hmac_sha256(BytesView{key.data(), key.size()},
                                 BytesView{data.data(), data.size()});
  EXPECT_EQ(mac.hex(),
            "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe");
}

TEST(Hmac, LongKeyIsHashed) {
  // RFC 4231 case 6: 131-byte key.
  const Bytes key(131, 0xaa);
  const Digest mac = hmac_sha256(
      BytesView{key.data(), key.size()},
      as_bytes("Test Using Larger Than Block-Size Key - Hash Key First"));
  EXPECT_EQ(mac.hex(),
            "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54");
}

TEST(Hmac, IncrementalMatchesOneShot) {
  Hmac h(as_bytes("key"));
  h.update(std::string_view{"part1"});
  h.update(std::string_view{"part2"});
  EXPECT_EQ(h.finish(), hmac_sha256(as_bytes("key"), as_bytes("part1part2")));
}

TEST(Hmac, PrecomputedScheduleMatchesReferencePath) {
  // Micro-assert for the HmacSigner key-schedule precompute: HmacKey::mac
  // must be byte-identical to a from-scratch RFC 2104 evaluation (the old
  // per-sign path: pad the key, then two full Sha256 passes).
  for (const std::string& key :
       {std::string("k"), std::string(64, 'K'), std::string(131, 'Q')}) {
    const BytesView key_view = as_bytes(key);
    std::array<std::uint8_t, 64> block{};
    if (key.size() > 64) {
      const Digest hashed = sha256(key_view);
      std::copy(hashed.v.begin(), hashed.v.end(), block.begin());
    } else {
      std::copy(key_view.begin(), key_view.end(), block.begin());
    }
    std::array<std::uint8_t, 64> ipad{};
    std::array<std::uint8_t, 64> opad{};
    for (std::size_t i = 0; i < 64; ++i) {
      ipad[i] = block[i] ^ 0x36;
      opad[i] = block[i] ^ 0x5c;
    }
    const std::string msg = "the quick brown packet";
    Sha256 inner;
    inner.update(BytesView{ipad.data(), ipad.size()}).update(msg);
    Sha256 outer;
    outer.update(BytesView{opad.data(), opad.size()}).update(inner.finish());
    const Digest reference = outer.finish();

    const HmacKey schedule(key_view);
    EXPECT_EQ(schedule.mac(as_bytes(msg)), reference) << "key len "
                                                      << key.size();
    // Reusing the same schedule must not perturb later MACs.
    EXPECT_EQ(schedule.mac(as_bytes(msg)), reference);
  }
}

TEST(Hmac, SignerReusesScheduleAcrossSignatures) {
  const Digest device_key = sha256("device");
  HmacSigner signer(device_key);
  const Digest m1 = sha256("m1");
  const Digest m2 = sha256("m2");
  const Signature s1 = signer.sign(m1);
  const Signature s2 = signer.sign(m2);
  const Signature s1_again = signer.sign(m1);
  EXPECT_EQ(s1.payload, s1_again.payload);
  EXPECT_NE(s1.payload, s2.payload);
  // And each signature equals the one-shot HMAC of its message.
  EXPECT_EQ(s1.payload,
            hmac_sha256(BytesView{device_key.v.data(), device_key.v.size()},
                        BytesView{m1.v.data(), m1.v.size()})
                .to_bytes());
}

TEST(Hmac, DeriveKeysAreDistinctAndStable) {
  const auto a = derive_keys(as_bytes("root"), "label", 8);
  const auto b = derive_keys(as_bytes("root"), "label", 8);
  ASSERT_EQ(a.size(), 8u);
  EXPECT_EQ(a, b);
  for (std::size_t i = 0; i < a.size(); ++i) {
    for (std::size_t j = i + 1; j < a.size(); ++j) EXPECT_NE(a[i], a[j]);
  }
  EXPECT_NE(derive_keys(as_bytes("root"), "other", 1)[0], a[0]);
}

// --- DRBG --------------------------------------------------------------------

TEST(Drbg, DeterministicAcrossInstances) {
  Drbg a(12345);
  Drbg b(12345);
  EXPECT_EQ(a.bytes(100), b.bytes(100));
  EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Drbg, DifferentSeedsDiffer) {
  Drbg a(1);
  Drbg b(2);
  EXPECT_NE(a.bytes(32), b.bytes(32));
}

TEST(Drbg, UniformBoundRespected) {
  Drbg d(7);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(d.uniform(17), 17u);
  }
  EXPECT_THROW((void)d.uniform(0), std::invalid_argument);
}

TEST(Drbg, Uniform01InRange) {
  Drbg d(9);
  for (int i = 0; i < 1000; ++i) {
    const double x = d.uniform01();
    EXPECT_GE(x, 0.0);
    EXPECT_LT(x, 1.0);
  }
}

TEST(Drbg, ChanceExtremes) {
  Drbg d(11);
  EXPECT_FALSE(d.chance(0.0));
  EXPECT_TRUE(d.chance(1.0));
}

TEST(Drbg, ChanceRoughlyCalibrated) {
  Drbg d(13);
  int hits = 0;
  for (int i = 0; i < 10000; ++i) {
    if (d.chance(0.3)) ++hits;
  }
  EXPECT_GT(hits, 2700);
  EXPECT_LT(hits, 3300);
}

TEST(Drbg, ForkIndependentStreams) {
  Drbg parent(42);
  Drbg c1 = parent.fork("x");
  Drbg c2 = parent.fork("x");  // same label, later fork -> different stream
  Drbg c3 = parent.fork("y");
  EXPECT_NE(c1.bytes(32), c2.bytes(32));
  EXPECT_NE(c1.bytes(32), c3.bytes(32));
}

TEST(Drbg, ForkDeterministicAcrossRuns) {
  Drbg p1(42);
  Drbg p2(42);
  EXPECT_EQ(p1.fork("x").bytes(16), p2.fork("x").bytes(16));
}

// --- WOTS --------------------------------------------------------------------

TEST(Wots, SignVerifyRoundTrip) {
  const Digest seed = sha256("wots seed");
  const auto sk = wots::keygen_secret(seed, 0);
  const auto pk = wots::derive_public(sk);
  const Digest msg = sha256("message");
  const auto sig = wots::sign(sk, msg);
  EXPECT_TRUE(wots::verify(pk, msg, sig));
}

TEST(Wots, WrongMessageFails) {
  const Digest seed = sha256("wots seed");
  const auto sk = wots::keygen_secret(seed, 0);
  const auto pk = wots::derive_public(sk);
  const auto sig = wots::sign(sk, sha256("message"));
  EXPECT_FALSE(wots::verify(pk, sha256("other message"), sig));
}

TEST(Wots, TamperedSignatureFails) {
  const Digest seed = sha256("wots seed");
  const auto sk = wots::keygen_secret(seed, 1);
  const auto pk = wots::derive_public(sk);
  const Digest msg = sha256("message");
  auto sig = wots::sign(sk, msg);
  sig.chains[10].v[0] ^= 0x01;
  EXPECT_FALSE(wots::verify(pk, msg, sig));
}

TEST(Wots, DifferentAddressesYieldDifferentKeys) {
  const Digest seed = sha256("seed");
  const auto pk0 = wots::derive_public(wots::keygen_secret(seed, 0));
  const auto pk1 = wots::derive_public(wots::keygen_secret(seed, 1));
  EXPECT_NE(pk0.compressed, pk1.compressed);
}

TEST(Wots, ChecksumChunksBalanceMessageChunks) {
  // Property: sum(msg chunks) + sum over checksum base-w digits weighted is
  // invariant: csum = sum(w-1 - c_i). Verify recomputation.
  const Digest msg = sha256("chunk property");
  const auto chunks = wots::chunk_message(msg);
  std::uint32_t csum = 0;
  for (std::size_t i = 0; i < wots::kLen1; ++i) {
    EXPECT_LT(chunks[i], wots::kW);
    csum += static_cast<std::uint32_t>(wots::kW - 1 - chunks[i]);
  }
  std::uint32_t encoded = 0;
  for (std::size_t i = 0; i < wots::kLen2; ++i) {
    encoded |= static_cast<std::uint32_t>(chunks[wots::kLen1 + i]) << (4 * i);
  }
  EXPECT_EQ(encoded, csum);
}

TEST(Wots, SignatureSerializeRoundTrip) {
  const auto sk = wots::keygen_secret(sha256("s"), 3);
  const auto sig = wots::sign(sk, sha256("m"));
  const Bytes ser = sig.serialize();
  EXPECT_EQ(ser.size(), wots::Signature::kWireSize);
  const auto back = wots::Signature::deserialize(BytesView{ser.data(), ser.size()});
  EXPECT_EQ(back.chains, sig.chains);
  EXPECT_THROW(
      (void)wots::Signature::deserialize(BytesView{ser.data(), ser.size() - 1}),
      std::invalid_argument);
}

// Parameterized: signing many random messages always verifies.
class WotsMany : public ::testing::TestWithParam<int> {};

TEST_P(WotsMany, RandomMessagesVerify) {
  Drbg rng(static_cast<std::uint64_t>(GetParam()));
  const Digest seed = rng.digest();
  const auto sk = wots::keygen_secret(seed, 7);
  const auto pk = wots::derive_public(sk);
  const Digest msg = rng.digest();
  const auto sig = wots::sign(sk, msg);
  EXPECT_TRUE(wots::verify(pk, msg, sig));
  EXPECT_FALSE(wots::verify(pk, rng.digest(), sig));
}

INSTANTIATE_TEST_SUITE_P(Seeds, WotsMany, ::testing::Range(0, 16));

// --- Merkle ------------------------------------------------------------------

class MerkleSizes : public ::testing::TestWithParam<int> {};

TEST_P(MerkleSizes, AllProofsVerify) {
  const int n = GetParam();
  std::vector<Digest> leaves;
  for (int i = 0; i < n; ++i) leaves.push_back(sha256("leaf" + std::to_string(i)));
  const MerkleTree tree(leaves);
  for (int i = 0; i < n; ++i) {
    const auto proof = tree.prove(static_cast<std::uint64_t>(i));
    EXPECT_TRUE(MerkleTree::verify(tree.root(), leaves[static_cast<std::size_t>(i)], proof))
        << "leaf " << i << " of " << n;
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, MerkleSizes,
                         ::testing::Values(1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 17,
                                           31, 33, 64, 100));

TEST(Merkle, WrongLeafFails) {
  std::vector<Digest> leaves = {sha256("a"), sha256("b"), sha256("c")};
  const MerkleTree tree(leaves);
  const auto proof = tree.prove(1);
  EXPECT_FALSE(MerkleTree::verify(tree.root(), sha256("x"), proof));
}

TEST(Merkle, EmptyTreeHasZeroRoot) {
  const MerkleTree tree({});
  EXPECT_TRUE(tree.root().is_zero());
}

TEST(Merkle, RootChangesWithAnyLeaf) {
  std::vector<Digest> leaves = {sha256("a"), sha256("b"), sha256("c"),
                                sha256("d")};
  const MerkleTree t1(leaves);
  leaves[2] = sha256("C");
  const MerkleTree t2(leaves);
  EXPECT_NE(t1.root(), t2.root());
}

TEST(Merkle, ProveOutOfRangeThrows) {
  const MerkleTree tree({sha256("a")});
  EXPECT_THROW((void)tree.prove(1), std::out_of_range);
}

TEST(Merkle, ProofSerializeRoundTrip) {
  std::vector<Digest> leaves;
  for (int i = 0; i < 9; ++i) leaves.push_back(sha256(std::to_string(i)));
  const MerkleTree tree(leaves);
  const auto proof = tree.prove(5);
  const Bytes ser = proof.serialize();
  const auto back = MerkleProof::deserialize(BytesView{ser.data(), ser.size()});
  EXPECT_EQ(back.leaf_index, proof.leaf_index);
  EXPECT_EQ(back.siblings, proof.siblings);
}

// --- XMSS --------------------------------------------------------------------

TEST(Xmss, SignVerifyMultiple) {
  XmssKeyPair kp(sha256("xmss seed"), 3);  // 8 signatures
  EXPECT_EQ(kp.capacity(), 8u);
  for (int i = 0; i < 8; ++i) {
    const Digest msg = sha256("msg" + std::to_string(i));
    const auto sig = kp.sign(msg);
    EXPECT_TRUE(XmssKeyPair::verify(kp.public_root(), msg, sig)) << i;
  }
  EXPECT_TRUE(kp.exhausted());
}

TEST(Xmss, ExhaustionThrows) {
  XmssKeyPair kp(sha256("s"), 1);
  (void)kp.sign(sha256("a"));
  (void)kp.sign(sha256("b"));
  EXPECT_THROW((void)kp.sign(sha256("c")), std::runtime_error);
}

TEST(Xmss, WrongRootFails) {
  XmssKeyPair kp(sha256("s1"), 2);
  XmssKeyPair other(sha256("s2"), 2);
  const Digest msg = sha256("m");
  const auto sig = kp.sign(msg);
  EXPECT_FALSE(XmssKeyPair::verify(other.public_root(), msg, sig));
}

TEST(Xmss, SignatureSerializeRoundTrip) {
  XmssKeyPair kp(sha256("s"), 2);
  const Digest msg = sha256("m");
  const auto sig = kp.sign(msg);
  const Bytes ser = sig.serialize();
  const auto back = XmssSignature::deserialize(BytesView{ser.data(), ser.size()});
  EXPECT_TRUE(XmssKeyPair::verify(kp.public_root(), msg, back));
}

TEST(Xmss, HeightTooLargeThrows) {
  EXPECT_THROW(XmssKeyPair(sha256("s"), 21), std::invalid_argument);
}

// --- Signer / Verifier ---------------------------------------------------------

TEST(Signer, HmacRoundTrip) {
  const Digest key = sha256("device key");
  HmacSigner signer(key);
  HmacVerifier verifier(key);
  const Digest msg = sha256("claim");
  const Signature sig = signer.sign(msg);
  EXPECT_EQ(sig.scheme, SignatureScheme::kHmacDeviceKey);
  EXPECT_EQ(signer.key_id(), verifier.key_id());
  EXPECT_TRUE(verifier.verify(msg, sig));
  EXPECT_FALSE(verifier.verify(sha256("other"), sig));
}

TEST(Signer, HmacWrongKeyFails) {
  HmacSigner signer(sha256("k1"));
  HmacVerifier verifier(sha256("k2"));
  const Signature sig = signer.sign(sha256("m"));
  EXPECT_FALSE(verifier.verify(sha256("m"), sig));
}

TEST(Signer, XmssRoundTrip) {
  XmssSigner signer(sha256("seed"), 3);
  XmssVerifier verifier(signer.public_root());
  const Digest msg = sha256("claim");
  const Signature sig = signer.sign(msg);
  EXPECT_EQ(sig.scheme, SignatureScheme::kXmss);
  EXPECT_TRUE(verifier.verify(msg, sig));
  EXPECT_FALSE(verifier.verify(sha256("x"), sig));
  EXPECT_EQ(signer.signatures_remaining(), 7u);
}

TEST(Signer, XmssGarbagePayloadRejectedGracefully) {
  XmssSigner signer(sha256("seed"), 2);
  XmssVerifier verifier(signer.public_root());
  Signature sig = signer.sign(sha256("m"));
  sig.payload.resize(3);  // mangled
  EXPECT_FALSE(verifier.verify(sha256("m"), sig));
}

TEST(Signer, SignatureSerializeRoundTrip) {
  HmacSigner signer(sha256("k"));
  const Signature sig = signer.sign(sha256("m"));
  const Bytes ser = sig.serialize();
  EXPECT_EQ(ser.size(), sig.wire_size());
  const Signature back = Signature::deserialize(BytesView{ser.data(), ser.size()});
  EXPECT_EQ(back, sig);
}

TEST(Signer, DeserializeRejectsBadScheme) {
  HmacSigner signer(sha256("k"));
  Bytes ser = signer.sign(sha256("m")).serialize();
  ser[0] = 99;
  EXPECT_THROW((void)Signature::deserialize(BytesView{ser.data(), ser.size()}),
               std::invalid_argument);
}

// --- KeyStore ------------------------------------------------------------------

TEST(KeyStore, ProvisionAndLookup) {
  KeyStore ks(77);
  Signer& s = ks.provision_hmac("switch1");
  EXPECT_TRUE(ks.has("switch1"));
  EXPECT_EQ(ks.signer_for("switch1"), &s);
  const Verifier* v = ks.verifier_for("switch1");
  ASSERT_NE(v, nullptr);
  const Signature sig = s.sign(sha256("m"));
  EXPECT_TRUE(v->verify(sha256("m"), sig));
  EXPECT_EQ(ks.verifier_by_key_id(sig.key_id), v);
  EXPECT_EQ(ks.principal_of(sig.key_id), "switch1");
}

TEST(KeyStore, UnknownPrincipalIsNull) {
  KeyStore ks(1);
  EXPECT_EQ(ks.signer_for("nobody"), nullptr);
  EXPECT_EQ(ks.verifier_for("nobody"), nullptr);
  EXPECT_EQ(ks.verifier_by_key_id(sha256("x")), nullptr);
}

TEST(KeyStore, XmssProvisioning) {
  KeyStore ks(5);
  Signer& s = ks.provision_xmss("sw", 3);
  const Signature sig = s.sign(sha256("m"));
  EXPECT_TRUE(ks.verifier_for("sw")->verify(sha256("m"), sig));
}

TEST(KeyStore, ReprovisionReplacesKeys) {
  KeyStore ks(9);
  Signer& s1 = ks.provision_hmac("sw");
  const Digest old_id = s1.key_id();
  const Signature old_sig = s1.sign(sha256("m"));
  Signer& s2 = ks.provision_hmac("sw");
  EXPECT_NE(s2.key_id(), old_id);
  EXPECT_EQ(ks.verifier_by_key_id(old_id), nullptr);
  EXPECT_FALSE(ks.verifier_for("sw")->verify(sha256("m"), old_sig));
}

TEST(KeyStore, DeterministicForSeed) {
  KeyStore a(123);
  KeyStore b(123);
  EXPECT_EQ(a.provision_hmac("x").key_id(), b.provision_hmac("x").key_id());
}

// --- NonceRegistry ----------------------------------------------------------------

TEST(NonceRegistry, IssueIsFreshAndTracked) {
  NonceRegistry reg(55);
  const Nonce a = reg.issue();
  const Nonce b = reg.issue();
  EXPECT_NE(a, b);
  EXPECT_TRUE(reg.issued(a));
  EXPECT_TRUE(reg.issued(b));
  EXPECT_FALSE(reg.issued(Nonce{sha256("fake")}));
  EXPECT_EQ(reg.issued_count(), 2u);
}

TEST(NonceRegistry, ObserveDetectsReplay) {
  NonceRegistry reg(56);
  const Nonce n = reg.issue();
  EXPECT_TRUE(reg.observe(n));
  EXPECT_FALSE(reg.observe(n));  // replay
  EXPECT_EQ(reg.observed_count(), 1u);
}

}  // namespace
}  // namespace pera::crypto
