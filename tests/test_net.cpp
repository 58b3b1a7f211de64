// The real-socket evidence transport (src/net): frame codec strictness
// and torn-read invariance, handshake wire roundtrips, the RA-session
// admission matrix (bad quote / replay / unknown place / role refusal /
// mutual counter-quotes) on the sans-I/O state machines, and loopback
// end-to-end runs against the epoll appraiser server — single client,
// concurrent fleet, challenge relay through a relying-party session, and
// the verdict parity matrix (the same evidence bytes get the expected
// verdict and certificate from the pipeline's appraiser, netsim's
// appraiser node and the socket server).
#include <gtest/gtest.h>

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>

#include <atomic>
#include <chrono>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "copland/evidence.h"
#include "core/nodes.h"
#include "core/wire.h"
#include "crypto/keystore.h"
#include "crypto/sha256.h"
#include "ctrl/transport.h"
#include "nac/detail.h"
#include "nac/header.h"
#include "net/backend.h"
#include "net/client.h"
#include "net/frame.h"
#include "net/server.h"
#include "net/session.h"
#include "net/wire.h"
#include "netsim/network.h"
#include "pipeline/appraiser.h"
#include "pipeline/pipeline.h"

namespace {

using namespace pera;
using net::Frame;
using net::FrameDecoder;
using net::FrameType;
using net::RejectReason;

crypto::Digest d(std::string_view label) {
  crypto::Sha256 h;
  h.update(label);
  return h.finish();
}

crypto::Nonce nonce_of(std::uint64_t x) {
  crypto::Nonce n;
  n.value = d("nonce:" + std::to_string(x));
  return n;
}

crypto::BytesView view(const crypto::Bytes& b) {
  return crypto::BytesView{b.data(), b.size()};
}

// ------------------------------------------------------------ frame codec --

TEST(NetFrame, RoundtripsCoalescedFrames) {
  crypto::Bytes stream;
  const crypto::Bytes p1{0x01, 0x02, 0x03};
  const crypto::Bytes p2;  // empty payload is legal (kBye)
  const crypto::Bytes p3(1000, 0xAB);
  net::append_frame(stream, FrameType::kEvidence, view(p1));
  net::append_frame(stream, FrameType::kBye, view(p2));
  net::append_frame(stream, FrameType::kResult, view(p3));

  FrameDecoder dec;
  ASSERT_TRUE(dec.feed(view(stream)));
  auto f1 = dec.next();
  auto f2 = dec.next();
  auto f3 = dec.next();
  ASSERT_TRUE(f1 && f2 && f3);
  EXPECT_FALSE(dec.next());
  EXPECT_EQ(f1->type, FrameType::kEvidence);
  EXPECT_EQ(f1->payload, p1);
  EXPECT_EQ(f2->type, FrameType::kBye);
  EXPECT_TRUE(f2->payload.empty());
  EXPECT_EQ(f3->type, FrameType::kResult);
  EXPECT_EQ(f3->payload, p3);
  EXPECT_EQ(dec.frames_decoded(), 3u);
  EXPECT_EQ(dec.buffered(), 0u);
}

// The framing invariant: however the byte stream is torn, the decoded
// frame sequence is identical. Split the 3-frame stream at every single
// byte position (feeding two chunks), and also drip it one byte at a
// time.
TEST(NetFrame, TornAtEveryByteYieldsIdenticalFrames) {
  crypto::Bytes stream;
  net::append_frame(stream, FrameType::kHello, view(crypto::Bytes{9, 9}));
  net::append_frame(stream, FrameType::kEvidence,
                    view(crypto::Bytes(300, 0x5C)));
  net::append_frame(stream, FrameType::kBye, {});

  const auto decode_all = [](FrameDecoder& dec) {
    std::vector<Frame> out;
    while (auto f = dec.next()) out.push_back(std::move(*f));
    return out;
  };
  FrameDecoder whole;
  ASSERT_TRUE(whole.feed(view(stream)));
  const std::vector<Frame> expect = decode_all(whole);
  ASSERT_EQ(expect.size(), 3u);

  for (std::size_t split = 0; split <= stream.size(); ++split) {
    FrameDecoder dec;
    ASSERT_TRUE(dec.feed(crypto::BytesView{stream.data(), split}));
    ASSERT_TRUE(
        dec.feed(crypto::BytesView{stream.data() + split,
                                   stream.size() - split}));
    const std::vector<Frame> got = decode_all(dec);
    ASSERT_EQ(got.size(), expect.size()) << "split at " << split;
    for (std::size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got[i].type, expect[i].type) << "split at " << split;
      EXPECT_EQ(got[i].payload, expect[i].payload) << "split at " << split;
    }
  }

  FrameDecoder drip;
  for (std::size_t i = 0; i < stream.size(); ++i) {
    ASSERT_TRUE(drip.feed(crypto::BytesView{stream.data() + i, 1}));
  }
  EXPECT_EQ(decode_all(drip).size(), expect.size());
  EXPECT_EQ(drip.buffered(), 0u);
}

TEST(NetFrame, PoisonsOnMalformedInputAndStaysPoisoned) {
  {  // zero length
    FrameDecoder dec;
    const crypto::Bytes zero{0, 0, 0, 0};
    EXPECT_FALSE(dec.feed(view(zero)));
    EXPECT_TRUE(dec.error());
    const crypto::Bytes good = net::encode_frame(FrameType::kBye, {});
    EXPECT_FALSE(dec.feed(view(good))) << "poisoned decoder must not recover";
    EXPECT_FALSE(dec.next());
  }
  {  // unknown frame type
    FrameDecoder dec;
    const crypto::Bytes bad{0, 0, 0, 1, 0x7F};
    EXPECT_FALSE(dec.feed(view(bad)));
    EXPECT_TRUE(dec.error());
  }
  {  // length beyond the cap — rejected from the prefix alone
    FrameDecoder dec;
    const std::uint32_t huge = net::kMaxFramePayload + 2;
    const crypto::Bytes pfx{
        static_cast<std::uint8_t>(huge >> 24),
        static_cast<std::uint8_t>(huge >> 16),
        static_cast<std::uint8_t>(huge >> 8),
        static_cast<std::uint8_t>(huge)};
    EXPECT_FALSE(dec.feed(view(pfx)));
    EXPECT_TRUE(dec.error());
  }
}

// ----------------------------------------------------------- handshake wire --

TEST(NetWire, QuoteRoundtripAndBinding) {
  const crypto::Digest root = d("quote-root");
  crypto::HmacSigner signer(net::derive_quote_key(root, "sw3"));
  const net::Quote q =
      net::Quote::make("sw3", nonce_of(7), d("meas"), signer);

  const crypto::Bytes bytes = q.serialize();
  const net::Quote back = net::Quote::deserialize(view(bytes));
  EXPECT_EQ(back.place, "sw3");
  EXPECT_EQ(back.nonce.value, nonce_of(7).value);
  EXPECT_EQ(back.measurement, d("meas"));
  EXPECT_TRUE(
      back.verify(crypto::HmacVerifier(net::derive_quote_key(root, "sw3"))));
  // The derived key is place-scoped: sw4's key must not verify sw3's quote.
  EXPECT_FALSE(
      back.verify(crypto::HmacVerifier(net::derive_quote_key(root, "sw4"))));

  crypto::Bytes trailing = bytes;
  trailing.push_back(0);
  EXPECT_THROW((void)net::Quote::deserialize(view(trailing)),
               std::invalid_argument);
  EXPECT_THROW((void)net::Quote::deserialize(
                   crypto::BytesView{bytes.data(), bytes.size() - 1}),
               std::invalid_argument);
}

TEST(NetWire, HelloAndAckRoundtrip) {
  net::HelloMsg hello;
  hello.role = net::SessionRole::kRelyingParty;
  hello.want_mutual = true;
  hello.place = "rp0";
  hello.session_nonce = nonce_of(1);
  hello.quote = {1, 2, 3};
  const crypto::Bytes hb = hello.serialize();
  const net::HelloMsg h2 = net::HelloMsg::deserialize(view(hb));
  EXPECT_EQ(h2.role, net::SessionRole::kRelyingParty);
  EXPECT_TRUE(h2.want_mutual);
  EXPECT_EQ(h2.place, "rp0");
  EXPECT_EQ(h2.session_nonce.value, nonce_of(1).value);
  EXPECT_EQ(h2.quote, hello.quote);

  net::HelloAckMsg ack;
  ack.admitted = false;
  ack.reject = RejectReason::kReplayedNonce;
  ack.server_nonce = nonce_of(2);
  const crypto::Bytes ab = ack.serialize();
  const net::HelloAckMsg a2 = net::HelloAckMsg::deserialize(view(ab));
  EXPECT_FALSE(a2.admitted);
  EXPECT_EQ(a2.reject, RejectReason::kReplayedNonce);
  EXPECT_EQ(a2.server_nonce.value, nonce_of(2).value);

  net::ChallengeFrame ch;
  ch.place = "sw9";
  ch.challenge.nonce = nonce_of(3);
  ch.challenge.appraiser = "appraiser";
  ch.challenge.detail = nac::mask_of(nac::EvidenceDetail::kProgram);
  const crypto::Bytes cb = ch.serialize();
  const net::ChallengeFrame c2 = net::ChallengeFrame::deserialize(view(cb));
  EXPECT_EQ(c2.place, "sw9");
  EXPECT_EQ(c2.challenge.nonce.value, nonce_of(3).value);
  EXPECT_EQ(c2.challenge.appraiser, "appraiser");
}

TEST(NetWire, SessionIdAndQuoteKeyDerivationsAreStable) {
  const crypto::Digest id1 = net::session_id("sw0", nonce_of(1), nonce_of(2));
  EXPECT_EQ(id1, net::session_id("sw0", nonce_of(1), nonce_of(2)));
  EXPECT_NE(id1, net::session_id("sw1", nonce_of(1), nonce_of(2)));
  EXPECT_NE(id1, net::session_id("sw0", nonce_of(2), nonce_of(1)));

  const crypto::Digest root = d("root");
  EXPECT_EQ(net::derive_quote_key(root, "a"), net::derive_quote_key(root, "a"));
  EXPECT_NE(net::derive_quote_key(root, "a"), net::derive_quote_key(root, "b"));
  EXPECT_NE(net::derive_quote_key(root, "a"),
            net::derive_quote_key(d("other-root"), "a"));
}

// ------------------------------------------------- sans-I/O session matrix --

// A server-side admission config with real crypto: per-place derived
// quote keys, a golden measurement, a shared replay registry.
struct AdmissionRig {
  crypto::Digest quote_root = d("rig-quote-root");
  crypto::Digest golden = d("rig-golden");
  crypto::NonceRegistry hello_nonces{0xAD1'0001};
  crypto::NonceRegistry server_nonces{0xAD1'0002};
  crypto::Digest appraiser_key = d("rig-appraiser-key");
  crypto::Digest appraiser_meas = d("rig-appraiser-meas");
  net::ServerSessionConfig config;

  AdmissionRig() {
    config.check_quote = [this](const net::Quote& q) {
      const crypto::HmacVerifier v(net::derive_quote_key(quote_root, q.place));
      if (!q.verify(v)) return RejectReason::kBadQuote;
      if (!(q.measurement == golden)) return RejectReason::kBadQuote;
      return RejectReason::kNone;
    };
    config.admit_nonce = [this](const crypto::Nonce& n) {
      return hello_nonces.observe(n);
    };
    config.make_server_nonce = [this] { return server_nonces.issue(); };
    config.counter_quote = [this](const crypto::Nonce& client_nonce) {
      crypto::HmacSigner s(appraiser_key);
      return net::Quote::make("appraiser", client_nonce, appraiser_meas, s);
    };
  }

  net::ClientSessionConfig client_config(const std::string& place,
                                         bool mutual = false,
                                         bool wrong_quote_key = false) {
    net::ClientSessionConfig c;
    c.place = place;
    c.role = net::SessionRole::kSwitch;
    c.want_mutual = mutual;
    const crypto::Digest root = wrong_quote_key ? d("rogue-root") : quote_root;
    c.make_quote = [this, place, root](const crypto::Nonce& n) {
      crypto::HmacSigner s(net::derive_quote_key(root, place));
      return net::Quote::make(place, n, golden, s);
    };
    c.verify_counter_quote = [this](const net::Quote& q) {
      return q.verify(crypto::HmacVerifier(appraiser_key)) &&
             q.measurement == appraiser_meas;
    };
    return c;
  }
};

// Ferry outbox bytes between the two state machines until quiescent.
void shuttle(net::ClientSession& client, net::ServerSession& server) {
  for (;;) {
    crypto::Bytes to_server;
    to_server.swap(client.outbox());
    crypto::Bytes to_client;
    to_client.swap(server.outbox());
    if (to_server.empty() && to_client.empty()) return;
    if (!to_server.empty()) (void)server.on_bytes(view(to_server));
    // The server may have queued an ack in response; pick it up next pass.
    if (!to_client.empty()) (void)client.on_bytes(view(to_client));
  }
}

TEST(NetSession, GoodQuoteEstablishesBothEnds) {
  AdmissionRig rig;
  net::ServerSession server(&rig.config);
  net::ClientSession client(rig.client_config("sw0"), nonce_of(100));
  client.start();
  shuttle(client, server);
  EXPECT_TRUE(server.established());
  EXPECT_TRUE(client.established());
  EXPECT_EQ(server.place(), "sw0");
  // Both ends derive the same session id from the nonce exchange.
  EXPECT_EQ(server.id(), client.id());
}

TEST(NetSession, BadQuoteSignatureRejected) {
  AdmissionRig rig;
  net::ServerSession server(&rig.config);
  net::ClientSession client(rig.client_config("sw0", false, true),
                            nonce_of(101));
  client.start();
  shuttle(client, server);
  EXPECT_EQ(server.state(), net::ServerSession::State::kRejected);
  EXPECT_EQ(server.reject_reason(), RejectReason::kBadQuote);
  EXPECT_FALSE(client.established());
  EXPECT_EQ(client.reject_reason(), RejectReason::kBadQuote);
}

TEST(NetSession, WrongMeasurementRejected) {
  AdmissionRig rig;
  auto cfg = rig.client_config("sw0");
  const crypto::Digest root = rig.quote_root;
  cfg.make_quote = [root](const crypto::Nonce& n) {
    crypto::HmacSigner s(net::derive_quote_key(root, "sw0"));
    return net::Quote::make("sw0", n, d("not-the-golden"), s);
  };
  net::ServerSession server(&rig.config);
  net::ClientSession client(std::move(cfg), nonce_of(102));
  client.start();
  shuttle(client, server);
  EXPECT_EQ(server.reject_reason(), RejectReason::kBadQuote);
}

TEST(NetSession, QuoteMustBindHelloNonceAndPlace) {
  AdmissionRig rig;
  // Sign a perfectly valid quote — for a different nonce than the hello
  // carries (a replayed quote). Binding check must reject before the
  // quote policy even runs.
  auto cfg = rig.client_config("sw0");
  const crypto::Digest root = rig.quote_root;
  const crypto::Digest golden = rig.golden;
  cfg.make_quote = [root, golden](const crypto::Nonce&) {
    crypto::HmacSigner s(net::derive_quote_key(root, "sw0"));
    return net::Quote::make("sw0", nonce_of(999), golden, s);
  };
  net::ServerSession server(&rig.config);
  net::ClientSession client(std::move(cfg), nonce_of(103));
  client.start();
  shuttle(client, server);
  EXPECT_EQ(server.reject_reason(), RejectReason::kBadQuote);
}

TEST(NetSession, ReplayedSessionNonceRejected) {
  AdmissionRig rig;
  net::ServerSession s1(&rig.config);
  net::ClientSession c1(rig.client_config("sw0"), nonce_of(104));
  c1.start();
  shuttle(c1, s1);
  ASSERT_TRUE(s1.established());

  // Same session nonce again (a replayed hello, even from the same place).
  net::ServerSession s2(&rig.config);
  net::ClientSession c2(rig.client_config("sw0"), nonce_of(104));
  c2.start();
  shuttle(c2, s2);
  EXPECT_EQ(s2.reject_reason(), RejectReason::kReplayedNonce);
}

TEST(NetSession, MutualModeVerifiesCounterQuote) {
  AdmissionRig rig;
  net::ServerSession server(&rig.config);
  net::ClientSession client(rig.client_config("sw0", /*mutual=*/true),
                            nonce_of(105));
  client.start();
  shuttle(client, server);
  EXPECT_TRUE(server.established());
  EXPECT_TRUE(client.established());

  // A forged counter-quote (wrong appraiser key) fails on the client.
  AdmissionRig forged;
  forged.quote_root = rig.quote_root;  // client quotes still admit
  forged.golden = rig.golden;
  forged.appraiser_key = d("imposter-key");
  net::ServerSession bad_server(&forged.config);
  auto cfg = rig.client_config("sw0", /*mutual=*/true);
  net::ClientSession c2(std::move(cfg), nonce_of(106));
  c2.start();
  shuttle(c2, bad_server);
  EXPECT_TRUE(bad_server.established()) << "server side admitted the switch";
  EXPECT_FALSE(c2.established());
  EXPECT_EQ(c2.state(), net::ClientSession::State::kFailed);
}

TEST(NetSession, RelyingPartyRoleCanBeRefused) {
  AdmissionRig rig;
  rig.config.admit_relying_parties = false;
  net::ServerSession server(&rig.config);
  net::ClientSessionConfig cfg;
  cfg.place = "rp0";
  cfg.role = net::SessionRole::kRelyingParty;
  net::ClientSession client(std::move(cfg), nonce_of(107));
  client.start();
  shuttle(client, server);
  EXPECT_EQ(server.reject_reason(), RejectReason::kRoleRefused);
  EXPECT_EQ(client.reject_reason(), RejectReason::kRoleRefused);
}

TEST(NetSession, EvidenceOnRelyingPartySessionIsProtocolError) {
  AdmissionRig rig;
  net::ServerSession server(&rig.config);
  net::ClientSessionConfig cfg;
  cfg.place = "rp0";
  cfg.role = net::SessionRole::kRelyingParty;
  net::ClientSession client(std::move(cfg), nonce_of(108));
  client.start();
  shuttle(client, server);
  ASSERT_TRUE(server.established());
  client.send_evidence(nonce_of(109), view(crypto::Bytes{1, 2, 3}));
  crypto::Bytes bytes;
  bytes.swap(client.outbox());
  EXPECT_FALSE(server.on_bytes(view(bytes)));
  EXPECT_EQ(server.state(), net::ServerSession::State::kClosed);
}

// The protocol-level torn-read differential: run a whole conversation
// (hello, ack, two evidence rounds, results) with the server-bound
// stream split at every byte position; the server's decoded events and
// final state must be identical to the unsplit run.
TEST(NetSession, ConversationInvariantUnderEveryStreamSplit) {
  AdmissionRig rig;

  struct Observed {
    bool established = false;
    std::uint64_t rounds = 0;
    std::vector<crypto::Digest> nonces;
  };
  // Capture the client's full server-bound byte stream once.
  crypto::Bytes stream;
  {
    net::ClientSession client(rig.client_config("swT"), nonce_of(120));
    client.start();
    stream.insert(stream.end(), client.outbox().begin(),
                  client.outbox().end());
    client.outbox().clear();
    // Evidence rounds are queued without waiting for the ack — the
    // stream is what matters here, not the client's view.
    client.send_evidence(nonce_of(121), view(crypto::Bytes{0xAA}));
    client.send_evidence(nonce_of(122), view(crypto::Bytes(600, 0xBB)));
    stream.insert(stream.end(), client.outbox().begin(),
                  client.outbox().end());
  }

  const auto run = [&rig](const crypto::Bytes& bytes, std::size_t split) {
    // Fresh registries per run so the replayed hello nonce admits.
    AdmissionRig fresh;
    fresh.quote_root = rig.quote_root;
    fresh.golden = rig.golden;
    net::ServerSession server(&fresh.config);
    EXPECT_TRUE(server.on_bytes(crypto::BytesView{bytes.data(), split}));
    EXPECT_TRUE(server.on_bytes(
        crypto::BytesView{bytes.data() + split, bytes.size() - split}));
    Observed obs;
    obs.established = server.established();
    obs.rounds = server.rounds_received();
    for (const auto& ev : server.take_evidence()) {
      obs.nonces.push_back(ev.nonce.value);
    }
    return obs;
  };

  const Observed expect = run(stream, stream.size());
  ASSERT_TRUE(expect.established);
  ASSERT_EQ(expect.rounds, 2u);
  ASSERT_EQ(expect.nonces.size(), 2u);

  for (std::size_t split = 0; split < stream.size(); ++split) {
    const Observed got = run(stream, split);
    ASSERT_EQ(got.established, expect.established) << "split " << split;
    ASSERT_EQ(got.rounds, expect.rounds) << "split " << split;
    ASSERT_EQ(got.nonces, expect.nonces) << "split " << split;
  }
}

// --------------------------------------------------------- loopback e2e --

// Shared key material for the socket tests, mirroring how a deployment
// provisions both ends out of band.
struct E2eKeys {
  crypto::Digest quote_root = d("e2e-quote-root");
  crypto::Digest golden = d("e2e-golden");
  crypto::Digest evidence_root = d("e2e-evidence-root");
  crypto::Digest cert_key = d("e2e-cert-key");
  crypto::Digest appraiser_meas = d("e2e-appraiser-meas");

  [[nodiscard]] net::ServerConfig server_config() const {
    net::ServerConfig sc;
    sc.reactors = 2;
    sc.quote_root_key = quote_root;
    sc.golden_measurement = golden;
    sc.evidence_root_key = evidence_root;
    sc.cert_key = cert_key;
    sc.appraiser_measurement = appraiser_meas;
    return sc;
  }

  [[nodiscard]] std::vector<crypto::Digest> device_keys() const {
    return pipeline::PeraPipeline::shard_keys(evidence_root,
                                              "pera.net.device", 16);
  }

  [[nodiscard]] net::ClientIdentity identity(const std::string& place,
                                             std::uint64_t seed) const {
    net::ClientIdentity id;
    id.place = place;
    id.quote_root_key = quote_root;
    id.measurement = golden;
    id.device_key = device_keys()[0];
    id.cert_key = cert_key;
    id.appraiser_golden = appraiser_meas;
    id.nonce_seed = seed;
    return id;
  }
};

TEST(NetLoopback, SingleClientRoundGetsSignedVerdict) {
  E2eKeys keys;
  net::AppraiserServer server(keys.server_config());
  server.start();

  net::SwitchClient client(keys.identity("sw0", 0xE2E'0001));
  ASSERT_TRUE(client.connect(server.port(), 2000)) << client.error_text();
  const auto cert = client.round(2000);
  ASSERT_TRUE(cert.has_value());
  EXPECT_TRUE(cert->verdict);
  EXPECT_EQ(cert->appraiser, "appraiser");
  EXPECT_TRUE(cert->verify(crypto::HmacVerifier(keys.cert_key)));

  client.close();
  server.stop();
  const net::ServerStats st = server.stats();
  EXPECT_EQ(st.sessions_accepted, 1u);
  EXPECT_EQ(st.rounds_appraised, 1u);
  EXPECT_EQ(st.results_sent, 1u);
}

TEST(NetLoopback, MutualModeHandsBackCounterQuote) {
  E2eKeys keys;
  net::AppraiserServer server(keys.server_config());
  server.start();

  net::ClientIdentity id = keys.identity("sw0", 0xE2E'0002);
  id.mutual = true;
  net::SwitchClient client(id);
  ASSERT_TRUE(client.connect(server.port(), 2000)) << client.error_text();
  EXPECT_TRUE(client.established());

  // Against a server claiming a different measurement, the client's
  // counter-quote check fails even though the server admitted it.
  net::ServerConfig imposter = keys.server_config();
  imposter.appraiser_measurement = d("imposter-meas");
  net::AppraiserServer server2(imposter);
  server2.start();
  net::ClientIdentity id2 = keys.identity("sw1", 0xE2E'0003);
  id2.mutual = true;
  net::SwitchClient client2(id2);
  EXPECT_FALSE(client2.connect(server2.port(), 2000));
  server2.stop();
  server.stop();
}

TEST(NetLoopback, BadQuoteIsRejectedAtTheDoor) {
  E2eKeys keys;
  net::AppraiserServer server(keys.server_config());
  server.start();

  net::ClientIdentity id = keys.identity("sw0", 0xE2E'0004);
  id.measurement = d("tampered-program");  // quote signs a wrong measurement
  net::SwitchClient client(id);
  EXPECT_FALSE(client.connect(server.port(), 2000));
  EXPECT_EQ(client.reject_reason(), RejectReason::kBadQuote);

  // Unknown place when an allowlist is configured.
  net::ServerConfig strict = keys.server_config();
  strict.known_places = {"swA"};
  net::AppraiserServer server2(strict);
  server2.start();
  net::SwitchClient ok(keys.identity("swA", 0xE2E'0005));
  EXPECT_TRUE(ok.connect(server2.port(), 2000)) << ok.error_text();
  net::SwitchClient stranger(keys.identity("swB", 0xE2E'0006));
  EXPECT_FALSE(stranger.connect(server2.port(), 2000));
  EXPECT_EQ(stranger.reject_reason(), RejectReason::kUnknownPlace);
  ok.close();
  server2.stop();
  server.stop();
  const net::ServerStats st = server.stats();
  EXPECT_GE(st.sessions_rejected, 1u);
}

TEST(NetLoopback, WrongDeviceKeyYieldsFalseVerdict) {
  E2eKeys keys;
  net::AppraiserServer server(keys.server_config());
  server.start();

  // Quote is fine (admission passes) but evidence is signed with a key
  // the appraiser was never provisioned with: verdict must be false —
  // the transport layer authenticates the session, the appraiser still
  // judges every round.
  net::ClientIdentity id = keys.identity("sw0", 0xE2E'0007);
  id.device_key = d("rogue-device-key");
  net::SwitchClient client(id);
  ASSERT_TRUE(client.connect(server.port(), 2000)) << client.error_text();
  const auto cert = client.round(2000);
  ASSERT_TRUE(cert.has_value());
  EXPECT_FALSE(cert->verdict);
  EXPECT_TRUE(cert->verify(crypto::HmacVerifier(keys.cert_key)));
  client.close();
  server.stop();
}

TEST(NetLoopback, FleetOfConcurrentSessionsCompletesRounds) {
  E2eKeys keys;
  net::ServerConfig sc = keys.server_config();
  sc.reactors = 2;
  net::AppraiserServer server(sc);
  server.start();

  net::SwitchFleet::Config fc;
  fc.port = server.port();
  fc.connections = 64;
  fc.depth = 2;
  fc.device_keys = keys.device_keys();
  fc.quote_root_key = keys.quote_root;
  fc.measurement = keys.golden;
  net::SwitchFleet fleet(fc);
  ASSERT_EQ(fleet.establish(10'000), 64u);

  const net::SwitchFleet::RunStats rs = fleet.run_rounds(256, 20'000);
  EXPECT_EQ(rs.rounds_completed, 256u);
  EXPECT_EQ(rs.verdict_failures, 0u);
  EXPECT_EQ(rs.session_failures, 0u);
  EXPECT_EQ(rs.latency_us.size(), 256u);
  fleet.shutdown();
  server.stop();

  const net::ServerStats st = server.stats();
  EXPECT_EQ(st.sessions_accepted, 64u);
  EXPECT_GE(st.rounds_appraised, 256u);
}

// A switch driven by hand over a raw socket, so a test decides exactly
// when it writes and whether it reads.
struct RawSwitch {
  RawSwitch(const E2eKeys& keys, std::uint16_t port, std::uint64_t seed)
      : fd(net::connect_loopback_blocking(port, 2000)),
        quote_signer(net::derive_quote_key(keys.quote_root, "sw0")),
        device_signer(keys.device_keys()[0]),
        golden(keys.golden) {
    net::ClientSessionConfig cfg;
    cfg.place = "sw0";
    cfg.role = net::SessionRole::kSwitch;
    cfg.make_quote = [this](const crypto::Nonce& n) {
      return net::Quote::make("sw0", n, golden, quote_signer);
    };
    session = std::make_unique<net::ClientSession>(std::move(cfg),
                                                   nonce_of(seed));
  }

  // Queue one evidence round signed over `n`.
  void queue_round(const crypto::Nonce& n) {
    session->send_evidence(
        n, view(net::make_signed_evidence("sw0", golden, n, device_signer)));
  }

  // Write what the socket takes now; false on a write error.
  bool write_some() {
    crypto::Bytes& box = session->outbox();
    out.insert(out.end(), box.begin(), box.end());
    box.clear();
    while (head < out.size()) {
      const net::IoSlice slice{out.data() + head, out.size() - head};
      const net::IoResult res = net::write_vec(fd.get(), &slice, 1);
      if (res.status == net::IoStatus::kWouldBlock) return true;
      if (res.status != net::IoStatus::kOk) return false;
      head += res.bytes;
    }
    out.clear();
    head = 0;
    return true;
  }

  // Read what has arrived into the session; false on close or error.
  bool read_ready() {
    std::uint8_t buf[16 * 1024];
    for (;;) {
      const net::IoResult res = net::read_some(fd.get(), buf, sizeof(buf));
      if (res.status == net::IoStatus::kWouldBlock) return true;
      if (res.status != net::IoStatus::kOk) return false;
      if (!session->on_bytes(crypto::BytesView{buf, res.bytes})) return false;
    }
  }

  // Poll for `events` for up to `ms`, then write and read.
  bool step(short events, int ms) {
    pollfd p{fd.get(), events, 0};
    (void)::poll(&p, 1, ms);
    if (!write_some()) return false;
    return (p.revents & POLLIN) == 0 || read_ready();
  }

  bool handshake() {
    session->start();
    for (int i = 0; i < 200 && !session->established(); ++i) {
      if (session->failed() || !step(POLLIN, 10)) return false;
    }
    return session->established();
  }

  net::Fd fd;
  crypto::HmacSigner quote_signer;
  crypto::HmacSigner device_signer;
  crypto::Digest golden;
  std::unique_ptr<net::ClientSession> session;
  crypto::Bytes out;  // written from `head`
  std::size_t head = 0;
};

template <class Pred>
bool wait_until(Pred pred, int timeout_ms) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(timeout_ms);
  while (!pred()) {
    if (std::chrono::steady_clock::now() >= deadline) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return true;
}

// A switch hangs up with certificates still unread: it half-closes
// (the server sees the FIN but, busy with the backlog, has not read it),
// then closes, and the kernel answers with a reset. The server's next
// certificate write then meets a dead peer. That must cost the server
// one connection, not the process: no SIGPIPE.
TEST(NetLoopback, PeerClosingWithUnreadResultsLeavesServerUp) {
  E2eKeys keys;
  net::AppraiserServer server(keys.server_config());
  server.start();
  for (std::uint64_t run = 0; run < 3; ++run) {
    RawSwitch sw(keys, server.port(), 0xE2E'0201 + run);
    ASSERT_TRUE(sw.fd.valid());
    ASSERT_TRUE(sw.handshake()) << sw.session->error_text();
    for (std::uint64_t i = 0; i < 20'000; ++i) sw.queue_round(nonce_of(i));
    ASSERT_TRUE(sw.write_some());  // one flush; the rest is never sent
    ::shutdown(sw.fd.get(), SHUT_WR);
    // Close once the server has acknowledged the FIN, or once it is
    // clear it will not soon: a server that paused this connection's
    // reads for backpressure leaves the FIN queued behind unread rounds.
    (void)wait_until(
        [&] {
          tcp_info ti{};
          socklen_t len = sizeof(ti);
          ::getsockopt(sw.fd.get(), IPPROTO_TCP, TCP_INFO, &ti, &len);
          return ti.tcpi_state == TCP_FIN_WAIT2;
        },
        1000);
    sw.fd.reset();
    ASSERT_TRUE(wait_until(
        [&] { return server.stats().sessions_open == 0; }, 10'000));
  }

  net::SwitchClient fresh(keys.identity("sw1", 0xE2E'0211));
  ASSERT_TRUE(fresh.connect(server.port(), 2000)) << fresh.error_text();
  const auto cert = fresh.round(2000);
  ASSERT_TRUE(cert.has_value());
  EXPECT_TRUE(cert->verdict);
  fresh.close();
  server.stop();
}

// SwitchClient::round(0) times out its writes against a peer that stops
// reading after the handshake, then trickles 700 bytes every 200 us.
// Whatever part of a frame a timed-out flush already wrote must never be
// offered again: every byte the peer gets decodes, and no round arrives
// twice.
TEST(NetLoopback, WriteTimeoutNeverResendsWrittenBytes) {
  E2eKeys keys;
  net::Fd listener = net::listen_loopback(0);
  const std::uint16_t port = net::local_port(listener.get());

  net::ServerSessionConfig cfg;
  cfg.check_quote = [](const net::Quote&) { return RejectReason::kNone; };
  cfg.admit_nonce = [](const crypto::Nonce&) { return true; };
  cfg.make_server_nonce = [] { return nonce_of(0); };
  net::ServerSession peer(&cfg);
  std::vector<crypto::Nonce> received;
  enum Phase : int { kStalled, kTrickle, kDrain };
  std::atomic<int> phase{kStalled};
  std::thread appraiser([&] {
    pollfd lp{listener.get(), POLLIN, 0};
    if (::poll(&lp, 1, 5000) <= 0) return;
    const net::Fd conn(::accept(listener.get(), nullptr, nullptr));  // blocking
    std::vector<std::uint8_t> buf(64 * 1024);
    for (;;) {
      const int ph = phase.load(std::memory_order_acquire);
      if (peer.established() && ph == kStalled) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
        continue;
      }
      const std::size_t want = ph == kTrickle ? 700 : buf.size();
      const net::IoResult res = net::read_some(conn.get(), buf.data(), want);
      if (res.status != net::IoStatus::kOk) return;  // EOF ends the run
      if (!peer.on_bytes(crypto::BytesView{buf.data(), res.bytes})) return;
      for (net::EvidenceRound& r : peer.take_evidence()) {
        received.push_back(r.nonce);
      }
      crypto::Bytes& ack = peer.outbox();
      for (std::size_t off = 0; off < ack.size();) {
        const net::IoSlice s{ack.data() + off, ack.size() - off};
        const net::IoResult w = net::write_vec(conn.get(), &s, 1);
        if (w.status != net::IoStatus::kOk) return;
        off += w.bytes;
      }
      ack.clear();
      if (ph == kTrickle) {
        std::this_thread::sleep_for(std::chrono::microseconds(200));
      }
    }
  });

  net::SwitchClient client(keys.identity("sw0", 0xE2E'0301));
  const bool connected = client.connect(port, 2000);
  // Fill the socket until a flush times out, then keep queueing rounds
  // for 300 ms while the peer trickles: each window it reopens takes a
  // partial write that ends in another timeout.
  std::uint64_t rounds = 0;
  std::optional<std::chrono::steady_clock::time_point> stop_at;
  while (connected && rounds < 400'000) {
    (void)client.round(0);
    ++rounds;
    if (!stop_at && client.error_text() == "write timeout") {
      stop_at = std::chrono::steady_clock::now() +
                std::chrono::milliseconds(300);
      phase.store(kTrickle, std::memory_order_release);
    }
    if (stop_at) {
      if (std::chrono::steady_clock::now() >= *stop_at) break;
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
  }
  phase.store(kDrain, std::memory_order_release);
  client.close();  // bye, flushed for up to 100 ms, then FIN
  appraiser.join();

  ASSERT_TRUE(connected) << client.error_text();
  ASSERT_TRUE(stop_at.has_value()) << "no write ever timed out";
  EXPECT_EQ(peer.error_text(), "");
  ASSERT_FALSE(received.empty());
  std::set<crypto::Digest> distinct;
  for (const crypto::Nonce& n : received) distinct.insert(n.value);
  EXPECT_EQ(distinct.size(), received.size()) << "a round arrived twice";
  EXPECT_LE(received.size(), rounds);
  if (peer.peer_said_bye()) {
    EXPECT_EQ(received.size(), rounds);
  }
}

// A switch that pipelines rounds without reading makes the server owe
// it more than the 1 MiB write-buffer mark: the server pauses that
// connection's reads. Once the switch drains, every certificate arrives,
// in the order the rounds were sent.
TEST(NetLoopback, SlowReaderPausesReadsThenGetsEveryCertificateInOrder) {
  E2eKeys keys;
  net::ServerConfig sc = keys.server_config();
  sc.reactors = 1;
  net::AppraiserServer server(sc);
  server.start();

  RawSwitch sw(keys, server.port(), 0xE2E'0401);
  ASSERT_TRUE(sw.fd.valid());
  ASSERT_TRUE(sw.handshake()) << sw.session->error_text();

  std::vector<crypto::Nonce> sent;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(60);
  while (server.stats().read_pauses == 0 && sent.size() < 1'000'000 &&
         std::chrono::steady_clock::now() < deadline) {
    if (sw.out.size() - sw.head < 64 * 1024) {
      for (int i = 0; i < 256; ++i) {
        sent.push_back(nonce_of(sent.size()));
        sw.queue_round(sent.back());
      }
    }
    pollfd p{sw.fd.get(), POLLOUT, 0};
    (void)::poll(&p, 1, 1);
    ASSERT_TRUE(sw.write_some());
  }
  ASSERT_GE(server.stats().read_pauses, 1u);

  // Drain: write the rest, read everything.
  std::vector<ra::Certificate> certs;
  while (certs.size() < sent.size() &&
         std::chrono::steady_clock::now() < deadline) {
    const short events = sw.head < sw.out.size() ? POLLIN | POLLOUT : POLLIN;
    ASSERT_TRUE(sw.step(events, 10));
    for (ra::Certificate& c : sw.session->take_results()) {
      certs.push_back(std::move(c));
    }
  }
  ASSERT_EQ(certs.size(), sent.size());
  for (std::size_t i = 0; i < sent.size(); ++i) {
    ASSERT_EQ(certs[i].nonce.value, sent[i].value) << "certificate " << i;
    ASSERT_TRUE(certs[i].verdict) << "certificate " << i;
  }
  server.stop();
}

// ------------------------------------------------- challenge relay + RP --

TEST(NetRelay, TransportRoundOverSocketBackendCompletes) {
  E2eKeys keys;
  net::AppraiserServer server(keys.server_config());
  server.start();

  // The switch being attested: serves relayed challenges in a thread.
  net::SwitchClient sw(keys.identity("sw0", 0xE2E'0101));
  ASSERT_TRUE(sw.connect(server.port(), 2000)) << sw.error_text();
  std::atomic<bool> stop{false};
  std::thread server_thread([&] { (void)sw.serve(15'000, &stop); });

  // The relying party: EvidenceTransport over a SocketBackend session.
  net::SocketBackend::Config bc;
  bc.port = server.port();
  net::SocketBackend backend(bc);
  crypto::KeyStore rp_keys(0xE2E'0102);
  rp_keys.provision_hmac_key("appraiser", keys.cert_key);
  ctrl::TransportConfig tc;
  tc.timeout = 2'000 * netsim::kMillisecond;
  tc.max_attempts = 2;
  ctrl::EvidenceTransport transport(backend, "appraiser", rp_keys, tc,
                                    0xE2E'0103);
  backend.set_result_sink([&](const ra::Certificate& cert) {
    (void)transport.on_result(cert, backend.now());
  });
  ASSERT_TRUE(backend.connect()) << backend.error_text();

  std::atomic<int> done{0};
  ctrl::RoundOutcome outcome;
  backend.post([&] {
    transport.begin_round(
        "sw0", nac::mask_of(nac::EvidenceDetail::kProgram),
        [&](const std::string&, const ctrl::RoundOutcome& out) {
          outcome = out;
          done.store(1, std::memory_order_release);
        });
  });
  for (int i = 0; i < 500 && done.load(std::memory_order_acquire) == 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  ASSERT_EQ(done.load(), 1) << "relay round never completed";
  EXPECT_TRUE(outcome.completed);
  EXPECT_TRUE(outcome.verdict);
  EXPECT_EQ(outcome.attempts, 1u);
  EXPECT_GT(outcome.rtt, 0);

  // A round against a place with no session exhausts its retries.
  std::atomic<int> done2{0};
  ctrl::RoundOutcome miss;
  backend.post([&] {
    transport.begin_round(
        "no-such-switch", nac::mask_of(nac::EvidenceDetail::kProgram),
        [&](const std::string&, const ctrl::RoundOutcome& out) {
          miss = out;
          done2.store(1, std::memory_order_release);
        });
  });
  for (int i = 0; i < 700 && done2.load(std::memory_order_acquire) == 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  ASSERT_EQ(done2.load(), 1);
  EXPECT_FALSE(miss.completed);
  EXPECT_EQ(miss.attempts, 2u);

  stop.store(true, std::memory_order_release);
  server_thread.join();
  backend.stop();
  sw.close();
  server.stop();
  const net::ServerStats st = server.stats();
  EXPECT_GE(st.challenges_relayed, 1u);
  EXPECT_GE(st.challenges_unrouted, 1u);
}

// A relying party relays a challenge to a switch that is connected but
// never answers, then hangs up. The route waiting for the switch's answer
// must go with the relying party, or every such relay leaks an entry.
TEST(NetRelay, RoutesOfAClosedRelyingPartyAreDropped) {
  E2eKeys keys;
  net::AppraiserServer server(keys.server_config());
  server.start();

  net::SwitchClient sw(keys.identity("sw0", 0xE2E'0501));
  ASSERT_TRUE(sw.connect(server.port(), 2000)) << sw.error_text();

  net::ClientSessionConfig rc;
  rc.place = "rp";
  rc.role = net::SessionRole::kRelyingParty;
  net::ClientSession rp(std::move(rc), nonce_of(0xE2E'0502));
  net::Link link;
  std::string error;
  ASSERT_TRUE(net::connect_session(link, rp, server.port(), 2000, error))
      << error;
  core::Challenge ch;
  ch.nonce = nonce_of(0xE2E'0503);
  rp.send_challenge("sw0", ch);
  ASSERT_TRUE(net::flush_session(link, rp, net::deadline_after_ms(2000),
                                 error))
      << error;
  ASSERT_TRUE(wait_until(
      [&] { return server.stats().challenges_relayed == 1; }, 5000));
  EXPECT_EQ(server.stats().relay_routes, 1u);

  link.close();
  ASSERT_TRUE(wait_until(
      [&] { return server.stats().sessions_open == 1; }, 5000));
  EXPECT_EQ(server.stats().relay_routes, 0u);
  sw.close();
  server.stop();
}

// ------------------------------------------- Sim-vs-Socket verdict parity --

// One appraisal core on every path: the same evidence bytes, sent under
// the same round nonce, get the expected verdict from the in-process
// ParallelAppraiser (the pipeline path), from netsim's AppraiserNode and
// from a socket round trip through the server.
struct ParityCase {
  const char* name;
  crypto::Bytes evidence;
  crypto::Nonce round_nonce;
  bool expected;
};

std::vector<ParityCase> parity_cases(const E2eKeys& keys) {
  crypto::HmacSigner good_signer(keys.device_keys()[0]);
  crypto::HmacSigner rogue_signer(d("rogue"));
  std::vector<ParityCase> cases;
  cases.push_back({"valid",
                   net::make_signed_evidence("sw0", keys.golden,
                                             nonce_of(200), good_signer),
                   nonce_of(200), true});
  cases.push_back({"wrong-signer",
                   net::make_signed_evidence("sw0", keys.golden,
                                             nonce_of(201), rogue_signer),
                   nonce_of(201), false});
  cases.push_back({"garbage", crypto::Bytes{0xDE, 0xAD, 0xBE, 0xEF},
                   nonce_of(202), false});
  // Signed by the right key, but over another round's nonce: a replay.
  cases.push_back({"wrong-nonce",
                   net::make_signed_evidence("sw0", keys.golden,
                                             nonce_of(190), good_signer),
                   nonce_of(203), false});
  return cases;
}

// Pipeline path: each payload streamed through a ParallelAppraiser exactly
// as the pipeline hands evidence over, one flow per payload.
std::vector<bool> pipeline_verdicts(const E2eKeys& keys,
                                    const std::vector<ParityCase>& cases) {
  std::vector<bool> verdicts(cases.size(), false);
  pipeline::AppraiserOptions opts;
  opts.workers = 1;
  pipeline::ParallelAppraiser app(keys.evidence_root, "pera.net.device", 16,
                                  opts);
  app.start(1);
  for (std::size_t i = 0; i < cases.size(); ++i) {
    pipeline::EvidenceItem item;
    item.flow = i;
    item.seq = i;
    item.evidence = cases[i].evidence;
    item.nonce = cases[i].round_nonce;
    EXPECT_TRUE(app.accept(0, std::move(item)));
  }
  app.finish();
  for (const auto& [flow, verdict] : app.verdicts()) {
    verdicts[flow] = verdict.records == 1 && verdict.ok;
  }
  return verdicts;
}

// A relying party linked to a netsim AppraiserNode that holds the device
// key, its certificate key and the golden program measurement.
struct NetsimRig {
  explicit NetsimRig(const E2eKeys& keys)
      : net(topology()), store(0xE2E'0301), appraiser("appraiser", store),
        host("rp") {
    store.provision_hmac_key("sw0", keys.device_keys()[0]);
    store.provision_hmac_key("appraiser", keys.cert_key);
    appraiser.appraiser().set_golden("sw0", "Program", keys.golden);
    net.attach("rp", &host);
    net.attach("appraiser", &appraiser);
  }

  static netsim::Topology topology() {
    netsim::Topology topo;
    topo.add_node("rp", netsim::NodeKind::kHost);
    topo.add_node("appraiser", netsim::NodeKind::kAppraiser);
    topo.add_link("rp", "appraiser");
    return topo;
  }

  // One message from the relying party to the appraiser; replies return
  // to the relying party.
  void send(const std::string& type, crypto::Bytes payload) {
    netsim::Message msg;
    msg.src = net.topology().require("rp");
    msg.dst = net.topology().require("appraiser");
    msg.reply_to = msg.src;
    msg.type = type;
    msg.payload = std::move(payload);
    net.send(std::move(msg));
  }

  netsim::Network net;
  crypto::KeyStore store;
  core::AppraiserNode appraiser;
  core::HostNode host;
};

// Netsim path: each payload goes to the AppraiserNode as a one-shot
// "evidence" message; certificates come back in case order.
std::vector<ra::Certificate> netsim_certificates(
    const E2eKeys& keys, const std::vector<ParityCase>& cases) {
  NetsimRig rig(keys);
  for (const ParityCase& c : cases) {
    rig.send("evidence",
             core::EvidenceMsg{c.round_nonce, c.evidence}.serialize());
  }
  rig.net.run();
  std::vector<ra::Certificate> certs(cases.size());
  for (const ra::Certificate& cert : rig.host.results()) {
    for (std::size_t i = 0; i < cases.size(); ++i) {
      if (cert.nonce == cases[i].round_nonce) certs[i] = cert;
    }
  }
  EXPECT_EQ(rig.host.results().size(), cases.size());
  return certs;
}

// Socket path: the same bytes as raw evidence rounds on one admitted
// session, certificates collected per round nonce, in case order.
std::vector<ra::Certificate> socket_certificates(
    const E2eKeys& keys, const std::vector<ParityCase>& cases) {
  net::AppraiserServer server(keys.server_config());
  server.start();
  net::SwitchClient client(keys.identity("sw0", 0xE2E'0201));
  std::vector<ra::Certificate> certs(cases.size());
  EXPECT_TRUE(client.connect(server.port(), 2000)) << client.error_text();
  net::ClientSession* session = client.session();
  if (session == nullptr || !client.established()) return certs;
  for (const ParityCase& c : cases) {
    session->send_evidence(c.round_nonce, view(c.evidence));
  }
  std::size_t got = 0;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (got < cases.size() &&
         std::chrono::steady_clock::now() < deadline) {
    (void)client.serve(50, nullptr);
    for (const ra::Certificate& cert : session->take_results()) {
      for (std::size_t i = 0; i < cases.size(); ++i) {
        if (cert.nonce == cases[i].round_nonce) {
          certs[i] = cert;
          ++got;
        }
      }
    }
  }
  EXPECT_EQ(got, cases.size()) << "socket rounds did not all complete";
  client.close();
  server.stop();
  return certs;
}

TEST(NetParity, SimAndSocketAgreeOnEveryPayload) {
  const E2eKeys keys;
  const std::vector<ParityCase> cases = parity_cases(keys);
  const std::vector<bool> pipeline = pipeline_verdicts(keys, cases);
  const std::vector<ra::Certificate> netsim = netsim_certificates(keys, cases);
  const std::vector<ra::Certificate> socket = socket_certificates(keys, cases);
  const crypto::HmacVerifier cert_key(keys.cert_key);
  for (std::size_t i = 0; i < cases.size(); ++i) {
    SCOPED_TRACE(cases[i].name);
    EXPECT_EQ(pipeline[i], cases[i].expected) << "pipeline";
    EXPECT_EQ(netsim[i].verdict, cases[i].expected) << "netsim";
    EXPECT_EQ(socket[i].verdict, cases[i].expected) << "socket";
    EXPECT_TRUE(netsim[i].verify(cert_key)) << "netsim";
    EXPECT_TRUE(socket[i].verify(cert_key)) << "socket";
  }
}

// Every certificate names the evidence it judged the same way:
// copland::digest of the appraised evidence, the value verify_aggregate
// checks carried evidence against.
TEST(NetParity, CertificateDigestIsEvidenceDigestOnEveryPath) {
  const E2eKeys keys;
  const std::vector<ParityCase> cases = parity_cases(keys);
  const std::vector<ra::Certificate> netsim = netsim_certificates(keys, cases);
  const std::vector<ra::Certificate> socket = socket_certificates(keys, cases);
  for (std::size_t i = 0; i < cases.size(); ++i) {
    SCOPED_TRACE(cases[i].name);
    const crypto::Digest want = crypto::sha256(view(cases[i].evidence));
    EXPECT_EQ(netsim[i].evidence_digest, want);
    EXPECT_EQ(socket[i].evidence_digest, want);
    if (cases[i].name == std::string("garbage")) continue;
    EXPECT_EQ(want, copland::digest(copland::decode(view(cases[i].evidence))));
  }
}

// Evidence that does not decode gets a failing certificate from the
// netsim appraiser, one-shot or carried in-band, instead of an exception
// out of Network::run().
TEST(NetParity, NetsimAppraiserFailsMalformedEvidence) {
  const E2eKeys keys;
  NetsimRig rig(keys);
  const crypto::Bytes garbage{0xDE, 0xAD, 0xBE, 0xEF};
  crypto::HmacSigner good_signer(keys.device_keys()[0]);
  nac::EvidenceCarrier carrier;
  carrier.add("sw0", net::make_signed_evidence("sw0", keys.golden,
                                               nonce_of(401), good_signer));
  carrier.add("sw1", garbage);
  rig.send("evidence", core::EvidenceMsg{nonce_of(400), garbage}.serialize());
  rig.send("carrier",
           core::EvidenceMsg{nonce_of(401), carrier.serialize()}.serialize());
  EXPECT_NO_THROW(rig.net.run());
  ASSERT_EQ(rig.host.results().size(), 2u);
  for (const ra::Certificate& cert : rig.host.results()) {
    EXPECT_FALSE(cert.verdict);
    EXPECT_TRUE(cert.verify(crypto::HmacVerifier(keys.cert_key)));
  }
  EXPECT_EQ(rig.appraiser.failed_appraisals(), 2u);
}

}  // namespace
