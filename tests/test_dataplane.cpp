// Tests for the PISA software switch: header packing, the programmable
// parser, match kinds, actions, registers, program digests and the canned
// programs — including the UC1 "stealth" property: the rogue router
// behaves identically on non-target traffic but has a different digest.
#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <random>
#include <stdexcept>

#include "dataplane/builder.h"

namespace pera::dataplane {
namespace {

// ParsedPacket borrows HeaderSpec pointers from the program that parsed it
// (see dataplane/packet.h), so packets stored in a local must not come from
// a temporary ParserProgram. Parse through this long-lived instance instead.
const ParserProgram& std_parser() {
  static const ParserProgram p = standard_parser();
  return p;
}

// --- header packing ---------------------------------------------------------

class PackRoundTrip
    : public ::testing::TestWithParam<std::vector<std::uint64_t>> {};

TEST_P(PackRoundTrip, Ipv4Identity) {
  const HeaderSpec spec = stdhdr::ipv4();
  const auto values = GetParam();
  const Bytes packed = pack_header(spec, values);
  EXPECT_EQ(packed.size(), spec.byte_width());
  EXPECT_EQ(unpack_header(spec, BytesView{packed.data(), packed.size()}),
            values);
}

INSTANTIATE_TEST_SUITE_P(
    Values, PackRoundTrip,
    ::testing::Values(
        std::vector<std::uint64_t>{0x45, 0, 100, 64, 6, 0, 0x0a000001,
                                   0x0a000002},
        std::vector<std::uint64_t>{0xff, 0xff, 0xffff, 0xff, 0xff, 0xffff,
                                   0xffffffff, 0xffffffff},
        std::vector<std::uint64_t>{0, 0, 0, 0, 0, 0, 0, 0},
        std::vector<std::uint64_t>{1, 2, 3, 4, 5, 6, 7, 8}));

TEST(Pack, EthernetRoundTrip) {
  const HeaderSpec eth = stdhdr::ethernet();
  const std::vector<std::uint64_t> v = {0x112233445566, 0xaabbccddeeff,
                                        0x0800};
  const Bytes packed = pack_header(eth, v);
  EXPECT_EQ(packed.size(), 14u);
  EXPECT_EQ(unpack_header(eth, BytesView{packed.data(), packed.size()}), v);
}

TEST(Pack, ValueCountMismatchThrows) {
  EXPECT_THROW((void)pack_header(stdhdr::tcp(), {1, 2}),
               std::invalid_argument);
}

TEST(Pack, ShortBufferThrows) {
  const Bytes b(3, 0);
  EXPECT_THROW((void)unpack_header(stdhdr::tcp(), BytesView{b.data(), b.size()}),
               std::invalid_argument);
}

TEST(FieldRef, ParseAndReject) {
  const FieldRef r = parse_field_ref("ipv4.dst");
  EXPECT_EQ(r.header, "ipv4");
  EXPECT_EQ(r.field, "dst");
  EXPECT_THROW((void)parse_field_ref("nodot"), std::invalid_argument);
  EXPECT_THROW((void)parse_field_ref(".x"), std::invalid_argument);
  EXPECT_THROW((void)parse_field_ref("x."), std::invalid_argument);
}

// --- parser -------------------------------------------------------------------

TEST(Parser, ParsesEthIpv4Tcp) {
  const ParserProgram p = standard_parser();
  const RawPacket raw = make_tcp_packet({});
  const ParsedPacket pkt = p.parse(raw);
  EXPECT_TRUE(pkt.has("eth"));
  EXPECT_TRUE(pkt.has("ipv4"));
  EXPECT_TRUE(pkt.has("tcp"));
  EXPECT_EQ(pkt.get("ipv4.dst"), 0x0a000202u);
  EXPECT_EQ(pkt.get("tcp.dport"), 443u);
  EXPECT_EQ(pkt.payload.size(), 64u);
}

TEST(Parser, NonIpStopsAfterEth) {
  const ParserProgram p = standard_parser();
  const HeaderSpec eth = stdhdr::ethernet();
  RawPacket raw;
  raw.data = pack_header(eth, {1, 2, 0x0806});  // ARP
  raw.data.resize(raw.data.size() + 28, 0);
  const ParsedPacket pkt = p.parse(raw);
  EXPECT_TRUE(pkt.has("eth"));
  EXPECT_FALSE(pkt.has("ipv4"));
  EXPECT_EQ(pkt.payload.size(), 28u);
}

TEST(Parser, TruncatedPacketThrows) {
  const ParserProgram p = standard_parser();
  RawPacket raw;
  raw.data = {1, 2, 3};
  EXPECT_THROW((void)p.parse(raw), std::invalid_argument);
}

TEST(Parser, DeparseRoundTrips) {
  const ParserProgram p = standard_parser();
  const RawPacket raw = make_tcp_packet({});
  const ParsedPacket pkt = p.parse(raw);
  EXPECT_EQ(pkt.deparse(), raw.data);
}

TEST(Parser, EncodeIsStable) {
  EXPECT_EQ(standard_parser().encode(), standard_parser().encode());
}

// --- tables ------------------------------------------------------------------

TEST(Table, ExactMatch) {
  Table t("t", {KeySpec{{"tcp", "dport"}, MatchKind::kExact}});
  TableEntry e;
  e.keys = {KeyMatch::exact(443)};
  e.action = "hit";
  t.add_entry(e);
  const ParsedPacket pkt = std_parser().parse(make_tcp_packet({}));
  TableEntry* hit = t.lookup(pkt);
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(hit->action, "hit");
  EXPECT_EQ(hit->hit_count, 1u);
}

TEST(Table, ExactMiss) {
  Table t("t", {KeySpec{{"tcp", "dport"}, MatchKind::kExact}});
  TableEntry e;
  e.keys = {KeyMatch::exact(80)};
  e.action = "hit";
  t.add_entry(e);
  const ParsedPacket pkt = std_parser().parse(make_tcp_packet({}));
  EXPECT_EQ(t.lookup(pkt), nullptr);
}

TEST(Table, LpmPrefersLongestPrefix) {
  Table t("t", {KeySpec{{"ipv4", "dst"}, MatchKind::kLpm, 32}});
  TableEntry wide;
  wide.keys = {KeyMatch::lpm(0x0a000000, 8)};
  wide.action = "wide";
  t.add_entry(wide);
  TableEntry narrow;
  narrow.keys = {KeyMatch::lpm(0x0a000000, 24)};
  narrow.action = "narrow";
  t.add_entry(narrow);
  PacketSpec spec;
  spec.ip_dst = 0x0a000042;
  const ParsedPacket pkt = std_parser().parse(make_tcp_packet(spec));
  TableEntry* hit = t.lookup(pkt);
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(hit->action, "narrow");
}

TEST(Table, LpmRespectsFieldWidth) {
  Table t("t", {KeySpec{{"ipv4", "dst"}, MatchKind::kLpm, 32}});
  TableEntry e;
  e.keys = {KeyMatch::lpm(0x0a000100, 24)};  // 10.0.1.0/24
  e.action = "hit";
  t.add_entry(e);
  PacketSpec in_subnet;
  in_subnet.ip_dst = 0x0a0001fe;
  PacketSpec out_subnet;
  out_subnet.ip_dst = 0x0a0002fe;
  EXPECT_NE(t.lookup(std_parser().parse(make_tcp_packet(in_subnet))),
            nullptr);
  EXPECT_EQ(t.lookup(std_parser().parse(make_tcp_packet(out_subnet))),
            nullptr);
}

TEST(Table, TernaryAndPriority) {
  Table t("t", {KeySpec{{"tcp", "dport"}, MatchKind::kTernary}});
  TableEntry any;
  any.keys = {KeyMatch::wildcard()};
  any.priority = 1;
  any.action = "any";
  t.add_entry(any);
  TableEntry https;
  https.keys = {KeyMatch::ternary(443, 0xffff)};
  https.priority = 10;
  https.action = "https";
  t.add_entry(https);
  const ParsedPacket pkt = std_parser().parse(make_tcp_packet({}));
  EXPECT_EQ(t.lookup(pkt)->action, "https");
  PacketSpec other;
  other.dport = 8080;
  EXPECT_EQ(t.lookup(std_parser().parse(make_tcp_packet(other)))->action,
            "any");
}

TEST(Table, MetadataKeys) {
  Table t("t", {KeySpec{{"meta", "ingress_port"}, MatchKind::kExact}});
  TableEntry e;
  e.keys = {KeyMatch::exact(4)};
  e.action = "hit";
  t.add_entry(e);
  PacketSpec spec;
  spec.ingress_port = 4;
  EXPECT_NE(t.lookup(std_parser().parse(make_tcp_packet(spec))), nullptr);
  spec.ingress_port = 5;
  EXPECT_EQ(t.lookup(std_parser().parse(make_tcp_packet(spec))), nullptr);
}

TEST(Table, MissingHeaderNeverMatches) {
  Table t("t", {KeySpec{{"tcp", "dport"}, MatchKind::kExact}});
  TableEntry e;
  e.keys = {KeyMatch::exact(443)};
  e.action = "hit";
  t.add_entry(e);
  const HeaderSpec eth = stdhdr::ethernet();
  RawPacket raw;
  raw.data = pack_header(eth, {1, 2, 0x0806});
  const ParsedPacket pkt = std_parser().parse(raw);
  EXPECT_EQ(t.lookup(pkt), nullptr);
}

TEST(Table, EntryKeyCountValidated) {
  Table t("t", {KeySpec{{"tcp", "dport"}, MatchKind::kExact}});
  TableEntry e;
  e.keys = {KeyMatch::exact(1), KeyMatch::exact(2)};
  EXPECT_THROW((void)t.add_entry(e), std::invalid_argument);
}

TEST(Table, ContentDigestTracksEntries) {
  Table t("t", {KeySpec{{"tcp", "dport"}, MatchKind::kExact}});
  const crypto::Digest d0 = t.content_digest();
  TableEntry e;
  e.keys = {KeyMatch::exact(443)};
  e.action = "hit";
  t.add_entry(e);
  const crypto::Digest d1 = t.content_digest();
  EXPECT_NE(d0, d1);
  EXPECT_EQ(t.content_digest(), d1);  // stable
}

// --- actions / registers --------------------------------------------------------

TEST(Action, ForwardSetsEgress) {
  ParsedPacket pkt = std_parser().parse(make_tcp_packet({}));
  stdaction::forward().execute(pkt, {7}, nullptr);
  EXPECT_EQ(pkt.meta.egress_port, 7u);
}

TEST(Action, DropSetsFlag) {
  ParsedPacket pkt = std_parser().parse(make_tcp_packet({}));
  stdaction::drop().execute(pkt, {}, nullptr);
  EXPECT_TRUE(pkt.meta.drop);
}

TEST(Action, SetFieldMasksToWidth) {
  ParsedPacket pkt = std_parser().parse(make_tcp_packet({}));
  stdaction::set_field("ipv4.ttl").execute(pkt, {0x1ff}, nullptr);
  EXPECT_EQ(pkt.get("ipv4.ttl"), 0xffu);  // 8-bit field
}

TEST(Action, MissingParamThrows) {
  ParsedPacket pkt = std_parser().parse(make_tcp_packet({}));
  EXPECT_THROW(stdaction::forward().execute(pkt, {}, nullptr),
               std::runtime_error);
}

TEST(Action, RegisterOpsNeedRegisterFile) {
  ActionDef a;
  a.name = "regop";
  Op op;
  op.kind = OpKind::kRegWrite;
  op.reg = "r";
  op.a = Operand::imm(0);
  op.b = Operand::imm(5);
  a.ops.push_back(op);
  ParsedPacket pkt = std_parser().parse(make_tcp_packet({}));
  EXPECT_THROW(a.execute(pkt, {}, nullptr), std::runtime_error);
  RegisterFile regs;
  regs.declare("r", 4);
  a.execute(pkt, {}, &regs);
  EXPECT_EQ(regs.read("r", 0), 5u);
}

TEST(Registers, BoundsChecked) {
  RegisterFile regs;
  regs.declare("r", 2);
  EXPECT_THROW((void)regs.read("r", 2), std::out_of_range);
  EXPECT_THROW(regs.write("missing", 0, 1), std::out_of_range);
  EXPECT_EQ(regs.size("r"), 2u);
}

TEST(Registers, StateDigestTracksWrites) {
  RegisterFile regs;
  regs.declare("r", 4);
  const crypto::Digest d0 = regs.state_digest();
  regs.write("r", 1, 42);
  EXPECT_NE(regs.state_digest(), d0);
  EXPECT_EQ(regs.write_count(), 1u);
}

// --- programs and the switch --------------------------------------------------

TEST(Program, DigestStableAndVersionSensitive) {
  EXPECT_EQ(make_router("v1")->program_digest(),
            make_router("v1")->program_digest());
  EXPECT_NE(make_router("v1")->program_digest(),
            make_router("v2")->program_digest());
  EXPECT_NE(make_router("v1")->program_digest(),
            make_firewall("v1")->program_digest());
}

TEST(Program, TableEntriesAffectTablesDigestOnly) {
  auto p1 = make_router();
  auto p2 = make_router();
  TableEntry e;
  e.keys = {KeyMatch::lpm(0xC0A80000, 16)};
  e.action = "forward";
  e.action_params = {3};
  p2->table("route")->add_entry(e);
  EXPECT_EQ(p1->program_digest(), p2->program_digest());
  EXPECT_NE(p1->tables_digest(), p2->tables_digest());
}

TEST(Switch, RouterForwardsBySubnet) {
  PisaSwitch sw(make_router());
  PacketSpec spec;
  spec.ip_dst = 0x0a000305;  // 10.0.3.5 -> port 3
  const auto out = sw.process(make_tcp_packet(spec));
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(out->port, 3u);
  EXPECT_EQ(sw.stats().packets_out, 1u);
}

TEST(Switch, RouterDropsUnknownSubnet) {
  PisaSwitch sw(make_router());
  PacketSpec spec;
  spec.ip_dst = 0xC0A80001;  // 192.168.0.1: no route
  EXPECT_FALSE(sw.process(make_tcp_packet(spec)).has_value());
  EXPECT_EQ(sw.stats().packets_dropped, 1u);
}

TEST(Switch, FirewallBlocksDisallowedPort) {
  PisaSwitch sw(make_firewall());
  PacketSpec ok;
  ok.ip_dst = 0x0a000203;
  ok.dport = 443;
  EXPECT_TRUE(sw.process(make_tcp_packet(ok)).has_value());
  PacketSpec bad = ok;
  bad.dport = 9999;
  bad.ip_src = 0xC0A80001;  // external source
  EXPECT_FALSE(sw.process(make_tcp_packet(bad)).has_value());
}

TEST(Switch, AclDropsDenyListedPorts) {
  PisaSwitch sw(make_acl());
  PacketSpec bad;
  bad.ip_dst = 0x0a000203;
  bad.dport = 6667;  // IRC: deny-listed
  EXPECT_FALSE(sw.process(make_tcp_packet(bad)).has_value());
  PacketSpec ok = bad;
  ok.dport = 443;
  EXPECT_TRUE(sw.process(make_tcp_packet(ok)).has_value());
}

TEST(Switch, ParseErrorCounted) {
  PisaSwitch sw(make_router());
  RawPacket junk;
  junk.data = {1, 2, 3};
  EXPECT_FALSE(sw.process(junk).has_value());
  EXPECT_EQ(sw.stats().parse_errors, 1u);
}

TEST(Switch, LoadProgramRedeclaresRegisters) {
  PisaSwitch sw(make_monitor());
  EXPECT_TRUE(sw.registers().has("port_counts"));
  sw.load_program(make_router());
  EXPECT_FALSE(sw.registers().has("port_counts"));
}

// The UC1 stealth property: the rogue router forwards non-target traffic
// exactly like the honest router (the Athens attack went unnoticed), yet
// its program digest differs — which is precisely what RA detects.
TEST(RogueRouter, StealthOnNonTargetTraffic) {
  PisaSwitch honest(make_router("v1"));
  PisaSwitch rogue(make_rogue_router("v1"));
  for (std::uint64_t dst : {0x0a000101ULL, 0x0a000202ULL, 0x0a000404ULL}) {
    PacketSpec spec;
    spec.ip_dst = static_cast<std::uint32_t>(dst);
    const auto a = honest.process(make_tcp_packet(spec));
    const auto b = rogue.process(make_tcp_packet(spec));
    ASSERT_TRUE(a.has_value());
    ASSERT_TRUE(b.has_value());
    EXPECT_EQ(a->port, b->port);
    EXPECT_EQ(a->data, b->data);
  }
}

TEST(RogueRouter, MarksTargetTraffic) {
  PisaSwitch rogue(make_rogue_router("v1"));
  PacketSpec spec;
  spec.ip_dst = 0x0a000105;  // on the target list
  const RawPacket raw = make_tcp_packet(spec);
  ParsedPacket pkt = rogue.parse(raw);
  rogue.run_pipeline(pkt);
  EXPECT_EQ(pkt.meta.user1, 1u);  // intercept mark
}

TEST(RogueRouter, DigestBetraysTheSwap) {
  EXPECT_NE(make_router("v1")->program_digest(),
            make_rogue_router("v1")->program_digest());
  // Even claiming the same name+version does not help the attacker.
  EXPECT_EQ(make_rogue_router("v1")->name(), make_router("v1")->name());
  EXPECT_EQ(make_rogue_router("v1")->version(), make_router("v1")->version());
}

TEST(Monitor, CountsViaRegisters) {
  PisaSwitch sw(make_monitor());
  PacketSpec spec;
  spec.dport = 443;
  (void)sw.process(make_tcp_packet(spec));
  EXPECT_GT(sw.registers().write_count(), 0u);
}

// --- match-action differential ------------------------------------------------

// Reference key reader and lookup: every key is resolved by its name on
// every read, and every entry is scanned — the behaviour the resolved
// slots, the per-lookup key read and the exact-match index must keep.
namespace reference {

std::optional<std::uint64_t> read_key(const ParsedPacket& pkt,
                                      const FieldRef& ref) {
  if (ref.header == "meta") {
    if (ref.field == "ingress_port") return pkt.meta.ingress_port;
    if (ref.field == "egress_port") return pkt.meta.egress_port;
    if (ref.field == "packet_id") return pkt.meta.packet_id;
    if (ref.field == "user0") return pkt.meta.user0;
    if (ref.field == "user1") return pkt.meta.user1;
    throw std::invalid_argument("unknown metadata field meta." + ref.field);
  }
  for (const HeaderInstance& h : pkt.headers()) {
    if (h.spec->name != ref.header) continue;
    if (!h.valid) return std::nullopt;
    for (std::size_t i = 0; i < h.spec->fields.size(); ++i) {
      if (h.spec->fields[i].name == ref.field) return h.values[i];
    }
    throw std::out_of_range("no field " + ref.field);
  }
  return std::nullopt;
}

bool matches(const KeySpec& spec, const KeyMatch& m, std::uint64_t v) {
  switch (spec.kind) {
    case MatchKind::kExact:
      return v == m.value;
    case MatchKind::kLpm: {
      if (m.prefix_len == 0) return true;
      const unsigned width = spec.width == 0 || spec.width > 64 ? 64 : spec.width;
      const unsigned plen = std::min(m.prefix_len, width);
      const std::uint64_t mask =
          plen >= 64 ? ~0ULL : (((1ULL << plen) - 1) << (width - plen));
      return (v & mask) == (m.value & mask);
    }
    case MatchKind::kTernary:
      return (v & m.mask) == (m.value & m.mask);
  }
  return false;
}

const TableEntry* lookup(const Table& t, const ParsedPacket& pkt) {
  const TableEntry* best = nullptr;
  unsigned best_spec = 0;
  for (const TableEntry& e : t.entries()) {
    bool hit = true;
    unsigned spec = 0;
    for (std::size_t i = 0; i < t.keys().size() && hit; ++i) {
      const auto v = read_key(pkt, t.keys()[i].field);
      hit = v && matches(t.keys()[i], e.keys[i], *v);
      if (t.keys()[i].kind == MatchKind::kLpm) spec += e.keys[i].prefix_len;
    }
    if (!hit) continue;
    if (best == nullptr || e.priority > best->priority ||
        (e.priority == best->priority && spec > best_spec)) {
      best = &e;
      best_spec = spec;
    }
  }
  return best;
}

}  // namespace reference

struct KeyField {
  FieldRef ref;
  unsigned bits;
  std::vector<std::uint64_t> values;  // what packets and entries draw from
};

// Key fields the random tables draw from: headers every packet has, the
// TCP header UDP packets lack, and metadata.
const std::vector<KeyField>& key_fields() {
  static const std::vector<KeyField> fields = {
      {{"ipv4", "dst"}, 32, {0x0a000105, 0x0a000202, 0x0a0003ff, 0xc0a80001}},
      {{"ipv4", "src"}, 32, {0x0a000101, 0x0a800001, 0xc0a80002}},
      {{"ipv4", "ttl"}, 8, {1, 64, 255}},
      {{"tcp", "dport"}, 16, {80, 443, 6667}},
      {{"tcp", "sport"}, 16, {1024, 40000}},
      {{"meta", "ingress_port"}, 32, {0, 1, 7}},
      {{"meta", "user0"}, 64, {0, 5, ~0ULL}},
  };
  return fields;
}

TableEntry random_entry(std::mt19937_64& rng, const std::vector<KeySpec>& keys,
                        const std::vector<const KeyField*>& fields,
                        const std::vector<std::string>& actions) {
  TableEntry e;
  for (std::size_t i = 0; i < keys.size(); ++i) {
    const auto& vals = fields[i]->values;
    const std::uint64_t v = vals[rng() % vals.size()];
    switch (keys[i].kind) {
      case MatchKind::kExact:
        e.keys.push_back(KeyMatch::exact(v));
        break;
      case MatchKind::kLpm:
        e.keys.push_back(KeyMatch::lpm(v, static_cast<unsigned>(
                                              rng() % (fields[i]->bits + 1))));
        break;
      case MatchKind::kTernary:
        e.keys.push_back(rng() % 4 == 0 ? KeyMatch::wildcard()
                                        : KeyMatch::ternary(v, rng()));
        break;
    }
  }
  e.priority = static_cast<std::uint32_t>(rng() % 4);
  e.action = actions[rng() % actions.size()];
  e.action_params = {rng() % 8};
  return e;
}

ParsedPacket random_packet(std::mt19937_64& rng, const ParserProgram& parser) {
  const auto pick = [&rng](std::size_t field) {
    const auto& vals = key_fields()[field].values;
    return vals[rng() % vals.size()];
  };
  PacketSpec spec;
  spec.ip_dst = static_cast<std::uint32_t>(pick(0));
  spec.ip_src = static_cast<std::uint32_t>(pick(1));
  spec.ttl = static_cast<std::uint8_t>(pick(2));
  spec.dport = static_cast<std::uint16_t>(pick(3));
  spec.sport = static_cast<std::uint16_t>(pick(4));
  spec.ingress_port = static_cast<std::uint32_t>(pick(5));
  RawPacket raw = make_tcp_packet(spec);
  // A UDP packet: the standard parser stops after ipv4, so tcp.* is absent.
  if (rng() % 3 == 0) raw.data[14 + 9] = 17;
  ParsedPacket pkt = parser.parse(raw);
  pkt.meta.user0 = pick(6);
  return pkt;
}

TEST(MatchAction, ResolvedLookupsMatchScanAndNameResolvingReference) {
  std::mt19937_64 rng(11);
  const std::vector<std::shared_ptr<DataplaneProgram>> programs = {
      make_router(), make_firewall(), make_acl()};
  for (const auto& prog : programs) {
    std::vector<std::string> actions;
    for (const auto& [name, def] : prog->actions()) actions.push_back(name);
    actions.push_back("nosuch");  // resolves to nothing

    // One random table per match kind; the LPM and ternary ones also get
    // an exact key.
    std::vector<Table*> tables;
    std::vector<std::vector<const KeyField*>> table_fields;
    for (const MatchKind kind :
         {MatchKind::kExact, MatchKind::kLpm, MatchKind::kTernary}) {
      std::vector<KeySpec> keys;
      std::vector<const KeyField*> fields;
      const std::size_t n = 1 + rng() % 3;
      for (std::size_t k = 0; k < n; ++k) {
        const KeyField& f = key_fields()[rng() % key_fields().size()];
        keys.push_back(KeySpec{f.ref, k == 0 ? kind : MatchKind::kExact,
                               f.bits});
        fields.push_back(&f);
      }
      Table& t = prog->add_table(
          "random" + std::to_string(tables.size()), std::move(keys));
      for (int i = 0; i < 6; ++i) {
        (void)t.add_entry(random_entry(rng, t.keys(), fields, actions));
      }
      tables.push_back(&t);
      table_fields.push_back(std::move(fields));
    }
    for (const auto& t : prog->tables()) {
      if (std::find(tables.begin(), tables.end(), t.get()) == tables.end()) {
        tables.push_back(t.get());  // the program's own tables too
        table_fields.emplace_back();
      }
    }

    for (int step = 0; step < 600; ++step) {
      // Mostly the program's parser; sometimes another one, whose packets
      // make the tables resolve their keys again.
      const ParsedPacket pkt = random_packet(
          rng, rng() % 4 == 0 ? std_parser() : prog->parser());
      for (Table* t : tables) {
        const TableEntry* want = reference::lookup(*t, pkt);
        ASSERT_EQ(t->lookup(pkt), want) << t->name() << " step " << step;
        ASSERT_EQ(t->lookup_scan(pkt), want) << t->name() << " step " << step;
        const Table::Selection sel = t->select(pkt);
        ASSERT_EQ(sel.entry, want);
        const std::string& action =
            want != nullptr ? want->action : t->default_action();
        if (action.empty()) {
          ASSERT_EQ(sel.action, nullptr);
          continue;
        }
        ASSERT_NE(sel.action, nullptr);
        ASSERT_EQ(*sel.action, action);
        const ActionDef* def = prog->action(action);
        ASSERT_EQ(sel.bound != nullptr, def != nullptr) << action;
        if (def != nullptr) {
          ASSERT_EQ(&sel.bound->def(), def);
        }
      }

      // Mutate one random table between lookups.
      const std::size_t ti = rng() % tables.size();
      Table& t = *tables[ti];
      if (table_fields[ti].empty()) continue;  // canned: leave as built
      const std::uint64_t op = rng() % 10;
      if (op < 3) {
        (void)t.add_entry(random_entry(rng, t.keys(), table_fields[ti], actions));
      } else if (op < 5 && t.entry_count() > 0) {
        (void)t.remove_entry(rng() % t.entry_count());
      } else if (op < 8 && t.entry_count() > 0) {
        TableEntry& e = t.entry_mut(rng() % t.entry_count());
        e = random_entry(rng, t.keys(), table_fields[ti], actions);
      } else if (op < 9) {
        t.set_default(rng() % 3 == 0 ? "" : actions[rng() % actions.size()],
                      {rng() % 8});
      } else if (rng() % 4 == 0) {
        t.clear();
      }
    }
  }
}

}  // namespace
}  // namespace pera::dataplane
