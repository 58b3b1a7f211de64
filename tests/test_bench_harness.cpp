// The bench harness (bench/harness.h): flag parsing, the JSON record
// writer and the gate list that every bench_* binary starts through.
#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "harness.h"

namespace {

using pera::bench::Harness;
using pera::bench::Json;
using pera::bench::Runner;

// argv for Harness::parse, owning its strings.
struct Argv {
  explicit Argv(std::vector<std::string> args) : strings(std::move(args)) {
    strings.insert(strings.begin(), "/path/to/bench_test");
    for (std::string& s : strings) ptrs.push_back(s.data());
  }
  int argc() const { return static_cast<int>(ptrs.size()); }
  char** argv() { return ptrs.data(); }

  std::vector<std::string> strings;
  std::vector<char*> ptrs;
};

int parse(Harness& h, std::vector<std::string> args) {
  Argv a(std::move(args));
  return h.parse(a.argc(), a.argv());
}

TEST(BenchHarnessFlags, TypedValuesAndDefaults) {
  Harness h(Runner::kPlain);
  bool smoke = false;
  bool pin = false;
  std::size_t rounds = 3;
  std::size_t seeds = 5;
  std::vector<std::size_t> shards = {1, 2, 4, 8};
  std::string scheme = "hmac";
  h.flag("smoke", smoke, "tiny sizes");
  h.flag("pin", pin, "pin threads");
  h.flag("rounds", rounds, "rounds per cell");
  h.flag("seeds", seeds, "seeds per cell");
  h.flag("shards", shards, "shard counts");
  h.flag(
      "scheme",
      [&scheme](std::string_view v) {
        scheme = v;
        return v == "hmac" || v == "xmss";
      },
      "signature scheme");
  ASSERT_EQ(parse(h, {"--smoke", "--rounds=12", "--shards=1,4",
                      "--scheme=xmss"}),
            0);
  EXPECT_TRUE(smoke);
  EXPECT_FALSE(pin);                  // default kept
  EXPECT_EQ(rounds, 12u);
  EXPECT_EQ(seeds, 5u);               // default kept
  EXPECT_EQ(shards, (std::vector<std::size_t>{1, 4}));
  EXPECT_EQ(scheme, "xmss");
}

TEST(BenchHarnessFlags, LastOccurrenceWins) {
  Harness h(Runner::kPlain);
  std::size_t rounds = 3;
  h.flag("rounds", rounds, "rounds per cell");
  ASSERT_EQ(parse(h, {"--rounds=7", "--rounds=9"}), 0);
  EXPECT_EQ(rounds, 9u);
}

TEST(BenchHarnessFlags, GoogleBenchmarkFlagsPassThrough) {
  Harness h(Runner::kGoogleBenchmark);
  bool smoke = false;
  h.flag("smoke", smoke, "tiny windows");
  ASSERT_EQ(parse(h, {"--benchmark_min_time=0.01", "--smoke",
                      "--benchmark_filter=NONE"}),
            0);
  EXPECT_TRUE(smoke);
  // Google Benchmark itself rejects the --benchmark_* flags it lacks.
  Harness g(Runner::kGoogleBenchmark);
  EXPECT_EQ(parse(g, {"--benchmark_no_such_flag=1"}), 2);
}

TEST(BenchHarnessFlags, PlainBinaryRejectsGoogleBenchmarkFlags) {
  Harness h(Runner::kPlain);
  EXPECT_EQ(parse(h, {"--benchmark_min_time=0.01"}), 2);
}

TEST(BenchHarnessFlags, RejectsUnknownAndMalformedFlags) {
  const auto rc = [](std::vector<std::string> args) {
    Harness h(Runner::kPlain, "BENCH_unused.json");
    bool smoke = false;
    std::size_t rounds = 3;
    std::vector<std::size_t> shards = {1, 2};
    h.flag("smoke", smoke, "tiny sizes");
    h.flag("rounds", rounds, "rounds per cell");
    h.flag("shards", shards, "shard counts");
    return parse(h, std::move(args));
  };
  EXPECT_EQ(rc({"--unknown"}), 2);
  EXPECT_EQ(rc({"--unknown=1"}), 2);
  EXPECT_EQ(rc({"-smoke"}), 2);
  EXPECT_EQ(rc({"stray"}), 2);
  EXPECT_EQ(rc({"--smoke=1"}), 2);      // a switch takes no value
  EXPECT_EQ(rc({"--rounds"}), 2);       // a value flag needs one
  EXPECT_EQ(rc({"--rounds="}), 2);
  EXPECT_EQ(rc({"--rounds=3x"}), 2);
  EXPECT_EQ(rc({"--rounds=-1"}), 2);
  EXPECT_EQ(rc({"--shards=0"}), 2);     // counts are positive
  EXPECT_EQ(rc({"--shards=1,,4"}), 2);
  EXPECT_EQ(rc({"--shards=,"}), 2);
  EXPECT_EQ(rc({"--shards=x"}), 2);
  EXPECT_EQ(rc({"--trace-capacity=lots"}), 2);
}

TEST(BenchHarnessFlags, RejectsSpaceSeparatedValue) {
  Harness h(Runner::kPlain, "BENCH_unused.json");
  EXPECT_EQ(parse(h, {"--json", "build/x.json"}), 2);
  Harness g(Runner::kGoogleBenchmark);
  EXPECT_EQ(parse(g, {"--metrics-json", "x.json"}), 2);
}

TEST(BenchHarnessFlags, UnwritableOutputFailsBeforeTheRun) {
  Harness h(Runner::kPlain, "BENCH_unused.json");
  EXPECT_EQ(parse(h, {"--json=/nonexistent-dir/BENCH.json"}), 1);
  Harness m(Runner::kGoogleBenchmark);
  EXPECT_EQ(parse(m, {"--metrics-json=/nonexistent-dir/m.json"}), 1);
}

TEST(BenchHarnessJson, RecordLayout) {
  Json j;
  j.field("packets", std::size_t{4096})
      .field("scheme", "hmac")
      .object("cpu")
      .field("shani", true)
      .field("avx2", false)
      .end()
      .array("cells");
  j.object().field("shards", 1).field("rate", 2.25, 1).end();
  j.object().field("shards", 4).field("rate", 10.0, 1).end();
  j.end().array("empty");
  EXPECT_EQ(j.str(),
            "{\n"
            "  \"packets\": 4096,\n"
            "  \"scheme\": \"hmac\",\n"
            "  \"cpu\": {\"shani\": true, \"avx2\": false},\n"
            "  \"cells\": [\n"
            "    {\"shards\": 1, \"rate\": 2.2},\n"
            "    {\"shards\": 4, \"rate\": 10.0}\n"
            "  ],\n"
            "  \"empty\": [\n"
            "  ]\n"
            "}");
}

TEST(BenchHarnessJson, FixedPrecisionMatchesPrintf) {
  const double values[] = {0.0, 0.5, 1.25, 2.675, 1234567.891, 3e-7,
                           -0.049, 1e15 / 3.0};
  for (const double v : values) {
    for (int precision = 0; precision <= 4; ++precision) {
      Json j;
      j.field("v", v, precision);
      char want[64];
      std::snprintf(want, sizeof want, "{\n  \"v\": %.*f\n}", precision, v);
      EXPECT_EQ(j.str(), want);
    }
  }
}

TEST(BenchHarnessJson, IntegersInFull) {
  Json j;
  j.field("neg", -42)
      .field("big", std::uint64_t{18446744073709551615ULL})
      .field("ll", static_cast<long long>(-9000000000LL));
  EXPECT_EQ(j.str(),
            "{\n  \"neg\": -42,\n  \"big\": 18446744073709551615,\n"
            "  \"ll\": -9000000000\n}");
}

TEST(BenchHarnessJson, EscapesStrings) {
  Json j;
  j.field("q\"k", "say \"hi\" \\ path\\to\n\x01");
  EXPECT_EQ(j.str(),
            "{\n  \"q\\\"k\": "
            "\"say \\\"hi\\\" \\\\ path\\\\to\\u000a\\u0001\"\n}");
}

TEST(BenchHarnessJson, NestedArraysAndRawFragments) {
  Json j;
  j.array("cells");
  j.object().field("id", 1).array("hops");
  j.object().field("at", "a").end();
  j.object().field("at", "b").end();
  j.end().raw("profile", "{\"stages\":{}}").end();
  EXPECT_EQ(j.str(),
            "{\n"
            "  \"cells\": [\n"
            "    {\"id\": 1, \"hops\": [{\"at\": \"a\"}, {\"at\": \"b\"}], "
            "\"profile\": {\"stages\":{}}}\n"
            "  ]\n"
            "}");
}

TEST(BenchHarnessGates, NoGatesExitZero) {
  Harness h(Runner::kPlain);
  ASSERT_EQ(parse(h, {}), 0);
  EXPECT_TRUE(h.gates_passed());
  EXPECT_EQ(h.finish(), 0);
}

TEST(BenchHarnessGates, PassingGatesExitZero) {
  Harness h(Runner::kPlain);
  ASSERT_EQ(parse(h, {}), 0);
  EXPECT_TRUE(h.gate("a", true, "detail"));
  EXPECT_TRUE(h.gate("b", true, "n=%d", 4));
  EXPECT_TRUE(h.gates_passed());
  EXPECT_EQ(h.finish(), 0);
}

TEST(BenchHarnessGates, OneFailedGateSetsTheExitCode) {
  Harness h(Runner::kPlain);
  ASSERT_EQ(parse(h, {}), 0);
  EXPECT_TRUE(h.gate("a", true, "first"));
  EXPECT_FALSE(h.gate("b", false, "expected failure"));
  EXPECT_TRUE(h.gate("c", true, "after the failure"));
  EXPECT_FALSE(h.gates_passed());
  EXPECT_EQ(h.finish(), 1);
}

TEST(BenchHarnessGates, FailedWriteSetsTheExitCode) {
  Harness h(Runner::kPlain);
  ASSERT_EQ(parse(h, {}), 0);
  EXPECT_FALSE(h.write(Json{}, "/nonexistent-dir/record.json"));
  EXPECT_TRUE(h.gates_passed());
  EXPECT_EQ(h.finish(), 1);
}

}  // namespace
