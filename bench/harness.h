// One bench harness: every bench_* binary parses its flags, writes its
// JSON record, dumps the metrics and reports its gates through here.
//
//   bench::Harness h(bench::Runner::kPlain, "BENCH_state.json");
//   h.flag("rounds", rounds, "measured rounds per cell");
//   if (const int rc = h.parse(argc, argv); rc != 0) return rc;
//   ... run, fill a bench::Json ...
//   h.write(record);
//   h.gate("digest-identity", roots_match, "at n=%zu", n);
//   return h.finish();
//
// Flags take the form --name=VALUE (a switch is a bare --name). Every
// binary takes --metrics-json=PATH (obs on, dumped to PATH at the end;
// "-" = stdout) and --trace-capacity=N, plus --json=PATH when it writes a
// record; a Google Benchmark binary passes --benchmark_* through. A bad
// flag, "--json PATH" included, prints usage and exits 2; an output that
// cannot be opened exits 1 before anything runs.
#pragma once

#include <concepts>
#include <cstddef>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

namespace pera::bench {

/// JSON record writer with the layout of every BENCH_*.json: the root
/// object one field per line, its arrays one element per line, anything
/// deeper on one line, always "key": value. Doubles are fixed-point at
/// the precision the caller names ("%.*f").
class Json {
 public:
  Json& field(std::string_view key, bool v) {
    return raw(key, v ? "true" : "false");
  }
  Json& field(std::string_view key, std::string_view v) {
    return raw(key, quoted(v));
  }
  Json& field(std::string_view key, const char* v) {
    return field(key, std::string_view{v});
  }
  template <std::integral T>
  Json& field(std::string_view key, T v) {
    return raw(key, std::to_string(v));
  }
  Json& field(std::string_view key, double v, int precision);
  Json& field(std::string_view key, double v) = delete;  // name a precision
  /// An already-serialised JSON value, copied verbatim. Inside an array
  /// the key is dropped: the value is the next element.
  Json& raw(std::string_view key, std::string_view json);

  /// Open an object / array under `key`, or an object element of the
  /// innermost array; end() closes the innermost one.
  Json& object(std::string_view key) { return raw(key, {}).open(false, false); }
  Json& array(std::string_view key) {
    return raw(key, {}).open(true, open_.size() == 1);
  }
  Json& object() { return raw({}, {}).open(false, false); }
  Json& end();

  /// The document, every container still open closed.
  [[nodiscard]] std::string str() const;

 private:
  struct Frame {
    bool array, lines, first;
  };
  static std::string quoted(std::string_view s);
  void next();
  Json& open(bool array, bool lines);

  std::string out_ = "{";
  std::vector<Frame> open_{{false, true, true}};
};

/// A Google Benchmark binary runs the registered benchmarks (and takes
/// --benchmark_* flags); a plain one is its own sweep.
enum class Runner { kPlain, kGoogleBenchmark };

class Harness {
 public:
  /// A non-empty `record_path` declares --json=PATH with that default.
  explicit Harness(Runner runner, std::string record_path = {});
  Harness(const Harness&) = delete;  // the flags point into this object
  Harness& operator=(const Harness&) = delete;

  /// Declare a flag bound to `target`, which holds its default.
  void flag(std::string name, bool& target, std::string help);  // --name
  void flag(std::string name, std::size_t& target, std::string help);
  /// Comma-separated positive integers, e.g. --shards=1,4.
  void flag(std::string name, std::vector<std::size_t>& target,
            std::string help);
  /// Any other value: `parse` returns false to reject it.
  void flag(std::string name, std::function<bool(std::string_view)> parse,
            std::string help);
  /// An output path, opened before the run so a bad one fails fast.
  void output(std::string name, std::string& target, std::string help);

  /// 0 to go on, 2 on a bad flag (usage printed), 1 when an output
  /// cannot be opened. A kPlain binary's metrics start here.
  [[nodiscard]] int parse(int argc, char** argv);

  /// Run the Google Benchmark benchmarks, metrics on (kGoogleBenchmark).
  void run_benchmarks();

  /// Write `record` to `path` (default: the --json path) and print
  /// "wrote PATH"; a failed write fails finish().
  bool write(const Json& record, std::string path = {});

  /// Print one gate verdict with a printf-style detail; a failed gate
  /// fails finish(). Returns `ok`.
  bool gate(const char* name, bool ok, const char* detail, ...)
      __attribute__((format(printf, 4, 5)));
  [[nodiscard]] bool gates_passed() const { return gates_failed_ == 0; }

  /// Dump the metrics; 0 iff every write succeeded and every gate passed.
  [[nodiscard]] int finish();

 private:
  struct Flag {
    std::string name, value_hint, help;  // value_hint "" = a switch
    std::function<bool(std::string_view)> parse;
    std::string* output = nullptr;
  };
  int usage(const std::string& error) const;
  void start_metrics();

  Runner runner_;
  std::string program_ = "bench";
  std::vector<Flag> flags_;
  std::string record_path_, metrics_path_;
  std::size_t trace_capacity_ = 0;
  bool failed_ = false;
  int gates_failed_ = 0;
};

}  // namespace pera::bench
