#include "harness.h"

#include <benchmark/benchmark.h>

#include <algorithm>
#include <charconv>
#include <cstdarg>
#include <cstdio>
#include <fstream>

#include "obs/obs.h"

namespace pera::bench {

// --- Json --------------------------------------------------------------------

std::string Json::quoted(std::string_view s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += "\\u00";
      out += "0123456789abcdef"[c >> 4];
      out += "0123456789abcdef"[c & 0xf];
    } else {
      out += c;
    }
  }
  return out + "\"";
}

void Json::next() {
  Frame& f = open_.back();
  if (f.lines) {
    out_ += f.first ? "\n" : ",\n";
    out_.append(2 * open_.size(), ' ');
  } else if (!f.first) {
    out_ += ", ";
  }
  f.first = false;
}

Json& Json::raw(std::string_view key, std::string_view json) {
  next();
  if (!open_.back().array) out_ += quoted(key) + ": ";
  out_ += json;
  return *this;
}

Json& Json::field(std::string_view key, double v, int precision) {
  char buf[400];  // fixed-point doubles run to 309 integer digits
  const auto r = std::to_chars(buf, buf + sizeof buf, v,
                               std::chars_format::fixed, precision);
  return raw(key, std::string_view(buf, r.ptr));
}

// Only the root and the root's arrays take one member per line.
Json& Json::open(bool array, bool lines) {
  out_ += array ? '[' : '{';
  open_.push_back(Frame{array, lines, true});
  return *this;
}

Json& Json::end() {
  const Frame f = open_.back();
  open_.pop_back();
  if (f.lines) out_ += "\n" + std::string(2 * open_.size(), ' ');
  out_ += f.array ? ']' : '}';
  return *this;
}

std::string Json::str() const {
  Json closed = *this;
  while (!closed.open_.empty()) closed.end();
  return closed.out_;
}

// --- Harness -----------------------------------------------------------------

namespace {

bool parse_size(std::string_view v, std::size_t& out) {
  const auto r = std::from_chars(v.data(), v.data() + v.size(), out);
  return r.ec == std::errc{} && r.ptr == v.data() + v.size();
}

bool parse_list(std::string_view v, std::vector<std::size_t>& out) {
  std::vector<std::size_t> list;
  for (std::size_t at = 0; at <= v.size();) {
    const std::size_t comma = std::min(v.find(',', at), v.size());
    if (!parse_size(v.substr(at, comma - at), list.emplace_back()) ||
        list.back() == 0) {
      return false;
    }
    at = comma + 1;
  }
  out = std::move(list);
  return true;
}

}  // namespace

Harness::Harness(Runner runner, std::string record_path)
    : runner_(runner), record_path_(std::move(record_path)) {
  if (!record_path_.empty()) output("json", record_path_, "JSON record");
  output("metrics-json", metrics_path_,
         "enable observability, dump it to PATH at the end (\"-\" = stdout)");
  flag("trace-capacity", trace_capacity_,
       "trace ring size under --metrics-json; 0 keeps the built-in size");
}

void Harness::flag(std::string name, bool& target, std::string help) {
  flags_.push_back({std::move(name), "", std::move(help),
                    [&target](std::string_view) { return target = true; }});
}

void Harness::flag(std::string name, std::size_t& target, std::string help) {
  help += " (default " + std::to_string(target) + ")";
  flags_.push_back({std::move(name), "N", std::move(help),
                    [&target](std::string_view v) {
                      return parse_size(v, target);
                    }});
}

void Harness::flag(std::string name, std::vector<std::size_t>& target,
                   std::string help) {
  flags_.push_back({std::move(name), "LIST", std::move(help),
                    [&target](std::string_view v) {
                      return parse_list(v, target);
                    }});
}

void Harness::flag(std::string name,
                   std::function<bool(std::string_view)> parse,
                   std::string help) {
  flags_.push_back({std::move(name), "VALUE", std::move(help), parse});
}

void Harness::output(std::string name, std::string& target,
                     std::string help) {
  if (!target.empty()) help += " (default " + target + ")";
  flags_.push_back({std::move(name), "PATH", std::move(help),
                    [&target](std::string_view v) { target = v; return true; },
                    &target});
}

int Harness::usage(const std::string& error) const {
  std::fprintf(stderr, "%s: %s\nusage: %s [flags]\n", program_.c_str(),
               error.c_str(), program_.c_str());
  for (const Flag& f : flags_) {
    const std::string form =
        "--" + f.name + (f.value_hint.empty() ? "" : "=" + f.value_hint);
    std::fprintf(stderr, "  %-22s %s\n", form.c_str(), f.help.c_str());
  }
  if (runner_ == Runner::kGoogleBenchmark) {
    std::fprintf(stderr, "  %-22s passed to Google Benchmark\n",
                 "--benchmark_*");
  }
  return 2;
}

int Harness::parse(int argc, char** argv) {
  const std::string_view argv0 = argc > 0 ? argv[0] : "bench";
  program_ = argv0.substr(argv0.rfind('/') + 1);
  std::vector<char*> benchmark_argv(argv, argv + std::min(argc, 1));
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (runner_ == Runner::kGoogleBenchmark &&
        arg.starts_with("--benchmark_")) {
      benchmark_argv.push_back(argv[i]);
      continue;
    }
    const std::size_t eq = arg.find('=');
    const auto f = std::find_if(flags_.begin(), flags_.end(), [&](auto& g) {
      return arg.starts_with("--") && arg.substr(2, eq - 2) == g.name;
    });
    if (f == flags_.end()) {
      return usage("unknown argument " + std::string(arg));
    }
    const bool has_value = eq != std::string_view::npos;
    const bool ok = f->value_hint.empty()
                        ? !has_value && f->parse({})
                        : has_value && eq + 1 < arg.size() &&
                              f->parse(arg.substr(eq + 1));
    if (!ok) {
      return usage("bad flag " + std::string(arg) + ", expected --" +
                   f->name + (f->value_hint.empty() ? "" : "=") +
                   f->value_hint);
    }
  }
  if (runner_ == Runner::kGoogleBenchmark) {
    int n = static_cast<int>(benchmark_argv.size());
    benchmark::Initialize(&n, benchmark_argv.data());
    if (benchmark::ReportUnrecognizedArguments(n, benchmark_argv.data())) {
      return 2;
    }
  }
  // Append mode leaves an existing file as it is until the real write.
  for (const Flag& f : flags_) {
    if (f.output == nullptr || f.output->empty() || *f.output == "-") continue;
    std::FILE* probe = std::fopen(f.output->c_str(), "a");
    if (probe == nullptr) {
      std::perror((program_ + ": cannot write " + *f.output).c_str());
      return 1;
    }
    std::fclose(probe);
  }
  if (runner_ == Runner::kPlain) start_metrics();
  return 0;
}

void Harness::start_metrics() {
  if (metrics_path_.empty()) return;
  if (trace_capacity_ > 0) obs::trace().set_capacity(trace_capacity_);
  obs::reset();
  obs::set_enabled(true);
}

void Harness::run_benchmarks() {
  start_metrics();
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
}

bool Harness::write(const Json& record, std::string path) {
  if (path.empty()) path = record_path_;
  std::ofstream out(path);
  out << record.str() << '\n';
  if (!out.flush()) {
    std::fprintf(stderr, "%s: cannot write %s\n", program_.c_str(),
                 path.c_str());
    failed_ = true;
    return false;
  }
  std::printf("wrote %s\n", path.c_str());
  return true;
}

bool Harness::gate(const char* name, bool ok, const char* detail, ...) {
  std::FILE* out = ok ? stdout : stderr;
  std::fprintf(out, "%s [%s]: ", ok ? "gate pass" : "GATE FAIL", name);
  va_list args;
  va_start(args, detail);
  std::vfprintf(out, detail, args);
  va_end(args);
  std::fputc('\n', out);
  gates_failed_ += ok ? 0 : 1;
  return ok;
}

int Harness::finish() {
  if (!metrics_path_.empty() && !obs::write_json(metrics_path_)) {
    std::fprintf(stderr, "%s: cannot write metrics to %s\n", program_.c_str(),
                 metrics_path_.c_str());
    failed_ = true;
  }
  if (gates_failed_ > 0) {
    std::fprintf(stderr, "%s: %d gate violation(s)\n", program_.c_str(),
                 gates_failed_);
  }
  return failed_ || gates_failed_ > 0 ? 1 : 0;
}

}  // namespace pera::bench
