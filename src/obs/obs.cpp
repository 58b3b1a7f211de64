#include "obs/obs.h"

#include <cstdio>

namespace pera::obs {

namespace {

struct Globals {
  MetricsRegistry metrics;
  TraceSink trace;
};

Globals& globals() {
  static Globals g;
  return g;
}

}  // namespace

void set_enabled(bool on) {
  detail::g_enabled.store(on, std::memory_order_relaxed);
}

MetricsRegistry& metrics() { return globals().metrics; }

TraceSink& trace() { return globals().trace; }

void reset() {
  globals().metrics.reset_values();
  globals().trace.clear();
}

void count(std::string_view name, std::uint64_t delta) {
  if (!enabled()) return;
  globals().metrics.counter(name).add(delta);
}

void gauge_set(std::string_view name, std::int64_t value) {
  if (!enabled()) return;
  globals().metrics.gauge(name).set(value);
}

void observe(std::string_view histogram, std::int64_t value) {
  if (!enabled()) return;
  globals().metrics.histogram(histogram).observe(value);
}

void event(SpanKind kind, std::string_view name, netsim::SimTime duration,
           std::uint64_t value) {
  if (!enabled()) return;
  SpanEvent ev;
  ev.kind = kind;
  ev.name = std::string(name);
  ev.at = sim_now();
  ev.duration = duration;
  ev.value = value;
  globals().trace.record(std::move(ev));
}

std::string dump_json() {
  return "{\"metrics\":" + globals().metrics.to_json() +
         ",\"trace\":" + globals().trace.to_json() + "}";
}

bool write_json(const std::string& path) {
  const std::string json = dump_json() + "\n";
  if (path == "-") {
    return std::fwrite(json.data(), 1, json.size(), stdout) == json.size();
  }
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const bool written =
      std::fwrite(json.data(), 1, json.size(), f) == json.size();
  return std::fclose(f) == 0 && written;
}

}  // namespace pera::obs
