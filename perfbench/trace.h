// In-memory span recorder for the traced run.
//
// A span is one call into a layer: name, start, end, parent span and the
// op it belongs to (the packet seq or the round nonce). Spans are kept in
// a preallocated vector on the recording thread only — no locks — and
// written out once, at exit. A layer's self time is its span's duration
// minus the time its child spans cover.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

class Tracer {
 public:
  static constexpr std::uint32_t kNone = ~0U;

  /// Record at most `capacity` spans; further spans are counted as
  /// dropped. A tracer built with capacity 0 records nothing.
  explicit Tracer(std::size_t capacity);

  void set_enabled(bool on) { enabled_ = on && capacity_ > 0; }

  /// Open a span starting now (or at `start`, when nonzero); returns its
  /// id (kNone when off or full).
  std::uint32_t begin(const char* name, std::uint64_t op,
                      std::uint32_t parent = kNone, std::int64_t start = 0);
  /// Close span `id` (no-op for kNone).
  void end(std::uint32_t id);
  /// Add an already-timed span, for calls whose layer name is known only
  /// after they return (a cache hit or miss).
  std::uint32_t record(const char* name, std::uint64_t op,
                       std::uint32_t parent, std::int64_t start,
                       std::int64_t end);

  /// RAII helper for a span that closes at scope exit.
  class Scope {
   public:
    Scope(Tracer& t, const char* name, std::uint64_t op,
          std::uint32_t parent = kNone)
        : t_(&t), id_(t.begin(name, op, parent)) {}
    ~Scope() { t_->end(id_); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    [[nodiscard]] std::uint32_t id() const { return id_; }

   private:
    Tracer* t_;
    std::uint32_t id_;
  };

  struct LayerStat {
    std::uint64_t calls = 0;
    std::int64_t self_ns = 0;
    std::int64_t total_ns = 0;
  };
  /// Per span name: calls, summed self time and summed duration. Spans
  /// left open are ignored.
  [[nodiscard]] std::map<std::string, LayerStat> layers() const;

  [[nodiscard]] std::size_t size() const { return spans_.size(); }
  [[nodiscard]] std::uint64_t dropped() const { return dropped_; }

  /// Write every span as one tab-separated line:
  ///   id  name  op  parent  start_ns  end_ns  self_ns
  /// Returns false when the file cannot be written.
  bool write(const std::string& path) const;

 private:
  struct Span {
    std::uint32_t name = 0;
    std::uint32_t parent = kNone;
    std::uint64_t op = 0;
    std::int64_t start = 0;
    std::int64_t end = 0;
  };
  [[nodiscard]] std::uint32_t intern(const char* name);
  [[nodiscard]] std::vector<std::int64_t> self_times() const;

  std::size_t capacity_;
  bool enabled_ = false;
  std::vector<Span> spans_;
  std::vector<const char*> names_;
  std::uint64_t dropped_ = 0;
};

}  // namespace perfbench
