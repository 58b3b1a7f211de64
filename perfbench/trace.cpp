#include "trace.h"

#include <cstdio>
#include <cstring>

#include "bench.h"

namespace perfbench {

Tracer::Tracer(std::size_t capacity) : capacity_(capacity) {
  spans_.reserve(capacity_);
}

std::uint32_t Tracer::intern(const char* name) {
  // Span names are string literals, so pointer identity is the fast path.
  for (std::uint32_t i = 0; i < names_.size(); ++i) {
    if (names_[i] == name || std::strcmp(names_[i], name) == 0) return i;
  }
  names_.push_back(name);
  return static_cast<std::uint32_t>(names_.size() - 1);
}

std::uint32_t Tracer::begin(const char* name, std::uint64_t op,
                            std::uint32_t parent, std::int64_t start) {
  if (!enabled_) return kNone;
  if (spans_.size() >= capacity_) {
    ++dropped_;
    return kNone;
  }
  Span s;
  s.name = intern(name);
  s.parent = parent;
  s.op = op;
  s.start = start != 0 ? start : now_ns();
  spans_.push_back(s);
  return static_cast<std::uint32_t>(spans_.size() - 1);
}

void Tracer::end(std::uint32_t id) {
  if (id == kNone) return;
  spans_[id].end = now_ns();
}

std::uint32_t Tracer::record(const char* name, std::uint64_t op,
                             std::uint32_t parent, std::int64_t start,
                             std::int64_t end) {
  const std::uint32_t id = begin(name, op, parent, start);
  if (id != kNone) spans_[id].end = end;
  return id;
}

std::vector<std::int64_t> Tracer::self_times() const {
  // Children run on the recording thread inside their parent's interval
  // and never overlap each other, so the time they cover is their sum.
  std::vector<std::int64_t> self(spans_.size(), 0);
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (s.end == 0) continue;
    self[i] += s.end - s.start;
    if (s.parent != kNone && spans_[s.parent].end != 0) {
      self[s.parent] -= s.end - s.start;
    }
  }
  return self;
}

std::map<std::string, Tracer::LayerStat> Tracer::layers() const {
  const std::vector<std::int64_t> self = self_times();
  std::map<std::string, LayerStat> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (s.end == 0) continue;
    LayerStat& l = out[names_[s.name]];
    ++l.calls;
    l.self_ns += self[i];
    l.total_ns += s.end - s.start;
  }
  return out;
}

bool Tracer::write(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const std::vector<std::int64_t> self = self_times();
  std::fprintf(f, "id\tname\top\tparent\tstart_ns\tend_ns\tself_ns\n");
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f, "%zu\t%s\t%llu\t%lld\t%lld\t%lld\t%lld\n", i,
                 names_[s.name], static_cast<unsigned long long>(s.op),
                 s.parent == kNone ? -1LL : static_cast<long long>(s.parent),
                 static_cast<long long>(s.start),
                 static_cast<long long>(s.end),
                 static_cast<long long>(self[i]));
  }
  return std::fclose(f) == 0;
}

}  // namespace perfbench
