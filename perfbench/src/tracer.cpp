#include "tracer.hpp"

#include <cstdio>

namespace perfbench {

Tracer::Tracer() : origin_(std::chrono::steady_clock::now()) {}

std::int64_t Tracer::host_now_ns() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - origin_)
      .count();
}

Tracer::SpanId Tracer::begin(std::string name, SpanId parent,
                             std::int64_t request) {
  const std::int64_t now = host_now_ns();
  return add(std::move(name), Clock::kHost, now, now, parent, request);
}

void Tracer::end(SpanId id) { spans_.at(static_cast<std::size_t>(id)).end_ns = host_now_ns(); }

Tracer::SpanId Tracer::add(std::string name, Clock clock, std::int64_t start_ns,
                           std::int64_t end_ns, SpanId parent,
                           std::int64_t request) {
  spans_.push_back({std::move(name), clock, start_ns, end_ns, parent, request});
  return static_cast<SpanId>(spans_.size() - 1);
}

void Tracer::instant(std::string name, SpanId parent, std::int64_t request) {
  const std::int64_t now = host_now_ns();
  add(std::move(name), Clock::kHost, now, now, parent, request);
}

bool Tracer::write(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  bool ok = std::fputs("[\n", f) >= 0;
  for (std::size_t i = 0; i < spans_.size() && ok; ++i) {
    const Span& s = spans_[i];
    ok = std::fprintf(f,
                      "{\"id\":%zu,\"name\":\"%s\",\"clock\":\"%s\","
                      "\"start_ns\":%lld,\"end_ns\":%lld,\"parent\":%lld,"
                      "\"request\":%lld}%s\n",
                      i, s.name.c_str(), s.clock == Clock::kHost ? "host" : "sim",
                      static_cast<long long>(s.start_ns),
                      static_cast<long long>(s.end_ns),
                      static_cast<long long>(s.parent),
                      static_cast<long long>(s.request),
                      i + 1 < spans_.size() ? "," : "") >= 0;
  }
  ok = ok && std::fputs("]\n", f) >= 0;
  return std::fclose(f) == 0 && ok;
}

}  // namespace perfbench
