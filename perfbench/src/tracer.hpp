// In-memory span recorder for the benchmark's traced run. Spans are
// kept in a vector and written out as JSON once the run ends; the
// untraced run never constructs a Tracer, so tracing costs it nothing.
#ifndef EDGEMM_PERFBENCH_TRACER_HPP
#define EDGEMM_PERFBENCH_TRACER_HPP

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

class Tracer {
 public:
  using SpanId = std::int64_t;
  static constexpr SpanId kNone = -1;
  static constexpr std::int64_t kNoRequest = -1;

  /// Host spans are timed on the steady clock (ns since the tracer was
  /// made); simulated spans carry simulated ns.
  enum class Clock : std::uint8_t { kHost, kSim };

  Tracer();

  /// Opens a host-time span now; close it with end().
  SpanId begin(std::string name, SpanId parent,
               std::int64_t request = kNoRequest);
  void end(SpanId id);
  /// Records a finished span.
  SpanId add(std::string name, Clock clock, std::int64_t start_ns,
             std::int64_t end_ns, SpanId parent,
             std::int64_t request = kNoRequest);
  /// A zero-length host-time span at the current instant.
  void instant(std::string name, SpanId parent, std::int64_t request);

  std::int64_t host_now_ns() const;
  std::size_t size() const { return spans_.size(); }

  /// Writes every span as a JSON array; false on an I/O failure.
  bool write(const std::string& path) const;

 private:
  struct Span {
    std::string name;
    Clock clock;
    std::int64_t start_ns;
    std::int64_t end_ns;
    SpanId parent;
    std::int64_t request;
  };
  std::chrono::steady_clock::time_point origin_;
  std::vector<Span> spans_;
};

/// Scoped host span that does nothing without a tracer.
class SpanScope {
 public:
  SpanScope(Tracer* tracer, std::string name, Tracer::SpanId parent,
            std::int64_t request = Tracer::kNoRequest)
      : tracer_(tracer),
        id_(tracer ? tracer->begin(std::move(name), parent, request)
                   : Tracer::kNone) {}
  ~SpanScope() {
    if (tracer_ != nullptr) tracer_->end(id_);
  }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

  Tracer::SpanId id() const { return id_; }

 private:
  Tracer* tracer_;
  Tracer::SpanId id_;
};

}  // namespace perfbench

#endif  // EDGEMM_PERFBENCH_TRACER_HPP
