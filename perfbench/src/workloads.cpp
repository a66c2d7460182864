#include "workloads.hpp"

#include <algorithm>
#include <memory>
#include <stdexcept>

#include "bench/bench_common.hpp"
#include "core/fast_replay.hpp"
#include "model/workload.hpp"
#include "serve/kv_tracker.hpp"
#include "serve/policy.hpp"

namespace perfbench {

namespace core = edgemm::core;
namespace model = edgemm::model;
namespace serve = edgemm::serve;

namespace {

// Traces per pass and their lengths are sized so that the simulated
// metrics of one run vary by about a tenth or less across seeds.
/// Detailed replays per pass: three §1-shape traces, so one run pools 96
/// requests without turning the §1 backlog into a longer, growing one.
constexpr std::size_t kDetailedTraces = 3;
/// The zoo's placement state persists for hundreds of requests, so
/// independent traces settle its latency percentiles faster than one
/// longer trace.
constexpr std::size_t kZooTraces = 4;
constexpr std::size_t kZooRequestsPerTrace = 1000;
constexpr std::size_t kOverloadRequests = 2000;

/// The serving_trace bench's coarsened chip at factor 8: larger
/// double-buffer blocks and DMA bursts, same total traffic and compute.
core::ChipConfig coarsened_chip8() {
  core::ChipConfig cfg = core::default_chip_config();
  cfg.timing_block_scale = 8.0;
  cfg.dma.burst_bytes *= 4;
  cfg.dma.throttle_interval *= 4;
  return cfg;
}

/// serving_trace §1's trace: SPHINX-Tiny, Poisson 12 req/s, 300 prompt
/// tokens, outputs U[32, 256].
serve::TraceConfig headline_trace(std::uint64_t seed) {
  serve::TraceConfig t;
  t.requests = 32;
  t.arrival_rate_per_s = 12.0;
  t.input_tokens = 300;
  t.min_output_tokens = 32;
  t.max_output_tokens = 256;
  t.seed = seed;
  return t;
}

serve::EngineConfig continuous_bw_mgmt() {
  return serve::EngineConfig()
      .scheduler(std::make_shared<serve::ConcurrencyPolicy>(
          serve::AdmissionLimits{8, 16}))
      .manage_bandwidth(true);
}

/// Seed of trace `k` of a pass: trace 0 uses the benchmark seed itself
/// (so seed 42 replays serving_trace's own trace), later ones a
/// splitmix64 step away from it.
std::uint64_t trace_seed(std::uint64_t seed, std::size_t k) {
  if (k == 0) return seed;
  std::uint64_t z = seed + 0x9E3779B97F4A7C15ULL * k;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

Workload detailed_poisson(std::uint64_t seed, bool shrink) {
  Workload w;
  w.name = "detailed_poisson";
  w.chip = coarsened_chip8();
  w.models = {model::sphinx_tiny()};
  w.engine = continuous_bw_mgmt();
  w.fast_shadow = true;
  const std::size_t traces = shrink ? 1 : kDetailedTraces;
  for (std::size_t k = 0; k < traces; ++k) {
    serve::TraceConfig t = headline_trace(trace_seed(seed, k));
    if (shrink) t.requests = 4;
    w.traces.push_back(t);
  }
  return w;
}

Workload fast_zoo_long(std::uint64_t seed, bool shrink) {
  Workload w;
  w.name = "fast_zoo_long";
  w.chip = coarsened_chip8();
  const edgemm::bench::ZooScenario zoo =
      edgemm::bench::make_zoo_scenario(headline_trace(seed), w.chip);
  w.models = zoo.models;
  w.engine = continuous_bw_mgmt()
                 .prefill_planner(
                     std::make_shared<serve::ResidentChunkedPrefill>(128))
                 .weight_residency_bytes(zoo.residency_budget)
                 .placement_policy(
                     std::make_shared<serve::DemandWeightedPlacement>())
                 .replay_mode(core::ReplayMode::kFast);
  // 1 req/s keeps the zoo at steady state: at the scenario's own
  // 2 req/s the decode slots saturate and some seeds build a backlog.
  serve::TraceConfig t = zoo.trace;
  t.arrival_rate_per_s = 1.0;
  t.requests = shrink ? 40 : kZooRequestsPerTrace;
  for (std::size_t k = 0; k < (shrink ? 1 : kZooTraces); ++k) {
    t.seed = trace_seed(seed, k);
    w.traces.push_back(t);
  }
  return w;
}

Workload fast_overload_quality(std::uint64_t seed, bool shrink) {
  Workload w;
  w.name = "fast_overload_quality";
  w.chip = coarsened_chip8();
  const edgemm::bench::ZooScenario zoo =
      edgemm::bench::make_zoo_scenario(headline_trace(seed), w.chip);
  w.models = zoo.models;
  serve::TraceConfig t = zoo.trace;
  t.requests = shrink ? 24 : kOverloadRequests;
  t.arrival_rate_per_s = 4.0;
  t.burst = 4;
  t.slo_base_ms = 4000.0;
  t.slo_per_token_ms = 100.0;
  t.prefix_groups = 4;
  t.prefix_tokens = 256;
  w.traces.push_back(t);

  // A tight paged-KV budget: one and a half worst-case requests of the
  // hungriest model, in pages of 16 of its tokens.
  edgemm::Bytes worst = 0;
  std::size_t page_tokens_bytes = 0;
  for (const model::MllmConfig& m : w.models) {
    serve::Request r;
    r.input_tokens = t.input_tokens;
    r.output_tokens = t.max_output_tokens;
    worst = std::max(worst, serve::kv_footprint_bytes(r, m));
    page_tokens_bytes =
        std::max(page_tokens_bytes, 16 * model::kv_bytes_per_token(m));
  }
  w.engine = serve::EngineConfig()
                 .scheduler(std::make_shared<serve::SloAwarePolicy>(
                     serve::AdmissionLimits{8, 16}))
                 .manage_bandwidth(true)
                 .prefill_planner(std::make_shared<serve::ChunkedPrefill>(256))
                 .kv_capacity_bytes(worst + worst / 2)
                 .paged_kv(true)
                 .kv_page_bytes(page_tokens_bytes)
                 .quality_policy(std::make_shared<serve::SloPressureQuality>())
                 .quality_band(0.5, 1.0)
                 .replay_mode(core::ReplayMode::kFast);
  return w;
}

}  // namespace

Workload make_workload(const std::string& name, std::uint64_t seed,
                       bool shrink) {
  if (name == "detailed_poisson") return detailed_poisson(seed, shrink);
  if (name == "fast_zoo_long") return fast_zoo_long(seed, shrink);
  if (name == "fast_overload_quality") {
    return fast_overload_quality(seed, shrink);
  }
  throw std::invalid_argument("unknown workload: " + name);
}

Workload reference_workload() {
  Workload w = detailed_poisson(42, false);
  w.name = "reference_s1";
  w.traces.resize(1);
  w.fast_shadow = false;
  return w;
}

std::vector<std::vector<serve::Request>> generate_traces(const Workload& w) {
  std::vector<std::vector<serve::Request>> out;
  out.reserve(w.traces.size());
  for (const serve::TraceConfig& t : w.traces) {
    out.push_back(serve::poisson_trace(t));
  }
  return out;
}

}  // namespace perfbench
