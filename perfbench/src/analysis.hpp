// What the benchmark reads out of a finished replay: per-layer counters
// from the engine's public accessors, output checks, a digest of every
// simulated output, and the simulated-time metrics pooled over a pass.
#ifndef EDGEMM_PERFBENCH_ANALYSIS_HPP
#define EDGEMM_PERFBENCH_ANALYSIS_HPP

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "core/config.hpp"
#include "serve/request.hpp"
#include "serve/serving_engine.hpp"

namespace perfbench {

using edgemm::Bytes;
using edgemm::Cycle;

/// Counters of the sim, mem and core layers after one replay.
struct LayerCounters {
  std::uint64_t events = 0;         ///< sim: events the queue executed
  Bytes dram_bytes = 0;             ///< mem: bytes the DRAM channel served
  Cycle dram_busy_cycles = 0;       ///< mem: cycles the channel was busy
  Cycle sim_cycles = 0;             ///< simulated time at drain
  std::uint64_t dma_bursts = 0;     ///< mem: per engine, ceil(bytes / burst)
  Cycle dma_throttle_stall_cycles = 0;
  struct Lane {
    std::size_t jobs = 0;
    Cycle total_queue_wait = 0;
    Cycle max_queue_wait = 0;
    Cycle compute_cycles = 0;
    Bytes dma_bytes = 0;
  };
  Lane cc;  ///< core: encoder + prefill lane (compute-centric clusters)
  Lane mc;  ///< core: decode lane (memory-centric clusters)
  std::uint64_t fast_streams = 0;  ///< core: fast-tier streams priced

  void add(const LayerCounters& other);
};

/// Reads the counters of `engine` after run(); `burst_bytes` is the
/// chip's DMA burst size.
LayerCounters read_layer_counters(const edgemm::serve::ServingEngine& engine,
                                  Bytes burst_bytes);

/// One finished replay with its host-time phases.
struct Replay {
  edgemm::serve::ServingResult result;
  std::vector<edgemm::serve::RequestRecord> records;
  LayerCounters layers;
  double trace_gen_ms = 0.0;
  double construct_ms = 0.0;
  double run_ms = 0.0;
};

/// Output checks of one replay. Every request is one operation; a
/// request-level violation fails that request, a replay-level one
/// (conservation, ledgers, roofline, shadow agreement) fails them all.
struct CheckReport {
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::vector<std::string> problems;
};

/// Checks `replay` against the `sent` trace it replayed. `shadow` is the
/// fast-tier re-replay of the same trace, or nullptr.
CheckReport check_replay(const Replay& replay,
                         const std::vector<edgemm::serve::Request>& sent,
                         const edgemm::core::ChipConfig& chip,
                         const Replay* shadow);

/// FNV-1a digest of every ServingResult field and every RequestRecord.
std::uint64_t digest(const Replay& replay, std::uint64_t seed = 0);

/// A percentile with its sample count and the samples above it.
struct Percentile {
  double value = 0.0;
  std::size_t samples = 0;
  std::size_t beyond = 0;
};
Percentile percentile_of(const std::vector<double>& values, double p);

/// Simulated-time metrics pooled over the replays of one pass.
struct SimMetrics {
  double makespan_s = 0.0;  ///< median over the pass's replays
  double tokens_per_s = 0.0;
  Percentile ttft_p50_ms, ttft_p95_ms, tpot_p50_ms, tpot_p95_ms;
  Percentile queue_wait_p50_ms, queue_wait_p95_ms;
  double slo_attainment = 0.0;   ///< deadline met over requests sent
  double completion_ratio = 0.0; ///< completed over requests sent
  double accuracy_proxy_mean = 0.0;
};
SimMetrics sim_metrics(const std::vector<Replay>& replays, double clock_hz);

double median(std::vector<double> values);

}  // namespace perfbench

#endif  // EDGEMM_PERFBENCH_ANALYSIS_HPP
