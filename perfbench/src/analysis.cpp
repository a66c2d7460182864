#include "analysis.hpp"

#include <algorithm>
#include <cstring>
#include <type_traits>
#include <set>
#include <string>

#include "common/statistics.hpp"
#include "common/units.hpp"
#include "core/chip.hpp"
#include "core/phase_scheduler.hpp"
#include "core/timing.hpp"

namespace perfbench {

namespace core = edgemm::core;
namespace serve = edgemm::serve;

void LayerCounters::add(const LayerCounters& other) {
  events += other.events;
  dram_bytes += other.dram_bytes;
  dram_busy_cycles += other.dram_busy_cycles;
  sim_cycles += other.sim_cycles;
  dma_bursts += other.dma_bursts;
  dma_throttle_stall_cycles += other.dma_throttle_stall_cycles;
  for (auto [into, from] : {std::pair{&cc, &other.cc}, std::pair{&mc, &other.mc}}) {
    into->jobs += from->jobs;
    into->total_queue_wait += from->total_queue_wait;
    into->max_queue_wait = std::max(into->max_queue_wait, from->max_queue_wait);
    into->compute_cycles += from->compute_cycles;
    into->dma_bytes += from->dma_bytes;
  }
  fast_streams += other.fast_streams;
}

LayerCounters read_layer_counters(const serve::ServingEngine& engine,
                                  Bytes burst_bytes) {
  // The engine hands out its chip as const, but the object is not const;
  // Simulator::now()/events_executed() are only reachable through the
  // non-const simulator() accessor.
  auto& chip = const_cast<core::ChipTimingModel&>(engine.chip());
  const core::PhaseScheduler& scheduler = engine.local_backend().scheduler();
  LayerCounters c;
  c.events = chip.simulator().events_executed();
  c.sim_cycles = chip.simulator().now();
  c.dram_bytes = chip.dram().bytes_served();
  c.dram_busy_cycles = chip.dram().channel().busy_cycles();
  for (auto [lane, into] : {std::pair{core::Lane::kCcStage, &c.cc},
                            std::pair{core::Lane::kMcDecode, &c.mc}}) {
    const core::PhaseScheduler::LaneStats& s = scheduler.lane_stats(lane);
    into->jobs = s.dispatched;
    into->total_queue_wait = s.total_queue_wait;
    into->max_queue_wait = s.max_queue_wait;
    for (core::ClusterTimingModel* cluster : scheduler.lane_clusters(lane)) {
      into->compute_cycles += cluster->stats().compute_cycles;
      into->dma_bytes += cluster->stats().dma_bytes;
    }
  }
  for (core::ClusterTimingModel* cluster : chip.all_clusters()) {
    const Bytes moved = cluster->dma().total_bytes();
    c.dma_bursts += (moved + burst_bytes - 1) / burst_bytes;
    c.dma_throttle_stall_cycles += cluster->dma().throttle_stall_cycles();
  }
  if (const core::FastMemoryModel* fast = chip.fast_model()) {
    c.fast_streams = fast->streams_completed();
  }
  return c;
}

CheckReport check_replay(const Replay& replay,
                         const std::vector<serve::Request>& sent,
                         const core::ChipConfig& chip, const Replay* shadow) {
  CheckReport report;
  report.attempted = sent.size();
  const serve::ServingResult& r = replay.result;
  std::vector<std::string>& problems = report.problems;

  // Request level: accounted for exactly once, causal, fully generated.
  std::size_t bad_requests = 0;
  std::size_t done = 0;
  std::size_t rejected = 0;
  std::size_t finished_degraded = 0;
  std::set<serve::RequestId> seen;
  const std::size_t n = std::min(sent.size(), replay.records.size());
  for (std::size_t i = 0; i < n; ++i) {
    const serve::RequestRecord& rec = replay.records[i];
    bool ok = rec.request.id == sent[i].id && seen.insert(rec.request.id).second &&
              rec.done != rec.rejected;
    if (rec.done) {
      ++done;
      ok = ok && rec.request.arrival <= rec.admitted &&
           rec.admitted <= rec.prefill_start &&
           rec.prefill_start <= rec.prefill_end &&
           rec.prefill_end <= rec.first_token && rec.first_token <= rec.finish &&
           rec.tokens_generated == rec.request.output_tokens;
      if (rec.keep_fraction_served < rec.prune_keep_fraction) ++finished_degraded;
    }
    if (rec.rejected) ++rejected;
    if (!ok) ++bad_requests;
  }
  bad_requests += sent.size() - n;
  if (bad_requests > 0) {
    problems.push_back(std::to_string(bad_requests) +
                       " request(s) not accounted once, non-causal or short");
  }

  // Replay level.
  bool replay_failed = false;
  auto require = [&](bool holds, const char* what) {
    if (holds) return;
    replay_failed = true;
    problems.push_back(what);
  };
  require(replay.records.size() == sent.size() &&
              r.completed + r.rejected == sent.size() && r.completed == done &&
              r.rejected == rejected,
          "completed + rejected != sent");
  require(r.kv_pages_allocated == r.kv_pages_freed,
          "paged-KV pages allocated != freed");
  require(r.quality_downgrades == r.quality_restores + finished_degraded,
          "quality downgrades != restores + finished degraded");
  require(static_cast<double>(r.makespan) * chip.dram.bytes_per_cycle >=
              static_cast<double>(replay.layers.dram_bytes),
          "makespan beats the DRAM roofline");
  require(shadow == nullptr || (shadow->result.completed == r.completed &&
                                shadow->result.rejected == r.rejected),
          "fast-tier shadow completed a different count");
  report.failed = replay_failed ? sent.size() : bad_requests;
  return report;
}

namespace {

class Fnv1a {
 public:
  explicit Fnv1a(std::uint64_t seed) : h_(0xcbf29ce484222325ULL ^ seed) {}
  template <typename T>
  Fnv1a& operator<<(T value) {
    static_assert(std::is_arithmetic_v<T>);
    unsigned char bytes[sizeof(T)];
    std::memcpy(bytes, &value, sizeof(T));
    for (const unsigned char b : bytes) h_ = (h_ ^ b) * 0x100000001b3ULL;
    return *this;
  }
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_;
};

}  // namespace

std::uint64_t digest(const Replay& replay, std::uint64_t seed) {
  const serve::ServingResult& r = replay.result;
  Fnv1a h(seed);
  h << r.completed << r.rejected << r.makespan << r.makespan_ms
    << r.p50_latency_ms << r.p95_latency_ms << r.p99_latency_ms
    << r.mean_latency_ms << r.tokens_per_second << r.dram_utilization
    << r.mean_decode_batch << r.decode_steps << r.peak_queue_depth
    << r.rebalances << r.with_deadline << r.slo_attained << r.slo_attainment
    << r.prefill_jobs << r.max_cc_queue_delay_ms << r.kv_deferrals
    << r.cc_weight_fetch_bytes << r.cc_weight_bytes_saved << r.weight_pins
    << r.weight_pin_fallbacks << r.weight_shared_attaches
    << r.peak_pinned_bytes << r.weight_warm_attaches << r.placement_evictions
    << r.placement_denials << r.rider_refetch_bytes << r.kv_pages_allocated
    << r.kv_pages_freed << r.kv_shared_attaches << r.kv_shared_pages_saved
    << r.kv_cow_forks << r.kv_pages_swapped_out << r.kv_pages_swapped_in
    << r.kv_swap_refetch_bytes << r.kv_swap_preemptions
    << r.peak_kv_reserved_bytes << r.peak_decode_batch << r.offloaded_requests
    << r.offloaded_chunks << r.fat_bytes_moved << r.fat_kernel_launches
    << r.fat_busy_fraction << r.kv_return_transfers << r.kv_return_bytes_sent
    << r.kv_return_bytes_landed << r.kv_return_bytes_in_flight
    << r.kv_return_max_queue_ms << r.kv_swap_dma_bytes << r.quality_downgrades
    << r.quality_restores << r.tokens_at_degraded_quality
    << r.accuracy_proxy_mean << r.accuracy_proxy_min;
  for (const serve::RequestRecord& rec : replay.records) {
    const serve::Request& q = rec.request;
    h << q.id << q.arrival << q.model << q.input_tokens << q.output_tokens
      << q.crops << q.deadline << q.prefix_id << q.prefix_tokens
      << rec.admitted << rec.prefill_start << rec.prefill_end
      << rec.first_token << rec.finish << rec.tokens_generated
      << rec.prefill_chunks << rec.offloaded_chunks << rec.weight_pinned_layers
      << rec.prune_keep_fraction << rec.keep_fraction_served << rec.done
      << rec.rejected;
  }
  return h.value();
}

Percentile percentile_of(const std::vector<double>& values, double p) {
  Percentile out;
  out.samples = values.size();
  out.value = edgemm::percentile(values, p);
  out.beyond = static_cast<std::size_t>(
      std::count_if(values.begin(), values.end(),
                    [&](double v) { return v > out.value; }));
  return out;
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  return edgemm::percentile(values, 50.0);
}

SimMetrics sim_metrics(const std::vector<Replay>& replays, double clock_hz) {
  SimMetrics m;
  std::vector<double> makespans, ttft, tpot, queue_wait;
  double tokens = 0.0, makespan_sum = 0.0, accuracy_weighted = 0.0;
  std::size_t sent = 0, completed = 0, attained = 0;
  for (const Replay& replay : replays) {
    const serve::ServingResult& r = replay.result;
    makespans.push_back(edgemm::cycles_to_seconds(r.makespan, clock_hz));
    makespan_sum += edgemm::cycles_to_seconds(r.makespan, clock_hz);
    accuracy_weighted += r.accuracy_proxy_mean * static_cast<double>(r.completed);
    completed += r.completed;
    for (const serve::RequestRecord& rec : replay.records) {
      ++sent;
      if (rec.deadline_met()) ++attained;
      if (!rec.done) continue;
      tokens += static_cast<double>(rec.tokens_generated);
      ttft.push_back(edgemm::cycles_to_ms(rec.first_token - rec.request.arrival,
                                          clock_hz));
      queue_wait.push_back(edgemm::cycles_to_ms(rec.queue_delay_cycles(), clock_hz));
      if (rec.tokens_generated > 1) {
        tpot.push_back(edgemm::cycles_to_ms(rec.finish - rec.first_token, clock_hz) /
                       static_cast<double>(rec.tokens_generated - 1));
      }
    }
  }
  m.makespan_s = median(makespans);
  m.tokens_per_s = makespan_sum > 0.0 ? tokens / makespan_sum : 0.0;
  m.ttft_p50_ms = percentile_of(ttft, 50.0);
  m.ttft_p95_ms = percentile_of(ttft, 95.0);
  m.tpot_p50_ms = percentile_of(tpot, 50.0);
  m.tpot_p95_ms = percentile_of(tpot, 95.0);
  m.queue_wait_p50_ms = percentile_of(queue_wait, 50.0);
  m.queue_wait_p95_ms = percentile_of(queue_wait, 95.0);
  if (sent > 0) {
    m.slo_attainment = static_cast<double>(attained) / static_cast<double>(sent);
    m.completion_ratio = static_cast<double>(completed) / static_cast<double>(sent);
  }
  m.accuracy_proxy_mean =
      completed > 0 ? accuracy_weighted / static_cast<double>(completed) : 0.0;
  return m;
}

}  // namespace perfbench
