// The repository benchmark: replays one workload for a bounded time,
// checks every simulated output, and prints its metrics. The last line
// of standard output is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// with the end-to-end metrics (--trace 0) or the per-layer metrics of a
// separate traced pass (--trace 1).
//
//   edgemm_perfbench --workload NAME --seed N --seconds S --trace 0|1
//   edgemm_perfbench --reference          (serving_trace §1 check)
//
// --spans PATH names the file the traced run writes its spans to. For
// the self-test: --shrink (seconds-long workloads) and --corrupt-record
// (tamper with one record before the checks).
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <exception>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "analysis.hpp"
#include "common/units.hpp"
#include "serve/engine_config.hpp"
#include "serve/serving_engine.hpp"
#include "tracer.hpp"
#include "workloads.hpp"

namespace {

using namespace perfbench;
namespace core = edgemm::core;
namespace serve = edgemm::serve;
using Clock = std::chrono::steady_clock;

double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool shrink = false;
  bool corrupt = false;
  bool reference = false;
  std::string spans_path;
};

/// One pass: every trace of the workload built, replayed and checked.
struct Pass {
  std::vector<std::vector<serve::Request>> traces;
  std::vector<Replay> primaries;
  std::vector<Replay> shadows;
  std::size_t sent = 0;  ///< requests in the primary replays
  double trace_gen_ms = 0.0;
  double construct_ms = 0.0;
  double run_ms = 0.0;  ///< primary replays only
  double check_ms = 0.0;
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::vector<std::string> problems;
  std::uint64_t digest = 0;
  std::size_t proxy_evals = 0;
  double proxy_ms = 0.0;
  std::vector<std::int64_t> completion_ns;  ///< traced pass only
};

Workload build_workload(const Options& opt) {
  return opt.reference ? reference_workload()
                       : make_workload(opt.workload, opt.seed, opt.shrink);
}

serve::EngineConfig shadow_config(const Workload& w) {
  return serve::EngineConfig(w.engine).replay_mode(core::ReplayMode::kFast);
}

/// Set-up alone: configuration, trace generation and engine
/// construction for one pass, discarded before any run.
double time_setup(const Options& opt) {
  const auto t0 = Clock::now();
  const Workload w = build_workload(opt);
  const auto traces = generate_traces(w);
  std::vector<std::unique_ptr<serve::ServingEngine>> engines;
  for (std::size_t k = 0; k < traces.size(); ++k) {
    engines.push_back(
        std::make_unique<serve::ServingEngine>(w.chip, w.models, w.engine));
    if (w.fast_shadow) {
      engines.push_back(std::make_unique<serve::ServingEngine>(
          w.chip, w.models, shadow_config(w)));
    }
  }
  return ms_between(t0, Clock::now());
}

/// Appends at least 51 set-up samples, more while a 250 ms window lasts.
void sample_setup(const Options& opt, std::vector<double>& samples) {
  const auto start = Clock::now();
  const std::size_t before = samples.size();
  while (samples.size() - before < 51 ||
         (samples.size() - before < 1001 && ms_between(start, Clock::now()) < 250.0)) {
    samples.push_back(time_setup(opt));
  }
}

Replay execute(serve::ServingEngine& engine,
               const std::vector<serve::Request>& trace, const Workload& w,
               Tracer* tracer, Tracer::SpanId parent, std::int64_t offset,
               const char* name, std::vector<std::int64_t>* completions) {
  Replay rep;
  {
    SpanScope run_span(tracer, name, parent);
    if (tracer != nullptr) {
      engine.set_completion_callback(
          [tracer, id = run_span.id(), offset,
           completions](const serve::RequestRecord& r) {
            const std::int64_t request =
                offset + static_cast<std::int64_t>(r.request.id);
            tracer->instant("serve.completion", id, request);
            if (completions) completions->push_back(tracer->host_now_ns());
          });
    }
    const auto t0 = Clock::now();
    rep.result = engine.run(trace);
    rep.run_ms = ms_between(t0, Clock::now());
  }
  SpanScope read_span(tracer, "bench.read_counters", parent);
  rep.records = engine.records();
  rep.layers = read_layer_counters(engine, w.chip.dma.burst_bytes);
  return rep;
}

/// Per-request simulated-time spans rebuilt from the records.
void add_request_spans(Tracer& tracer, const Replay& rep, Tracer::SpanId parent,
                       std::int64_t offset, double clock_hz) {
  const double ns_per_cycle = 1e9 / clock_hz;
  auto ns = [&](Cycle c) {
    return static_cast<std::int64_t>(std::llround(static_cast<double>(c) * ns_per_cycle));
  };
  for (const serve::RequestRecord& rec : rep.records) {
    if (!rec.done) continue;
    const std::int64_t id = offset + static_cast<std::int64_t>(rec.request.id);
    tracer.add("request.queued", Tracer::Clock::kSim, ns(rec.request.arrival),
               ns(rec.prefill_start), parent, id);
    tracer.add("request.prefill", Tracer::Clock::kSim, ns(rec.prefill_start),
               ns(rec.prefill_end), parent, id);
    tracer.add("request.decode", Tracer::Clock::kSim, ns(rec.first_token),
               ns(rec.finish), parent, id);
  }
}

/// Times one quality_accuracy_proxy call per distinct (model, served
/// keep < 1) pair of the replay's completed requests — the pricing the
/// engine does inside run(), measured from outside.
void price_proxies(const Replay& rep, const Workload& w, Tracer& tracer,
                   Tracer::SpanId parent, Pass& pass) {
  std::map<std::pair<std::size_t, long long>, double> pairs;
  for (const serve::RequestRecord& rec : rep.records) {
    if (!rec.done || rec.keep_fraction_served >= 1.0) continue;
    pairs.emplace(std::pair{rec.request.model,
                            std::llround(rec.keep_fraction_served * 1048576.0)},
                  rec.keep_fraction_served);
  }
  for (const auto& [key, keep] : pairs) {
    SpanScope span(&tracer, "pruning.quality_accuracy_proxy", parent);
    const auto t0 = Clock::now();
    const double acc = serve::quality_accuracy_proxy(w.models[key.first], keep);
    pass.proxy_ms += ms_between(t0, Clock::now());
    ++pass.proxy_evals;
    if (!(acc > 0.0 && acc <= 1.0)) {
      pass.problems.push_back("task-proxy agreement outside (0, 1]");
    }
  }
}

void corrupt_first_completed(Replay& rep) {
  for (serve::RequestRecord& rec : rep.records) {
    if (!rec.done) continue;
    rec.first_token = rec.finish + 1;
    return;
  }
}

/// Replays one pass. After each replay, more set-up samples are appended
/// to `setup_samples`, so they are taken throughout the run.
Pass run_pass(const Options& opt, Tracer* tracer,
              std::vector<double>& setup_samples) {
  Pass p;
  SpanScope pass_span(tracer, "bench.pass", Tracer::kNone);
  const Tracer::SpanId root = pass_span.id();

  Workload w;
  {
    SpanScope s(tracer, "bench.make_workload", root);
    w = build_workload(opt);
  }
  const auto t1 = Clock::now();
  for (const serve::TraceConfig& tc : w.traces) {
    SpanScope s(tracer, "serve.poisson_trace", root);
    p.traces.push_back(serve::poisson_trace(tc));
  }
  const auto t2 = Clock::now();
  std::vector<std::unique_ptr<serve::ServingEngine>> engines, shadows;
  for (std::size_t k = 0; k < p.traces.size(); ++k) {
    SpanScope s(tracer, "serve.ServingEngine", root);
    engines.push_back(
        std::make_unique<serve::ServingEngine>(w.chip, w.models, w.engine));
    if (w.fast_shadow) {
      shadows.push_back(std::make_unique<serve::ServingEngine>(
          w.chip, w.models, shadow_config(w)));
    }
  }
  const auto t3 = Clock::now();
  p.trace_gen_ms = ms_between(t1, t2);
  p.construct_ms = ms_between(t2, t3);

  std::int64_t offset = 0;
  for (std::size_t k = 0; k < p.traces.size(); ++k) {
    const std::vector<serve::Request>& trace = p.traces[k];
    p.primaries.push_back(execute(*engines[k], trace, w, tracer, root, offset,
                                  "serve.ServingEngine::run",
                                  tracer ? &p.completion_ns : nullptr));
    Replay& rep = p.primaries.back();
    p.run_ms += rep.run_ms;
    p.sent += trace.size();
    const Replay* shadow = nullptr;
    if (w.fast_shadow) {
      p.shadows.push_back(execute(*shadows[k], trace, w, tracer, root, offset,
                                  "core.fast_shadow::run", nullptr));
      shadow = &p.shadows.back();
    }

    const auto c0 = Clock::now();
    {
      SpanScope s(tracer, "bench.check", root);
      if (opt.corrupt && k == 0) corrupt_first_completed(rep);
      std::vector<CheckReport> reports = {
          check_replay(rep, trace, w.chip, shadow)};
      if (shadow) reports.push_back(check_replay(*shadow, trace, w.chip, nullptr));
      for (const CheckReport& r : reports) {
        p.attempted += r.attempted;
        p.failed += r.failed;
        for (const std::string& msg : r.problems) {
          p.problems.push_back("trace " + std::to_string(k) + ": " + msg);
        }
      }
    }
    {
      SpanScope s(tracer, "bench.digest", root);
      p.digest = digest(rep, p.digest);
      if (shadow) p.digest = digest(*shadow, p.digest);
    }
    p.check_ms += ms_between(c0, Clock::now());

    if (tracer != nullptr) {
      add_request_spans(*tracer, rep, root, offset, w.chip.clock_hz);
      price_proxies(rep, w, *tracer, root, p);
    }
    offset += static_cast<std::int64_t>(trace.size());
    sample_setup(opt, setup_samples);
  }
  return p;
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

double peak_rss_mib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

std::string percentile_note(const Percentile& p) {
  char buf[96];
  std::snprintf(buf, sizeof buf, "  (n=%zu, %zu beyond%s)", p.samples, p.beyond,
                p.beyond < 10 ? "; thin tail: fewer than 10 beyond" : "");
  return buf;
}

std::vector<Metric> end_to_end_metrics(const std::vector<Pass>& passes,
                                       const std::vector<double>& setup_ms,
                                       const SimMetrics& sim,
                                       std::map<std::string, std::string>& notes) {
  std::vector<double> rates;
  for (const Pass& p : passes) {
    rates.push_back(ratio(static_cast<double>(p.sent), p.run_ms / 1e3));
  }
  notes["sim_ttft_p50_ms"] = percentile_note(sim.ttft_p50_ms);
  notes["sim_ttft_p95_ms"] = percentile_note(sim.ttft_p95_ms);
  notes["sim_tpot_p50_ms"] = percentile_note(sim.tpot_p50_ms);
  notes["sim_tpot_p95_ms"] = percentile_note(sim.tpot_p95_ms);
  return {
      {"host_requests_per_s", median(rates), "1/s"},
      {"setup_s", median(setup_ms) / 1e3, "s"},
      {"peak_rss_mib", peak_rss_mib(), "MiB"},
      {"sim_makespan_s", sim.makespan_s, "s"},
      {"sim_tokens_per_s", sim.tokens_per_s, "tok/s"},
      {"sim_ttft_p50_ms", sim.ttft_p50_ms.value, "ms"},
      {"sim_ttft_p95_ms", sim.ttft_p95_ms.value, "ms"},
      {"sim_tpot_p50_ms", sim.tpot_p50_ms.value, "ms"},
      {"sim_tpot_p95_ms", sim.tpot_p95_ms.value, "ms"},
      {"sim_completion_ratio", sim.completion_ratio, "ratio"},
      {"sim_accuracy_proxy_mean", sim.accuracy_proxy_mean, "ratio"},
  };
}

std::vector<Metric> per_layer_metrics(const Pass& untraced, const Pass& traced,
                                      const SimMetrics& sim, double clock_hz) {
  LayerCounters l;
  serve::ServingResult sum;
  double batch_weighted = 0.0;
  std::size_t peak_queue = 0, peak_batch = 0;
  for (const Replay& rep : traced.primaries) {
    l.add(rep.layers);
    const serve::ServingResult& r = rep.result;
    sum.rebalances += r.rebalances;
    sum.decode_steps += r.decode_steps;
    batch_weighted += r.mean_decode_batch * static_cast<double>(r.decode_steps);
    peak_queue = std::max(peak_queue, r.peak_queue_depth);
    peak_batch = std::max(peak_batch, r.peak_decode_batch);
    sum.cc_weight_fetch_bytes += r.cc_weight_fetch_bytes;
    sum.cc_weight_bytes_saved += r.cc_weight_bytes_saved;
    sum.rider_refetch_bytes += r.rider_refetch_bytes;
    sum.placement_evictions += r.placement_evictions;
    sum.weight_pin_fallbacks += r.weight_pin_fallbacks;
    sum.kv_pages_allocated += r.kv_pages_allocated;
    sum.kv_shared_pages_saved += r.kv_shared_pages_saved;
    sum.kv_pages_swapped_out += r.kv_pages_swapped_out;
    sum.kv_swap_refetch_bytes += r.kv_swap_refetch_bytes;
    sum.kv_deferrals += r.kv_deferrals;
    sum.quality_downgrades += r.quality_downgrades;
    sum.tokens_at_degraded_quality += r.tokens_at_degraded_quality;
  }
  double detailed_makespan = 0.0, fast_makespan = 0.0;
  for (std::size_t k = 0; k < traced.shadows.size(); ++k) {
    detailed_makespan += static_cast<double>(traced.primaries[k].result.makespan);
    fast_makespan += static_cast<double>(traced.shadows[k].result.makespan);
  }
  const double run_ms = traced.run_ms;
  const double ms_per_cycle = 1e3 / clock_hz;
  auto lane = [&](const char* prefix, const LayerCounters::Lane& s) {
    const std::string p = std::string("core.") + prefix + ".";
    return std::vector<Metric>{
        {p + "jobs", static_cast<double>(s.jobs), "count"},
        {p + "queue_wait_mean_ms",
         ratio(static_cast<double>(s.total_queue_wait), static_cast<double>(s.jobs)) *
             ms_per_cycle,
         "ms"},
        {p + "queue_wait_max_ms", static_cast<double>(s.max_queue_wait) * ms_per_cycle,
         "ms"},
        {p + "compute_cycles", static_cast<double>(s.compute_cycles), "cycles"},
        {p + "dma_bytes", static_cast<double>(s.dma_bytes), "B"},
    };
  };
  std::vector<Metric> m = {
      {"sim.events", static_cast<double>(l.events), "count"},
      {"sim.host_ns_per_event", ratio(run_ms * 1e6, static_cast<double>(l.events)), "ns"},
      {"sim.events_per_burst",
       ratio(static_cast<double>(l.events), static_cast<double>(l.dma_bursts)), "count"},
      {"mem.dram_bytes", static_cast<double>(l.dram_bytes), "B"},
      {"mem.dram_utilization",
       ratio(static_cast<double>(l.dram_busy_cycles), static_cast<double>(l.sim_cycles)),
       "ratio"},
      {"mem.dma_bursts", static_cast<double>(l.dma_bursts), "count"},
      {"mem.dma_throttle_stall_cycles", static_cast<double>(l.dma_throttle_stall_cycles),
       "cycles"},
  };
  for (const auto& v : {lane("cc", l.cc), lane("mc", l.mc)}) {
    m.insert(m.end(), v.begin(), v.end());
  }
  const std::vector<Metric> rest = {
      {"core.fast.streams", static_cast<double>(l.fast_streams), "count"},
      {"core.fast.host_us_per_stream",
       ratio(run_ms * 1e3, static_cast<double>(l.fast_streams)), "us"},
      {"core.fast.drift_pct",
       100.0 * ratio(std::abs(fast_makespan - detailed_makespan), detailed_makespan), "%"},
      {"serve.rebalances", static_cast<double>(sum.rebalances), "count"},
      {"serve.decode_steps", static_cast<double>(sum.decode_steps), "count"},
      {"serve.host_us_per_decode_step",
       ratio(run_ms * 1e3, static_cast<double>(sum.decode_steps)), "us"},
      {"serve.queue_wait_p50_ms", sim.queue_wait_p50_ms.value, "ms"},
      {"serve.queue_wait_p95_ms", sim.queue_wait_p95_ms.value, "ms"},
      {"serve.peak_queue_depth", static_cast<double>(peak_queue), "count"},
      {"serve.slo_attainment", sim.slo_attainment, "ratio"},
      {"serve.mean_decode_batch",
       ratio(batch_weighted, static_cast<double>(sum.decode_steps)), "count"},
      {"serve.peak_decode_batch", static_cast<double>(peak_batch), "count"},
      {"serve.pin_hit_ratio",
       ratio(static_cast<double>(sum.cc_weight_bytes_saved),
             static_cast<double>(sum.cc_weight_bytes_saved + sum.cc_weight_fetch_bytes)),
       "ratio"},
      {"serve.rider_refetch_bytes", static_cast<double>(sum.rider_refetch_bytes), "B"},
      {"serve.placement_evictions", static_cast<double>(sum.placement_evictions), "count"},
      {"serve.weight_pin_fallbacks", static_cast<double>(sum.weight_pin_fallbacks),
       "count"},
      {"serve.kv_share_ratio",
       ratio(static_cast<double>(sum.kv_shared_pages_saved),
             static_cast<double>(sum.kv_shared_pages_saved + sum.kv_pages_allocated)),
       "ratio"},
      {"serve.kv_pages_swapped_out", static_cast<double>(sum.kv_pages_swapped_out),
       "count"},
      {"serve.kv_swap_refetch_bytes", static_cast<double>(sum.kv_swap_refetch_bytes), "B"},
      {"serve.kv_deferrals", static_cast<double>(sum.kv_deferrals), "count"},
      {"serve.quality_downgrades", static_cast<double>(sum.quality_downgrades), "count"},
      {"serve.tokens_at_degraded_quality",
       static_cast<double>(sum.tokens_at_degraded_quality), "count"},
      {"pruning.proxy_evals", static_cast<double>(traced.proxy_evals), "count"},
      {"pruning.proxy_host_ms", traced.proxy_ms, "ms"},
      {"pruning.host_share", ratio(traced.proxy_ms, run_ms), "ratio"},
      {"host.trace_gen_ms", traced.trace_gen_ms, "ms"},
      {"host.construct_ms", traced.construct_ms, "ms"},
      {"host.run_ms", run_ms, "ms"},
      {"host.check_ms", traced.check_ms, "ms"},
      {"host.tracing_overhead_pct",
       100.0 * (1.0 - ratio(untraced.run_ms, traced.run_ms)), "%"},
  };
  m.insert(m.end(), rest.begin(), rest.end());
  return m;
}

bool parse_args(int argc, char** argv, Options& opt) {
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto value = [&]() -> const char* {
      if (i + 1 >= argc) throw std::invalid_argument("missing value for " + a);
      return argv[++i];
    };
    if (a == "--workload") {
      opt.workload = value();
    } else if (a == "--seed") {
      opt.seed = std::stoull(value());
    } else if (a == "--seconds") {
      opt.seconds = std::stod(value());
    } else if (a == "--trace") {
      opt.trace = std::string(value()) == "1";
    } else if (a == "--spans") {
      opt.spans_path = value();
    } else if (a == "--shrink") {
      opt.shrink = true;
    } else if (a == "--corrupt-record") {
      opt.corrupt = true;
    } else if (a == "--reference") {
      opt.reference = true;
    } else {
      throw std::invalid_argument("unknown argument " + a);
    }
  }
  if (!opt.reference &&
      std::find(kWorkloadNames.begin(), kWorkloadNames.end(), opt.workload) ==
          kWorkloadNames.end()) {
    throw std::invalid_argument("--workload must be one of detailed_poisson, "
                                "fast_zoo_long, fast_overload_quality");
  }
  return true;
}

void print_json(bool correct, std::size_t attempted, std::size_t failed,
                const std::vector<Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, \"metrics\": {",
              correct ? "true" : "false", attempted, failed);
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0.0;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i ? ", " : "",
                metrics[i].name.c_str(), v, metrics[i].unit.c_str());
  }
  std::printf("}}\n");
}

int run(const Options& opt) {
  if (opt.reference) {
    std::vector<double> setup_ms;
    const Pass p = run_pass(opt, nullptr, setup_ms);
    const serve::ServingResult& r = p.primaries.front().result;
    std::printf("reference s1 continuous bw-mgmt (seed 42): makespan_ms %.17g "
                "(%%.6g: %.6g), completed %zu, failed checks %zu\n",
                r.makespan_ms, r.makespan_ms, r.completed, p.failed);
    return p.failed == 0 ? 0 : 1;
  }

  // Set-up takes well under a millisecond and the host's speed drifts
  // within a run, so it is sampled in a window before the passes and
  // one after every replay, and the median of all samples is reported.
  std::vector<double> setup_ms;
  sample_setup(opt, setup_ms);
  std::vector<Pass> passes;
  Tracer tracer;
  const auto start = Clock::now();
  if (opt.trace) {
    passes.push_back(run_pass(opt, nullptr, setup_ms));
    passes.push_back(run_pass(opt, &tracer, setup_ms));
  } else {
    do {
      passes.push_back(run_pass(opt, nullptr, setup_ms));
    } while (ms_between(start, Clock::now()) < opt.seconds * 1e3);
  }

  std::size_t attempted = 0, failed = 0;
  std::vector<std::string> problems;
  for (const Pass& p : passes) {
    attempted += p.attempted;
    std::size_t pass_failed = p.failed;
    if (p.digest != passes.front().digest) {
      problems.push_back("simulated outputs differ between passes");
      pass_failed = p.attempted;
    }
    failed += pass_failed;
    problems.insert(problems.end(), p.problems.begin(), p.problems.end());
  }
  const bool correct = failed == 0 && problems.empty();

  const Workload w = build_workload(opt);
  const Pass& first = passes.front();
  const SimMetrics sim = sim_metrics(first.primaries, w.chip.clock_hz);
  std::printf("workload %s, seed %llu: %zu trace(s), %zu requests per pass, "
              "%zu pass(es)%s\n",
              opt.workload.c_str(), static_cast<unsigned long long>(opt.seed),
              first.traces.size(), first.sent, passes.size(),
              opt.trace ? " (untraced, then traced)" : "");
  std::printf("digest %016llx\n", static_cast<unsigned long long>(first.digest));
  for (const std::string& msg : problems) std::printf("CHECK FAILED: %s\n", msg.c_str());

  std::map<std::string, std::string> notes;
  const std::vector<Metric> e2e = end_to_end_metrics(
      opt.trace ? std::vector<Pass>{passes.front()} : passes, setup_ms, sim, notes);
  for (const Metric& m : e2e) {
    std::printf("  %-28s %.6g %s%s\n", m.name.c_str(), m.value, m.unit.c_str(),
                notes[m.name].c_str());
  }
  std::vector<Metric> reported = e2e;
  if (opt.trace) {
    const Pass& traced = passes.back();
    reported = per_layer_metrics(passes.front(), traced, sim, w.chip.clock_hz);
    for (const Metric& m : reported) {
      std::printf("  %-34s %.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
    }
    const std::vector<std::int64_t>& done = traced.completion_ns;
    if (done.size() >= 8) {
      // Host rate over the first and the last quarter of completions.
      const std::size_t q = done.size() / 4;
      const double head = ratio(static_cast<double>(q),
                                static_cast<double>(done[q] - done[0]) / 1e9);
      const double tail = ratio(static_cast<double>(q),
                                static_cast<double>(done.back() - done[done.size() - 1 - q]) / 1e9);
      std::printf("  completion host rate: first quarter %.4g req/s, last quarter "
                  "%.4g req/s\n", head, tail);
    }
    if (!opt.spans_path.empty()) {
      const bool written = tracer.write(opt.spans_path);
      std::printf("  %zu spans %s %s\n", tracer.size(),
                  written ? "written to" : "could not be written to",
                  opt.spans_path.c_str());
    }
  }
  std::fflush(stdout);
  print_json(correct, attempted, failed, reported);
  return correct ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    Options opt;
    parse_args(argc, argv, opt);
    return run(opt);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "edgemm_perfbench: %s\n", e.what());
    return 2;
  }
}
