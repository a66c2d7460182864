// The benchmark's three replay workloads. Each is a single-threaded
// offline replay of open-loop Poisson traces (arrivals fixed in
// simulated time, whatever the engine does) on the 8x-coarsened chip
// the serving_trace bench runs at.
#ifndef EDGEMM_PERFBENCH_WORKLOADS_HPP
#define EDGEMM_PERFBENCH_WORKLOADS_HPP

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "core/config.hpp"
#include "model/mllm_config.hpp"
#include "serve/engine_config.hpp"
#include "serve/request.hpp"
#include "serve/trace.hpp"

namespace perfbench {

inline const std::vector<std::string> kWorkloadNames = {
    "detailed_poisson", "fast_zoo_long", "fast_overload_quality"};

/// Everything one workload replays. A pass replays `traces` (one
/// TraceConfig per replay, seeds derived from the benchmark seed); the
/// detailed workload also re-replays each trace on the fast tier as a
/// fidelity shadow.
struct Workload {
  std::string name;
  edgemm::core::ChipConfig chip;
  std::vector<edgemm::model::MllmConfig> models;
  edgemm::serve::EngineConfig engine;
  std::vector<edgemm::serve::TraceConfig> traces;
  bool fast_shadow = false;
};

/// Builds workload `name` for `seed`. `shrink` gives the self-test's
/// seconds-long versions (same configuration, far fewer requests).
/// Throws std::invalid_argument for an unknown name.
Workload make_workload(const std::string& name, std::uint64_t seed,
                       bool shrink);

/// The serving_trace §1 `s1 continuous bw-mgmt` case at seed 42: the
/// detailed_poisson configuration with its reference trace.
Workload reference_workload();

/// Generates the requests of every trace of `w`, in order.
std::vector<std::vector<edgemm::serve::Request>> generate_traces(
    const Workload& w);

}  // namespace perfbench

#endif  // EDGEMM_PERFBENCH_WORKLOADS_HPP
