// Task-level accuracy proxy for pruning — the stand-in for the paper's
// "minimal score reduction in VQA" claim (§V-C).
//
// We cannot score VQA without the trained checkpoint (DESIGN.md §1), so
// the proxy measures what a downstream head would see: a fixed random
// linear "answer head" maps the FFN output to answer logits, and the
// score is the fraction of tokens whose argmax answer is unchanged by
// pruning. Unlike cosine similarity this metric is sensitive exactly to
// the errors that flip decisions.
#ifndef EDGEMM_PRUNING_TASK_PROXY_HPP
#define EDGEMM_PRUNING_TASK_PROXY_HPP

#include <cstdint>
#include <span>
#include <vector>

#include "model/activation_gen.hpp"
#include "pruning/dynamic_topk.hpp"

namespace edgemm::pruning {

/// Proxy-task parameters.
struct TaskProxyConfig {
  std::size_t answer_classes = 64;  ///< rows of the answer head
  std::size_t d_ffn = 512;          ///< hidden width of the evaluated FFN
  std::size_t tokens = 6;           ///< decisions sampled per layer
  std::uint64_t seed = 7;
  DynamicTopKConfig dynamic{};
  std::vector<double> fixed_ratios{0.1, 0.7};
};

/// Agreement scores in [0, 1]; 1 = pruning never flips the answer.
struct TaskProxyResult {
  double agreement_dynamic = 0.0;
  std::vector<double> agreement_fixed;   ///< aligned with fixed_ratios
  double mean_pruning_ratio = 0.0;       ///< achieved by the dynamic scheme
  std::size_t decisions = 0;             ///< total (layer, token) samples
};

/// One query of a multi-query proxy pass: an activation source and the
/// pruning levels to price on it.
struct TaskProxyQuery {
  const model::ActivationGenerator* gen = nullptr;
  std::vector<double> fixed_ratios;
  /// Also run the dynamic Top-k path; without it agreement_dynamic and
  /// mean_pruning_ratio read 0.
  bool dynamic = true;
};

/// Prices every query in one streamed pass; results align with
/// `queries` (config.fixed_ratios is not read). The proxy weights depend
/// only on `config` and the channel count, so queries with the same
/// channel count share one weight stream: each up/gate/down row is drawn
/// once and added into every (query, pruning level) accumulator, and the
/// gated MLP is never materialized. Each result is bit-identical to a
/// pass over that query alone. Throws std::invalid_argument for a null
/// generator, a zero d_ffn / answer_classes or a ratio outside [0, 1].
std::vector<TaskProxyResult> evaluate_task_proxy(
    std::span<const TaskProxyQuery> queries, const TaskProxyConfig& config);

/// Runs the proxy over every (stable) layer of `gen`: the one-query
/// pass with config.fixed_ratios and the dynamic path.
TaskProxyResult evaluate_task_proxy(const model::ActivationGenerator& gen,
                                    const TaskProxyConfig& config);

}  // namespace edgemm::pruning

#endif  // EDGEMM_PRUNING_TASK_PROXY_HPP
