#include "pruning/task_proxy.hpp"

#include <algorithm>
#include <cmath>
#include <functional>
#include <numeric>
#include <optional>
#include <stdexcept>

#include "common/rng.hpp"
#include "common/tensor.hpp"
#include "coproc/vector_unit.hpp"

namespace edgemm::pruning {

namespace {

std::size_t argmax(std::span<const float> logits) {
  return static_cast<std::size_t>(
      std::max_element(logits.begin(), logits.end()) - logits.begin());
}

/// acc += scale · row, the accumulation step of gemv_reference.
void axpy(float* acc, float scale, const float* row, std::size_t n) {
  for (std::size_t j = 0; j < n; ++j) acc[j] += scale * row[j];
}

/// One query's state inside a shared weight stream.
struct QueryPass {
  const TaskProxyQuery* query = nullptr;
  TaskProxyResult* result = nullptr;
  std::size_t layers = 0;
  std::vector<std::size_t> fixed_k;  ///< channel budget per fixed ratio
  std::optional<DynamicTopK> controller;  ///< set while the dynamic path runs
  double ratio_sum = 0.0;

  // The current (token, layer) decision.
  std::vector<float> v;           ///< activations Vx
  std::vector<std::size_t> rank;  ///< place of each channel in the top-k order
  std::size_t k_dynamic = 0;
  /// Distinct channel budgets priced, descending; budgets[0] = d is the
  /// dense path (top-d keeps every channel).
  std::vector<std::size_t> budgets;
  /// One accumulator row per budget: up/gate (d_ffn each, gate's turned
  /// into the hidden Vd in place) and the FFN output (d).
  std::vector<float> up, gate, out;

  void begin_decision(std::size_t layer, std::size_t tok, std::size_t d,
                      std::size_t d_ffn) {
    v = query->gen->activations(layer, tok);
    budgets.assign(1, d);
    budgets.insert(budgets.end(), fixed_k.begin(), fixed_k.end());
    if (controller) {
      k_dynamic = std::min(controller->step(layer, v), d);
      ratio_sum += 1.0 - static_cast<double>(k_dynamic) / static_cast<double>(d);
      budgets.push_back(k_dynamic);
    }
    std::sort(budgets.begin(), budgets.end(), std::greater<>());
    budgets.erase(std::unique(budgets.begin(), budgets.end()), budgets.end());

    // The order top_k_indices_by_magnitude selects in: a top-k set is
    // exactly the channels ranked below k.
    std::vector<std::size_t> order(d);
    std::iota(order.begin(), order.end(), std::size_t{0});
    std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
      const float ma = std::fabs(v[a]);
      const float mb = std::fabs(v[b]);
      if (ma != mb) return ma > mb;
      return a < b;
    });
    rank.resize(d);
    for (std::size_t i = 0; i < d; ++i) rank[order[i]] = i;

    up.assign(budgets.size() * d_ffn, 0.0F);
    gate.assign(budgets.size() * d_ffn, 0.0F);
    out.assign(budgets.size() * d, 0.0F);
  }

  /// Adds input row `ch` of W_up or W_gate into every budget that keeps
  /// channel ch, in ascending channel order as ffn_pruned does.
  void add_input_row(std::vector<float>& acc, std::size_t ch,
                     std::span<const float> row) const {
    const float x = v[ch];
    if (x == 0.0F) return;
    for (std::size_t b = 0; b < budgets.size() && rank[ch] < budgets[b]; ++b) {
      axpy(acc.data() + b * row.size(), x, row.data(), row.size());
    }
  }

  void end_decision(const Tensor& head, std::size_t d) {
    std::vector<std::size_t> answers(budgets.size());
    for (std::size_t b = 0; b < budgets.size(); ++b) {
      const std::span<const float> ffn_out(out.data() + b * d, d);
      answers[b] = argmax(gemv_reference(ffn_out, head));
    }
    auto agrees = [&](std::size_t k) {
      const auto b = static_cast<std::size_t>(
          std::find(budgets.begin(), budgets.end(), k) - budgets.begin());
      return answers[b] == answers[0];
    };
    for (std::size_t f = 0; f < fixed_k.size(); ++f) {
      if (agrees(fixed_k[f])) result->agreement_fixed[f] += 1.0;
    }
    if (controller && agrees(k_dynamic)) result->agreement_dynamic += 1.0;
    ++result->decisions;
  }
};

void draw_row(Rng& rng, double scale, std::span<float> row) {
  for (float& w : row) w = static_cast<float>(rng.gaussian(0.0, scale));
}

/// Runs every pass over one channel count's weight stream. The draws
/// follow a one-query pass's order exactly: the answer head, then per
/// token a split, then per layer a split whose stream fills W_up, W_gate
/// and W_down row by row (random_gated_mlp's order).
void price_stream(const std::vector<QueryPass*>& passes, std::size_t d,
                  const TaskProxyConfig& config) {
  const std::size_t d_ffn = config.d_ffn;
  Rng rng(config.seed ^ 0x5bd1e995u);
  // The fixed answer head: answer_classes × d_model logits projection.
  Tensor head(d, config.answer_classes);
  for (float& v : head.flat()) v = static_cast<float>(rng.gaussian(0.0, 1.0));

  std::size_t layers = 0;
  for (const QueryPass* p : passes) layers = std::max(layers, p->layers);
  const double scale_in = 1.0 / std::sqrt(static_cast<double>(d));
  const double scale_out = 1.0 / std::sqrt(static_cast<double>(d_ffn));
  std::vector<float> in_row(d_ffn);
  std::vector<float> out_row(d);
  std::vector<QueryPass*> live;

  for (std::size_t tok = 0; tok < config.tokens; ++tok) {
    for (QueryPass* p : passes) {
      if (!p->query->dynamic) continue;
      p->controller.emplace(config.dynamic, d);
      p->controller->begin_token();
    }
    Rng layer_rng = rng.split();
    for (std::size_t layer = 0; layer < layers; ++layer) {
      live.clear();
      for (QueryPass* p : passes) {
        if (layer >= p->layers) continue;
        p->begin_decision(layer, tok, d, d_ffn);
        live.push_back(p);
      }
      Rng weights_rng = layer_rng.split();
      for (std::size_t ch = 0; ch < d; ++ch) {
        draw_row(weights_rng, scale_in, in_row);
        for (QueryPass* p : live) p->add_input_row(p->up, ch, in_row);
      }
      for (std::size_t ch = 0; ch < d; ++ch) {
        draw_row(weights_rng, scale_in, in_row);
        for (QueryPass* p : live) p->add_input_row(p->gate, ch, in_row);
      }
      for (QueryPass* p : live) {
        for (std::size_t i = 0; i < p->gate.size(); ++i) {
          p->gate[i] = p->up[i] * coproc::VectorUnit::silu(p->gate[i]);
        }
      }
      for (std::size_t j = 0; j < d_ffn; ++j) {
        draw_row(weights_rng, scale_out, out_row);
        for (QueryPass* p : live) {
          for (std::size_t b = 0; b < p->budgets.size(); ++b) {
            const float h = p->gate[b * d_ffn + j];
            if (h != 0.0F) axpy(p->out.data() + b * d, h, out_row.data(), d);
          }
        }
      }
      for (QueryPass* p : live) p->end_decision(head, d);
    }
  }
}

}  // namespace

std::vector<TaskProxyResult> evaluate_task_proxy(
    std::span<const TaskProxyQuery> queries, const TaskProxyConfig& config) {
  if (config.d_ffn == 0 || config.answer_classes == 0) {
    throw std::invalid_argument(
        "evaluate_task_proxy: d_ffn and answer_classes must be > 0");
  }
  std::vector<TaskProxyResult> results(queries.size());
  std::vector<QueryPass> passes(queries.size());
  for (std::size_t q = 0; q < queries.size(); ++q) {
    if (queries[q].gen == nullptr) {
      throw std::invalid_argument("evaluate_task_proxy: null generator");
    }
    QueryPass& p = passes[q];
    p.query = &queries[q];
    p.result = &results[q];
    p.layers = queries[q].gen->profile().layers;
    const std::size_t d = queries[q].gen->profile().channels;
    for (const double ratio : queries[q].fixed_ratios) {
      p.fixed_k.push_back(fixed_ratio_k(d, ratio));
    }
    results[q].agreement_fixed.assign(queries[q].fixed_ratios.size(), 0.0);
  }

  // One weight stream per distinct channel count, in query order.
  std::vector<bool> priced(queries.size(), false);
  for (std::size_t q = 0; q < queries.size(); ++q) {
    if (priced[q]) continue;
    const std::size_t d = queries[q].gen->profile().channels;
    std::vector<QueryPass*> group;
    for (std::size_t r = q; r < queries.size(); ++r) {
      if (priced[r] || queries[r].gen->profile().channels != d) continue;
      priced[r] = true;
      group.push_back(&passes[r]);
    }
    price_stream(group, d, config);
  }

  for (std::size_t q = 0; q < queries.size(); ++q) {
    TaskProxyResult& r = results[q];
    const auto n = static_cast<double>(r.decisions);
    r.agreement_dynamic /= n;
    for (double& a : r.agreement_fixed) a /= n;
    r.mean_pruning_ratio = passes[q].ratio_sum / n;
  }
  return results;
}

TaskProxyResult evaluate_task_proxy(const model::ActivationGenerator& gen,
                                    const TaskProxyConfig& config) {
  const TaskProxyQuery query{&gen, config.fixed_ratios, true};
  return std::move(evaluate_task_proxy({&query, 1}, config).front());
}

}  // namespace edgemm::pruning
