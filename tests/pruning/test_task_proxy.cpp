#include "pruning/task_proxy.hpp"

#include <algorithm>
#include <stdexcept>
#include <vector>

#include <gtest/gtest.h>

#include "common/statistics.hpp"
#include "common/tensor.hpp"
#include "model/ffn.hpp"

namespace edgemm::pruning {
namespace {

/// The proxy as first written: one query, a materialized gated MLP per
/// (token, layer) decision, the dense and every pruned FFN run through
/// model/ffn. The streamed kernel must reproduce it bit for bit.
TaskProxyResult reference_task_proxy(const model::ActivationGenerator& gen,
                                     const TaskProxyConfig& config) {
  auto argmax = [](std::span<const float> logits) {
    return static_cast<std::size_t>(
        std::max_element(logits.begin(), logits.end()) - logits.begin());
  };
  auto kept_channels = [](std::span<const float> v, std::size_t k) {
    auto idx = top_k_indices_by_magnitude(v, k);
    std::sort(idx.begin(), idx.end());
    return idx;
  };
  const auto& profile = gen.profile();
  const std::size_t d = profile.channels;

  Rng rng(config.seed ^ 0x5bd1e995u);
  Tensor head(d, config.answer_classes);
  for (float& v : head.flat()) v = static_cast<float>(rng.gaussian(0.0, 1.0));

  TaskProxyResult result;
  result.agreement_fixed.assign(config.fixed_ratios.size(), 0.0);
  double ratio_sum = 0.0;
  for (std::size_t tok = 0; tok < config.tokens; ++tok) {
    DynamicTopK controller(config.dynamic, d);
    controller.begin_token();
    Rng layer_rng = rng.split();
    for (std::size_t layer = 0; layer < profile.layers; ++layer) {
      const auto v = gen.activations(layer, tok);
      const std::size_t k_used = controller.step(layer, v);
      ratio_sum += 1.0 - static_cast<double>(k_used) / static_cast<double>(d);

      Rng weights_rng = layer_rng.split();
      const auto weights = model::random_gated_mlp(d, config.d_ffn, weights_rng);
      const auto dense_out = model::ffn_reference(weights, v);
      const auto dense_answer = argmax(gemv_reference(dense_out, head));

      const auto dyn_out = model::ffn_pruned(weights, v, kept_channels(v, k_used));
      if (argmax(gemv_reference(dyn_out, head)) == dense_answer) {
        result.agreement_dynamic += 1.0;
      }
      for (std::size_t f = 0; f < config.fixed_ratios.size(); ++f) {
        const std::size_t k_fixed = fixed_ratio_k(d, config.fixed_ratios[f]);
        const auto fixed_out =
            model::ffn_pruned(weights, v, kept_channels(v, k_fixed));
        if (argmax(gemv_reference(fixed_out, head)) == dense_answer) {
          result.agreement_fixed[f] += 1.0;
        }
      }
      ++result.decisions;
    }
  }
  const auto n = static_cast<double>(result.decisions);
  result.agreement_dynamic /= n;
  for (double& a : result.agreement_fixed) a /= n;
  result.mean_pruning_ratio = ratio_sum / n;
  return result;
}

void expect_same(const TaskProxyResult& got, const TaskProxyResult& want,
                 bool dynamic) {
  EXPECT_EQ(got.decisions, want.decisions);
  EXPECT_EQ(got.agreement_fixed, want.agreement_fixed);
  if (dynamic) {
    EXPECT_EQ(got.agreement_dynamic, want.agreement_dynamic);
    EXPECT_EQ(got.mean_pruning_ratio, want.mean_pruning_ratio);
  } else {
    EXPECT_EQ(got.agreement_dynamic, 0.0);
    EXPECT_EQ(got.mean_pruning_ratio, 0.0);
  }
}

model::ActivationProfile proxy_profile() {
  model::ActivationProfile p;
  p.channels = 256;
  p.layers = 6;
  return p;
}

TaskProxyConfig proxy_config() {
  TaskProxyConfig cfg;
  cfg.d_ffn = 256;
  cfg.tokens = 3;
  cfg.answer_classes = 32;
  return cfg;
}

TEST(TaskProxy, ScoresAreProbabilities) {
  model::ActivationGenerator gen(proxy_profile(), 17);
  const auto result = evaluate_task_proxy(gen, proxy_config());
  EXPECT_GE(result.agreement_dynamic, 0.0);
  EXPECT_LE(result.agreement_dynamic, 1.0);
  ASSERT_EQ(result.agreement_fixed.size(), 2u);
  for (const double a : result.agreement_fixed) {
    EXPECT_GE(a, 0.0);
    EXPECT_LE(a, 1.0);
  }
  EXPECT_EQ(result.decisions, 3u * 6u);
}

TEST(TaskProxy, DynamicKeepsHighAgreement) {
  // The "minimal VQA score reduction" claim: the dynamic scheme rarely
  // flips the downstream answer.
  model::ActivationGenerator gen(proxy_profile(), 17);
  const auto result = evaluate_task_proxy(gen, proxy_config());
  EXPECT_GT(result.agreement_dynamic, 0.8);
}

TEST(TaskProxy, DynamicBeatsAggressiveFixed) {
  // Fixed 0.7 flips far more answers (it mutilates shallow layers).
  model::ActivationGenerator gen(proxy_profile(), 17);
  const auto result = evaluate_task_proxy(gen, proxy_config());
  EXPECT_GE(result.agreement_dynamic, result.agreement_fixed[1]);
}

TEST(TaskProxy, MildFixedIsNearPerfect) {
  model::ActivationGenerator gen(proxy_profile(), 17);
  const auto result = evaluate_task_proxy(gen, proxy_config());
  EXPECT_GT(result.agreement_fixed[0], 0.85);  // ratio 0.1
}

TEST(TaskProxy, Deterministic) {
  model::ActivationGenerator gen_a(proxy_profile(), 17);
  model::ActivationGenerator gen_b(proxy_profile(), 17);
  const auto a = evaluate_task_proxy(gen_a, proxy_config());
  const auto b = evaluate_task_proxy(gen_b, proxy_config());
  EXPECT_EQ(a.agreement_dynamic, b.agreement_dynamic);
  EXPECT_EQ(a.mean_pruning_ratio, b.mean_pruning_ratio);
}

TEST(TaskProxy, ReportsPruningDepth) {
  model::ActivationGenerator gen(proxy_profile(), 17);
  const auto result = evaluate_task_proxy(gen, proxy_config());
  EXPECT_GT(result.mean_pruning_ratio, 0.05);
  EXPECT_LT(result.mean_pruning_ratio, 0.95);
}

TEST(TaskProxy, OneQueryMatchesTheMaterializedReference) {
  model::ActivationGenerator gen(proxy_profile(), 17);
  TaskProxyConfig cfg = proxy_config();
  cfg.fixed_ratios = {0.0, 0.1, 0.5, 0.5, 0.7, 0.999};
  const auto want = reference_task_proxy(gen, cfg);
  expect_same(evaluate_task_proxy(gen, cfg), want, true);
  // The dynamic path off prices the fixed ratios alone, unchanged.
  const TaskProxyQuery fixed_only{&gen, cfg.fixed_ratios, false};
  expect_same(evaluate_task_proxy({&fixed_only, 1}, cfg).front(), want, false);
}

TEST(TaskProxy, MultiQueryMatchesOneReferencePerQuery) {
  // Two generators share 256 channels (one weight stream) at different
  // depths and seeds; a third has 128 channels (its own stream). Ratios
  // repeat, include 0 (the dense budget) and one near 1.
  model::ActivationProfile deep = proxy_profile();
  model::ActivationProfile shallow = proxy_profile();
  shallow.layers = 3;
  model::ActivationProfile narrow = proxy_profile();
  narrow.channels = 128;
  narrow.layers = 4;
  const model::ActivationGenerator gen_deep(deep, 17);
  const model::ActivationGenerator gen_narrow(narrow, 23);
  const model::ActivationGenerator gen_shallow(shallow, 29);
  const std::vector<TaskProxyQuery> queries{
      {&gen_deep, {0.5, 0.1, 0.5}, true},
      {&gen_narrow, {0.0, 0.999}, false},
      {&gen_shallow, {0.25, 0.75}, false},
      {&gen_deep, {}, true},
      {&gen_narrow, {0.3, 0.3, 0.6}, true},
  };
  const auto got = evaluate_task_proxy(queries, proxy_config());
  ASSERT_EQ(got.size(), queries.size());
  for (std::size_t q = 0; q < queries.size(); ++q) {
    SCOPED_TRACE(q);
    TaskProxyConfig cfg = proxy_config();
    cfg.fixed_ratios = queries[q].fixed_ratios;
    expect_same(got[q], reference_task_proxy(*queries[q].gen, cfg),
                queries[q].dynamic);
  }
  EXPECT_EQ(got[2].decisions, 3u * 3u);
  EXPECT_EQ(got[1].decisions, 3u * 4u);
}

TEST(TaskProxy, MultiQueryValidatesItsInput) {
  model::ActivationGenerator gen(proxy_profile(), 17);
  const TaskProxyQuery null_gen{nullptr, {0.5}, false};
  EXPECT_THROW(evaluate_task_proxy({&null_gen, 1}, proxy_config()),
               std::invalid_argument);
  const TaskProxyQuery bad_ratio{&gen, {1.5}, false};
  EXPECT_THROW(evaluate_task_proxy({&bad_ratio, 1}, proxy_config()),
               std::invalid_argument);
  TaskProxyConfig no_ffn = proxy_config();
  no_ffn.d_ffn = 0;
  EXPECT_THROW(evaluate_task_proxy(gen, no_ffn), std::invalid_argument);
  EXPECT_TRUE(evaluate_task_proxy({}, proxy_config()).empty());
}

}  // namespace
}  // namespace edgemm::pruning
