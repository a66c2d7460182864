#include "serve/engine_config.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "model/activation_gen.hpp"

namespace edgemm::serve {

namespace {

/// FNV-1a over the model name: a stable per-model seed perturbation so
/// different zoo entries draw different proxy instances.
std::uint64_t name_hash(const std::string& name) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const char c : name) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ull;
  }
  return h;
}

/// The task proxy's activation source for `model`: its profile capped to
/// the options' proxy caps, seeded per model name. derive_keep_fraction
/// and the quality ledger both price this one proxy.
model::ActivationGenerator proxy_generator(
    const model::MllmConfig& model, const TaskProxyPruningOptions& options) {
  if (options.max_proxy_channels == 0 || options.max_proxy_layers == 0) {
    throw std::invalid_argument(
        "TaskProxyPruningOptions: proxy caps must be > 0");
  }
  model::ActivationProfile profile;
  profile.channels = std::min(model.llm.d_model, options.max_proxy_channels);
  profile.layers = std::max<std::size_t>(
      std::min(model.llm.layers, options.max_proxy_layers), 2);
  return model::ActivationGenerator(profile,
                                    options.proxy.seed ^ name_hash(model.name));
}

}  // namespace

double derive_keep_fraction(const model::MllmConfig& model,
                            const TaskProxyPruningOptions& options) {
  if (!(0.0 <= options.min_agreement && options.min_agreement <= 1.0)) {
    throw std::invalid_argument(
        "derive_keep_fraction: min_agreement must be in [0, 1]");
  }
  if (!(0.0 < options.min_keep_fraction && options.min_keep_fraction <= 1.0)) {
    throw std::invalid_argument(
        "derive_keep_fraction: min_keep_fraction must be in (0, 1]");
  }
  const model::ActivationGenerator gen = proxy_generator(model, options);
  const pruning::TaskProxyResult result =
      pruning::evaluate_task_proxy(gen, options.proxy);

  double keep = 1.0;  // pruning off unless the proxy clears the bar
  if (result.agreement_dynamic >= options.min_agreement) {
    keep = 1.0 - result.mean_pruning_ratio;
  } else {
    // Fall back to the most aggressive fixed ratio that still agrees.
    double best_ratio = 0.0;
    for (std::size_t f = 0; f < options.proxy.fixed_ratios.size(); ++f) {
      if (result.agreement_fixed[f] >= options.min_agreement) {
        best_ratio = std::max(best_ratio, options.proxy.fixed_ratios[f]);
      }
    }
    keep = 1.0 - best_ratio;
  }
  return std::clamp(keep, options.min_keep_fraction, 1.0);
}

std::vector<double> quality_accuracy_proxy(
    std::span<const model::MllmConfig> models,
    std::span<const KeepPricing> pairs,
    const TaskProxyPruningOptions& options) {
  std::vector<double> accuracy(pairs.size(), 1.0);
  // One query per model with a pruned pair; query_of[m] indexes it.
  std::vector<std::size_t> query_of(models.size(), pairs.size());
  std::vector<model::ActivationGenerator> gens;
  std::vector<pruning::TaskProxyQuery> queries;
  gens.reserve(models.size());  // queries point into gens
  for (const KeepPricing& pair : pairs) {
    if (!(pair.keep_fraction > 0.0)) {
      throw std::invalid_argument(
          "quality_accuracy_proxy: keep_fraction must be positive");
    }
    if (pair.model >= models.size()) {
      throw std::invalid_argument(
          "quality_accuracy_proxy: model index out of range");
    }
    if (pair.keep_fraction >= 1.0) continue;  // no pruning, agreement exact
    std::size_t& q = query_of[pair.model];
    if (q == pairs.size()) {
      q = queries.size();
      gens.push_back(proxy_generator(models[pair.model], options));
      queries.push_back({&gens.back(), {}, /*dynamic=*/false});
    }
    queries[q].fixed_ratios.push_back(1.0 - pair.keep_fraction);
  }
  if (queries.empty()) return accuracy;

  const std::vector<pruning::TaskProxyResult> results =
      pruning::evaluate_task_proxy(queries, options.proxy);
  std::vector<std::size_t> next_ratio(queries.size(), 0);
  for (std::size_t i = 0; i < pairs.size(); ++i) {
    if (pairs[i].keep_fraction >= 1.0) continue;
    const std::size_t q = query_of[pairs[i].model];
    accuracy[i] = results[q].agreement_fixed[next_ratio[q]++];
  }
  return accuracy;
}

double quality_accuracy_proxy(const model::MllmConfig& model,
                              double keep_fraction,
                              const TaskProxyPruningOptions& options) {
  const KeepPricing pair{0, keep_fraction};
  return quality_accuracy_proxy({&model, 1}, {&pair, 1}, options).front();
}

EngineConfig::EngineConfig()
    : scheduler_(std::make_shared<ConcurrencyPolicy>(AdmissionLimits{})),
      planner_(std::make_shared<MonolithicPrefill>()),
      batcher_(std::make_shared<FifoBatch>()),
      placement_(std::make_shared<KeepCurrentPlacement>()),
      offload_(std::make_shared<NoOffload>()),
      quality_(std::make_shared<StaticQuality>()) {}

EngineConfig& EngineConfig::scheduler(
    std::shared_ptr<const SchedulerPolicy> policy) {
  if (!policy) {
    throw std::invalid_argument("EngineConfig: null SchedulerPolicy");
  }
  scheduler_ = std::move(policy);
  return *this;
}

EngineConfig& EngineConfig::prefill_planner(
    std::shared_ptr<const PrefillPlanner> planner) {
  if (!planner) {
    throw std::invalid_argument("EngineConfig: null PrefillPlanner");
  }
  planner_ = std::move(planner);
  return *this;
}

EngineConfig& EngineConfig::batch_policy(
    std::shared_ptr<const BatchPolicy> policy) {
  if (!policy) {
    throw std::invalid_argument("EngineConfig: null BatchPolicy");
  }
  batcher_ = std::move(policy);
  return *this;
}

EngineConfig& EngineConfig::manage_bandwidth(bool enabled) {
  manage_bandwidth_ = enabled;
  return *this;
}

EngineConfig& EngineConfig::prune_keep_fraction(double fraction) {
  if (!(0.0 < fraction && fraction <= 1.0)) {
    throw std::invalid_argument(
        "EngineConfig: prune_keep_fraction must be in (0, 1]");
  }
  prune_keep_fraction_ = fraction;
  return *this;
}

EngineConfig& EngineConfig::task_proxy_pruning(TaskProxyPruningOptions options) {
  if (!(0.0 <= options.min_agreement && options.min_agreement <= 1.0)) {
    throw std::invalid_argument(
        "EngineConfig: task-proxy min_agreement must be in [0, 1]");
  }
  if (!(0.0 < options.min_keep_fraction && options.min_keep_fraction <= 1.0)) {
    throw std::invalid_argument(
        "EngineConfig: task-proxy min_keep_fraction must be in (0, 1]");
  }
  task_proxy_ = std::move(options);
  return *this;
}

EngineConfig& EngineConfig::kv_capacity_bytes(Bytes bytes) {
  kv_capacity_bytes_ = bytes;
  return *this;
}

EngineConfig& EngineConfig::paged_kv(bool enabled) {
  paged_kv_ = enabled;
  return *this;
}

EngineConfig& EngineConfig::kv_page_bytes(Bytes bytes) {
  if (bytes == 0) {
    throw std::invalid_argument("EngineConfig: kv_page_bytes must be > 0");
  }
  kv_page_bytes_ = bytes;
  return *this;
}

EngineConfig& EngineConfig::weight_residency_bytes(Bytes bytes) {
  weight_residency_bytes_ = bytes;
  return *this;
}

EngineConfig& EngineConfig::placement_policy(
    std::shared_ptr<const PlacementPolicy> policy) {
  if (!policy) {
    throw std::invalid_argument("EngineConfig: null PlacementPolicy");
  }
  placement_ = std::move(policy);
  return *this;
}

EngineConfig& EngineConfig::replay_mode(core::ReplayMode mode) {
  replay_mode_ = mode;
  return *this;
}

EngineConfig& EngineConfig::phase(EnginePhase phase) {
  phase_ = phase;
  return *this;
}

EngineConfig& EngineConfig::fat_backend(const baselines::GpuSpec& spec) {
  spec.validate();  // eager, so the error names the bad field here
  fat_backend_ = spec;
  return *this;
}

EngineConfig& EngineConfig::offload_policy(
    std::shared_ptr<const OffloadPolicy> policy) {
  if (!policy) {
    throw std::invalid_argument("EngineConfig: null OffloadPolicy");
  }
  offload_ = std::move(policy);
  return *this;
}

EngineConfig& EngineConfig::kv_swap_refill_dma(bool enabled) {
  kv_swap_refill_dma_ = enabled;
  return *this;
}

EngineConfig& EngineConfig::quality_policy(
    std::shared_ptr<const QualityPolicy> policy) {
  if (!policy) {
    throw std::invalid_argument("EngineConfig: null QualityPolicy");
  }
  quality_ = std::move(policy);
  return *this;
}

EngineConfig& EngineConfig::quality_band(double min_keep, double max_keep) {
  if (!(0.0 < min_keep && min_keep <= max_keep && max_keep <= 1.0)) {
    throw std::invalid_argument(
        "EngineConfig: quality_band needs 0 < min_keep <= max_keep <= 1");
  }
  quality_min_keep_ = min_keep;
  quality_max_keep_ = max_keep;
  return *this;
}

void EngineConfig::validate() const {
  if (!scheduler_ || !planner_ || !batcher_ || !placement_ || !quality_) {
    throw std::invalid_argument("EngineConfig: missing policy");
  }
  if (!(0.0 < quality_min_keep_ && quality_min_keep_ <= quality_max_keep_ &&
        quality_max_keep_ <= 1.0)) {
    throw std::invalid_argument(
        "EngineConfig: quality band needs 0 < min_keep <= max_keep <= 1");
  }
  if (paged_kv_ && kv_capacity_bytes_ > 0 &&
      kv_capacity_bytes_ < kv_page_bytes_) {
    throw std::invalid_argument(
        "EngineConfig: the KV budget must hold at least one kv_page_bytes "
        "page under paged_kv");
  }
  if (!(0.0 < prune_keep_fraction_ && prune_keep_fraction_ <= 1.0)) {
    throw std::invalid_argument(
        "EngineConfig: prune_keep_fraction must be in (0, 1]");
  }
  if (weight_residency_bytes_ > 0 && !planner_->chains_weight_residency()) {
    throw std::invalid_argument(
        "EngineConfig: weight_residency_bytes set but the PrefillPlanner "
        "does not chain weight residency (use ResidentChunkedPrefill)");
  }
  if (!fat_backend_ && !dynamic_cast<const NoOffload*>(offload_.get())) {
    throw std::invalid_argument(
        "EngineConfig: an offloading OffloadPolicy needs a fat_backend to "
        "route chunks to (set fat_backend or keep NoOffload)");
  }
  if (fat_backend_) {
    fat_backend_->validate();
  }
}

}  // namespace edgemm::serve
