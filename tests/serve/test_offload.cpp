#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "baselines/gpu_model.hpp"
#include "serve/cluster/cluster_engine.hpp"
#include "serve/serving_engine.hpp"
#include "serve/sweep.hpp"
#include "serve/trace.hpp"

namespace edgemm::serve {
namespace {

core::ChipConfig small_cfg() {
  core::ChipConfig cfg = core::default_chip_config();
  cfg.groups = 1;
  return cfg;
}

model::MllmConfig tiny_model() {
  model::MllmConfig m;
  m.name = "tiny-mllm";
  m.encoders = {{"enc", 2, 256, 512, 4, 4, 0, false}};
  m.vision_tokens = 16;
  m.projector_params = 0;
  m.llm = {"llm", 2, 256, 512, 4, 4, 1024, true};
  return m;
}

/// Prefill-heavy trace: long prompts, short outputs — the operating
/// point where shipping prefill to a fat backend can pay.
std::vector<Request> long_prefill_trace(std::size_t requests = 8) {
  TraceConfig cfg;
  cfg.requests = requests;
  cfg.arrival_rate_per_s = 2000.0;
  cfg.input_tokens = 640;
  cfg.min_output_tokens = 2;
  cfg.max_output_tokens = 8;
  return poisson_trace(cfg);
}

EngineConfig base_config() {
  return EngineConfig()
      .scheduler(std::make_shared<ConcurrencyPolicy>(AdmissionLimits{4, 8}))
      .prefill_planner(std::make_shared<ChunkedPrefill>(128))
      .manage_bandwidth(false);
}

TEST(Offload, NoOffloadWithFatBackendIsByteIdenticalToNoBackend) {
  // An idle fat backend must be free: configuring the GPU while the
  // policy never routes to it leaves the replay bit-identical — result
  // AND every record — to an engine with no fat backend at all.
  const auto trace = long_prefill_trace();
  const auto plain =
      replay_trace(small_cfg(), {tiny_model()}, base_config(), trace);
  const auto with_gpu = replay_trace(
      small_cfg(), {tiny_model()},
      base_config().fat_backend(baselines::GpuSpec{}), trace);

  EXPECT_TRUE(plain.result == with_gpu.result);
  ASSERT_EQ(plain.records.size(), with_gpu.records.size());
  for (std::size_t i = 0; i < plain.records.size(); ++i) {
    EXPECT_TRUE(plain.records[i] == with_gpu.records[i]);
  }
  EXPECT_EQ(with_gpu.result.offloaded_chunks, 0u);
  EXPECT_EQ(with_gpu.result.fat_bytes_moved, 0u);
  EXPECT_EQ(with_gpu.result.kv_return_transfers, 0u);
}

TEST(Offload, PrefillToFatShipsKvBackWithExactConservation) {
  const auto trace = long_prefill_trace();
  const auto out = replay_trace(
      small_cfg(), {tiny_model()},
      base_config()
          .fat_backend(baselines::GpuSpec{})
          .offload_policy(std::make_shared<PrefillToFat>(512)),
      trace);
  const ServingResult& r = out.result;

  // Every long-prompt request offloaded its whole prefill; decode ran
  // locally, so all requests still completed.
  EXPECT_EQ(r.completed, trace.size());
  EXPECT_EQ(r.offloaded_requests, trace.size());
  EXPECT_GT(r.offloaded_chunks, 0u);
  EXPECT_GT(r.fat_bytes_moved, 0u);
  EXPECT_GT(r.fat_kernel_launches, 0u);

  // The KV return link ledger conserves exactly: one shipment per
  // offloaded request, everything sent has landed, nothing in flight at
  // the drained probe.
  EXPECT_EQ(r.kv_return_transfers, r.offloaded_requests);
  EXPECT_GT(r.kv_return_bytes_sent, 0u);
  EXPECT_EQ(r.kv_return_bytes_sent,
            r.kv_return_bytes_landed + r.kv_return_bytes_in_flight);
  EXPECT_EQ(r.kv_return_bytes_in_flight, 0u);

  // Per-record ledger agrees with the aggregate.
  std::size_t chunk_sum = 0;
  for (const RequestRecord& rec : out.records) {
    EXPECT_TRUE(rec.done);
    chunk_sum += rec.offloaded_chunks;
    EXPECT_EQ(rec.prefill_chunks > 0, true);
  }
  EXPECT_EQ(chunk_sum, r.offloaded_chunks);
}

TEST(Offload, OffloadedRequestsNeverPinWeights) {
  // The pin/offload exclusion: a chunk0-fat request skips weight
  // pinning entirely (the fat backend has no TCDM residency), so a
  // policy that offloads everything leaves the residency ledger empty.
  const auto trace = long_prefill_trace();
  const auto out = replay_trace(
      small_cfg(), {tiny_model()},
      base_config()
          .prefill_planner(std::make_shared<ResidentChunkedPrefill>(128))
          .weight_residency_bytes(Bytes{1} << 30)
          .fat_backend(baselines::GpuSpec{})
          .offload_policy(std::make_shared<PrefillToFat>(0)),
      trace);
  EXPECT_EQ(out.result.offloaded_requests, trace.size());
  EXPECT_EQ(out.result.weight_pins, 0u);
  for (const RequestRecord& rec : out.records) {
    EXPECT_GT(rec.offloaded_chunks, 0u);
    EXPECT_EQ(rec.weight_pinned_layers, 0u);
  }
}

TEST(Offload, ThresholdOffloadUnderPressureIsDeterministic) {
  // Queue-pressure offload depends on live occupancy; two identical
  // replays must still make identical chunk-placement decisions.
  const auto trace = long_prefill_trace(12);
  auto config = [] {
    return base_config()
        .fat_backend(baselines::GpuSpec{})
        .offload_policy(std::make_shared<ThresholdOffload>(2));
  };
  const auto a = replay_trace(small_cfg(), {tiny_model()}, config(), trace);
  const auto b = replay_trace(small_cfg(), {tiny_model()}, config(), trace);

  EXPECT_TRUE(a.result == b.result);
  ASSERT_EQ(a.records.size(), b.records.size());
  for (std::size_t i = 0; i < a.records.size(); ++i) {
    EXPECT_TRUE(a.records[i] == b.records[i]);
  }
  // The pressure threshold actually split: some chunks went fat, but
  // not all of them (the whole point of chunk-granular placement).
  std::size_t total_chunks = 0;
  for (const RequestRecord& rec : a.records) total_chunks += rec.prefill_chunks;
  EXPECT_GT(a.result.offloaded_chunks, 0u);
  EXPECT_LT(a.result.offloaded_chunks, total_chunks);
}

TEST(Offload, SweepIsByteIdenticalAcrossWorkerCounts) {
  const auto trace = long_prefill_trace(10);
  std::vector<SweepCase> cases;
  for (const char* label : {"no-offload", "prefill-to-fat", "threshold"}) {
    SweepCase c;
    c.label = label;
    c.chip = small_cfg();
    c.models = {tiny_model()};
    c.engine = base_config().fat_backend(baselines::GpuSpec{});
    if (std::string(label) == "prefill-to-fat") {
      c.engine.offload_policy(std::make_shared<PrefillToFat>(512));
    } else if (std::string(label) == "threshold") {
      c.engine.offload_policy(std::make_shared<ThresholdOffload>(2));
    }
    c.requests = trace;
    cases.push_back(std::move(c));
  }
  const auto seq = run_sweep(cases, SweepOptions{1});
  const auto par = run_sweep(cases, SweepOptions{4});
  ASSERT_EQ(seq.size(), par.size());
  for (std::size_t i = 0; i < seq.size(); ++i) {
    EXPECT_TRUE(outcomes_identical(seq[i], par[i]));
  }
}

TEST(Offload, ClusterChipsCanBeHeterogeneousPairs) {
  // Every chip of a replica cluster is an EdgeMM + GPU pair when the
  // shared EngineConfig carries a fat backend: each shard offloads its
  // long prefills independently and the ClusterResult sums the offload
  // and KV-return ledgers over the chips.
  const auto trace = long_prefill_trace(10);
  ClusterConfig cluster;
  cluster.chips(2).workers(2);
  const ClusterOutcome out = run_cluster(
      small_cfg(), {tiny_model()},
      base_config()
          .fat_backend(baselines::GpuSpec{})
          .offload_policy(std::make_shared<PrefillToFat>(512)),
      cluster, trace);

  EXPECT_EQ(out.result.completed, trace.size());
  EXPECT_EQ(out.result.offloaded_requests, trace.size());
  std::size_t chunks = 0, requests = 0;
  Bytes fat_bytes = 0, kv_back = 0;
  for (const ServingResult& r : out.result.per_chip) {
    requests += r.offloaded_requests;
    chunks += r.offloaded_chunks;
    fat_bytes += r.fat_bytes_moved;
    kv_back += r.kv_return_bytes_sent;
    // Every chip's own return link drained and conserved.
    EXPECT_EQ(r.kv_return_bytes_in_flight, 0u);
    EXPECT_EQ(r.kv_return_bytes_sent, r.kv_return_bytes_landed);
  }
  EXPECT_EQ(out.result.offloaded_requests, requests);
  EXPECT_EQ(out.result.offloaded_chunks, chunks);
  EXPECT_EQ(out.result.fat_bytes_moved, fat_bytes);
  EXPECT_EQ(out.result.kv_return_bytes, kv_back);
  EXPECT_GT(out.result.kv_return_bytes, 0u);
}

TEST(Offload, ConfigValidationGuardsTheSeam) {
  // An offloading policy without a fat backend to route to is rejected
  // at validate() — NoOffload stays fine.
  EngineConfig config = base_config().offload_policy(
      std::make_shared<PrefillToFat>(512));
  EXPECT_THROW(config.validate(), std::invalid_argument);
  EXPECT_NO_THROW(base_config().validate());

  EXPECT_THROW(base_config().offload_policy(nullptr), std::invalid_argument);
  EXPECT_THROW(ThresholdOffload(0), std::invalid_argument);

  // fat_backend validates the spec eagerly.
  baselines::GpuSpec bad;
  bad.memory_bandwidth = 0.0;
  EXPECT_THROW(base_config().fat_backend(bad), std::invalid_argument);
}

}  // namespace
}  // namespace edgemm::serve
