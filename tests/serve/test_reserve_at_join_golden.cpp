// Golden decode-join schedule of the reserve-at-join KV budget
// (EngineConfig::paged_kv off).
//
// Reserve-at-join charges each request's whole final footprint when it
// joins the decode batch and defers a join that would overflow. These
// replays sit exactly on the budget boundary — one footprint, two
// footprints of models with different per-token KV bytes, and one byte
// less — and pin deferral counts, first-token cycles and the exact peak
// reserved bytes to hard-coded values: any rewrite of the KV ledger
// must reproduce them exactly, not just approximately.
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "model/workload.hpp"
#include "serve/serving_engine.hpp"

namespace edgemm::serve {
namespace {

core::ChipConfig small_cfg() {
  core::ChipConfig cfg = core::default_chip_config();
  cfg.groups = 1;
  return cfg;
}

/// 2 LLM layers: 2048 KV bytes per token.
model::MllmConfig tiny_model() {
  model::MllmConfig m;
  m.name = "tiny-mllm";
  m.encoders = {{"enc", 2, 256, 512, 4, 4, 0, false}};
  m.vision_tokens = 16;
  m.projector_params = 0;
  m.llm = {"llm", 2, 256, 512, 4, 4, 1024, true};
  return m;
}

/// 3 LLM layers: 3072 KV bytes per token (gcd with tiny_model: 1024).
model::MllmConfig deeper_model() {
  model::MllmConfig m = tiny_model();
  m.name = "deeper-mllm";
  m.llm.layers = 3;
  return m;
}

Request req(RequestId id, Cycle arrival, std::size_t input_tokens,
            std::size_t output_tokens, std::size_t model = 0) {
  Request r;
  r.id = id;
  r.arrival = arrival;
  r.model = model;
  r.input_tokens = input_tokens;
  r.output_tokens = output_tokens;
  r.crops = 1;
  return r;
}

EngineConfig budget_config(Bytes kv_budget) {
  return EngineConfig()
      .scheduler(std::make_shared<ConcurrencyPolicy>(AdmissionLimits{4, 8}))
      .manage_bandwidth(false)
      .kv_capacity_bytes(kv_budget);
}

std::vector<Cycle> first_tokens(const ReplayOutcome& out) {
  std::vector<Cycle> cycles;
  for (const RequestRecord& rec : out.records) cycles.push_back(rec.first_token);
  return cycles;
}

TEST(ReserveAtJoinGolden, OneFootprintBudgetSerializesDecodeJoins) {
  const model::MllmConfig m = tiny_model();
  const std::vector<Request> trace = {req(0, 0, 32, 6), req(1, 0, 32, 6),
                                      req(2, 2000, 32, 6)};
  const Bytes footprint = kv_footprint_bytes(trace[0], m);
  ASSERT_EQ(footprint, 38u * 2048u);
  const ReplayOutcome out =
      replay_trace(small_cfg(), {m}, budget_config(footprint), trace);

  EXPECT_EQ(out.result.completed, 3u);
  EXPECT_EQ(out.result.kv_deferrals, 7u);
  EXPECT_EQ(out.result.peak_kv_reserved_bytes, footprint);
  EXPECT_EQ(out.result.peak_decode_batch, 1u);
  EXPECT_EQ(out.result.makespan, 1334714u);
  const std::vector<Cycle> golden = {282927, 652244, 1022231};
  EXPECT_EQ(first_tokens(out), golden);
}

TEST(ReserveAtJoinGolden, TwoModelsJoinTogetherAtExactlyTwoFootprints) {
  const std::vector<model::MllmConfig> models = {tiny_model(), deeper_model()};
  const std::vector<Request> trace = {req(0, 0, 32, 6, 0),
                                      req(1, 0, 24, 7, 1)};
  const Bytes both = kv_footprint_bytes(trace[0], models[0]) +
                     kv_footprint_bytes(trace[1], models[1]);
  ASSERT_EQ(both, 38u * 2048u + 31u * 3072u);
  const ReplayOutcome out =
      replay_trace(small_cfg(), models, budget_config(both), trace);

  EXPECT_EQ(out.result.completed, 2u);
  EXPECT_EQ(out.result.kv_deferrals, 0u);
  EXPECT_EQ(out.result.peak_kv_reserved_bytes, both);
  EXPECT_EQ(out.result.peak_decode_batch, 2u);
  EXPECT_EQ(out.result.makespan, 1215531u);
  const std::vector<Cycle> golden = {282927, 610448};
  EXPECT_EQ(first_tokens(out), golden);
}

TEST(ReserveAtJoinGolden, TwoModelsOneByteUnderTwoFootprintsDefersTheSecond) {
  const std::vector<model::MllmConfig> models = {tiny_model(), deeper_model()};
  const std::vector<Request> trace = {req(0, 0, 32, 6, 0),
                                      req(1, 0, 24, 7, 1)};
  const Bytes both = kv_footprint_bytes(trace[0], models[0]) +
                     kv_footprint_bytes(trace[1], models[1]);
  const ReplayOutcome out =
      replay_trace(small_cfg(), models, budget_config(both - 1), trace);

  EXPECT_EQ(out.result.completed, 2u);
  EXPECT_EQ(out.result.kv_deferrals, 2u);
  // The two never hold KV together: the peak is the larger footprint.
  EXPECT_EQ(out.result.peak_kv_reserved_bytes, 31u * 3072u);
  EXPECT_EQ(out.result.peak_decode_batch, 1u);
  EXPECT_EQ(out.result.makespan, 1213933u);
  const std::vector<Cycle> golden = {282927, 642441};
  EXPECT_EQ(first_tokens(out), golden);
}

}  // namespace
}  // namespace edgemm::serve
