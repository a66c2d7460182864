// Golden replays of every path that re-prices a prefill chunk.
//
// A planned chunk's op list and bytes are rebuilt when its request is
// re-judged to a different keep fraction at a chunk boundary, when a pin
// attaches late (after admission), and when a rider of an unfilled pin
// re-fetches the pin's weights (the fill barrier); an offloaded chunk
// leaves the CC backlog instead. These fast-tier replays make each of
// those paths fire and pin the weight-traffic ledger, the makespan and
// every first token to hard-coded values: any rewrite of the chunk
// re-pricing or of the CC backlog it feeds must reproduce them exactly.
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "baselines/gpu_model.hpp"
#include "serve/residency_tracker.hpp"
#include "serve/serving_engine.hpp"

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

model::MllmConfig second_model() {
  model::MllmConfig m = tiny_model();
  m.name = "second-mllm";
  m.llm.d_ffn = 768;
  return m;
}

Request req(RequestId id, Cycle arrival, std::size_t input_tokens,
            std::size_t output_tokens, std::size_t model) {
  Request r;
  r.id = id;
  r.arrival = arrival;
  r.model = model;
  r.input_tokens = input_tokens;
  r.output_tokens = output_tokens;
  r.crops = 1;
  return r;
}

/// Test double: serves `fraction` to every judgment made inside the
/// simulated window [from, to) and the static fraction outside it, so
/// requests mid-prefill across either edge are re-judged at a chunk
/// boundary (a downgrade at `from`, a restore at `to`).
class WindowQuality final : public QualityPolicy {
 public:
  WindowQuality(Cycle from, Cycle to, double fraction)
      : from_(from), to_(to), fraction_(fraction) {}
  const char* name() const override { return "window-quality"; }
  double keep_fraction(const Request&,
                       const QualityContext& ctx) const override {
    return ctx.now >= from_ && ctx.now < to_ ? fraction_ : ctx.base_keep;
  }

 private:
  Cycle from_;
  Cycle to_;
  double fraction_;
};

std::vector<Cycle> first_tokens(const ReplayOutcome& out) {
  std::vector<Cycle> cycles;
  for (const RequestRecord& rec : out.records) cycles.push_back(rec.first_token);
  return cycles;
}

/// Two models share a pin budget that holds one of them. Model 0's first
/// request pins fresh and its second rides the pin before the fill lands
/// (barrier re-fetch); model 1's long prompt falls back at admission and
/// pins late once model 0's riders retire; the longest prompt goes to the
/// fat backend. A quality window degrades and restores requests while
/// their chunks are still pending.
EngineConfig every_path_config(Cycle from, Cycle to) {
  return EngineConfig()
      .scheduler(std::make_shared<ConcurrencyPolicy>(AdmissionLimits{4, 8}))
      .prefill_planner(std::make_shared<ResidentChunkedPrefill>(64))
      .replay_mode(core::ReplayMode::kFast)
      .weight_residency_bytes(2 * llm_layer_group_bytes(tiny_model(),
                                                        small_cfg()))
      .fat_backend(baselines::GpuSpec{})
      .offload_policy(std::make_shared<PrefillToFat>(1024))
      .quality_policy(std::make_shared<WindowQuality>(from, to, 0.5));
}

const std::vector<Request> kEveryPathTrace = {
    req(0, 0, 256, 4, 0), req(1, 0, 192, 4, 0), req(2, 0, 640, 4, 1),
    req(3, 0, 1024, 4, 0)};

TEST(ChunkRepricingGolden, EveryRepricingPathFiresAndReplaysExactly) {
  const ReplayOutcome out =
      replay_trace(small_cfg(), {tiny_model(), second_model()},
                   every_path_config(400000, 900000), kEveryPathTrace);

  ASSERT_EQ(out.result.completed, 4u);
  EXPECT_GT(out.result.quality_downgrades, 0u);
  EXPECT_GT(out.result.quality_restores, 0u);
  EXPECT_GT(out.result.rider_refetch_bytes, 0u);
  EXPECT_GT(out.result.offloaded_chunks, 0u);
  EXPECT_GT(out.result.weight_pins, 1u);
  // Model 1 fell back at admission, then pinned at a later chunk.
  EXPECT_GT(out.result.weight_pin_fallbacks, 0u);
  EXPECT_GT(out.records[2].weight_pinned_layers, 0u);

  EXPECT_EQ(out.result.makespan, 3223669u);
  EXPECT_EQ(out.result.cc_weight_fetch_bytes, 35913728u);
  EXPECT_EQ(out.result.cc_weight_bytes_saved, 21626880u);
  EXPECT_EQ(out.result.rider_refetch_bytes, 2621440u);
  const std::vector<Cycle> golden = {1843452, 1366011, 3020925, 1526512};
  EXPECT_EQ(first_tokens(out), golden);
}

TEST(ChunkRepricingGolden, DegradedLatePinAndBarrierRefetchReplayExactly) {
  // The window opens before admission: plans are priced degraded before
  // their bytes go pending, the rider re-fetches at the pruned shapes,
  // and the late pin re-prices its own fill chunk back to full weights.
  const ReplayOutcome out =
      replay_trace(small_cfg(), {tiny_model(), second_model()},
                   every_path_config(0, 2000000), kEveryPathTrace);

  ASSERT_EQ(out.result.completed, 4u);
  EXPECT_GT(out.result.quality_downgrades, 0u);
  EXPECT_GT(out.result.quality_restores, 0u);
  EXPECT_GT(out.result.rider_refetch_bytes, 0u);
  EXPECT_GT(out.result.offloaded_chunks, 0u);
  EXPECT_GT(out.result.weight_pins, 1u);
  EXPECT_GT(out.records[2].weight_pinned_layers, 0u);

  EXPECT_EQ(out.result.makespan, 3013996u);
  EXPECT_EQ(out.result.cc_weight_fetch_bytes, 31195136u);
  EXPECT_EQ(out.result.cc_weight_bytes_saved, 21626880u);
  EXPECT_EQ(out.result.rider_refetch_bytes, 2621440u);
  const std::vector<Cycle> golden = {1716963, 1283442, 2806215, 1426139};
  EXPECT_EQ(first_tokens(out), golden);
}

}  // namespace
}  // namespace edgemm::serve
