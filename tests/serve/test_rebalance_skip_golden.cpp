// Golden schedules of the fast-tier bandwidth rebalancer across idle
// gaps.
//
// With bandwidth management on, the engine ticks on the PMC interval
// grid T. A tick that would re-apply the budgets already in force while
// the fast model has no stream in flight is a no-op, and the engine may
// jump over a whole idle gap of such ticks to the next queued event,
// counting them in closed form. These replays pin makespan, the tick
// count, decode steps and every record's first-token and finish cycles
// to hard-coded values across the cases that stress that jump: long
// idle gaps, arrivals exactly on a grid point and one cycle either side
// of it, and gaps where only the GPU fat backend is busy. Any change to
// the tick path must reproduce them exactly.
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "baselines/gpu_model.hpp"
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

Request req(RequestId id, Cycle arrival, std::size_t input_tokens,
            std::size_t output_tokens) {
  Request r;
  r.id = id;
  r.arrival = arrival;
  r.input_tokens = input_tokens;
  r.output_tokens = output_tokens;
  r.crops = 1;
  return r;
}

EngineConfig managed_config(core::ReplayMode mode = core::ReplayMode::kFast) {
  return EngineConfig()
      .scheduler(std::make_shared<ConcurrencyPolicy>(AdmissionLimits{4, 8}))
      .prefill_planner(std::make_shared<ChunkedPrefill>(128))
      .manage_bandwidth(true)
      .replay_mode(mode);
}

/// The PMC throttle interval T of small_cfg(): the rebalance grid step.
constexpr Cycle kT = 100000;

std::vector<Cycle> first_tokens(const ReplayOutcome& out) {
  std::vector<Cycle> cycles;
  for (const RequestRecord& rec : out.records) cycles.push_back(rec.first_token);
  return cycles;
}

std::vector<Cycle> finishes(const ReplayOutcome& out) {
  std::vector<Cycle> cycles;
  for (const RequestRecord& rec : out.records) cycles.push_back(rec.finish);
  return cycles;
}

TEST(RebalanceSkipGolden, GridStepIsTheThrottleInterval) {
  EXPECT_EQ(small_cfg().dma.throttle_interval, kT);
}

TEST(RebalanceSkipGolden, SparseTraceWithLongIdleGaps) {
  // Each request drains long before the next arrives: most of the run's
  // ticks fall on an engine with nothing in flight.
  const std::vector<Request> trace = {
      req(0, 0, 32, 6), req(1, 3'000'000, 32, 6), req(2, 9'000'000, 64, 12),
      req(3, 9'050'000, 32, 6), req(4, 25'000'000, 48, 9)};
  const ReplayOutcome out =
      replay_trace(small_cfg(), {tiny_model()}, managed_config(), trace);

  EXPECT_EQ(out.result.completed, 5u);
  EXPECT_EQ(out.result.makespan, 25551412u);
  EXPECT_EQ(out.result.rebalances, 255u);
  EXPECT_EQ(out.result.decode_steps, 34u);
  EXPECT_EQ(first_tokens(out),
            (std::vector<Cycle>{238111, 3238111, 9283913, 9606578, 25244171}));
  EXPECT_EQ(finishes(out),
            (std::vector<Cycle>{441195, 3441195, 9754411, 9804325, 25551412}));
}

TEST(RebalanceSkipGolden, ArrivalsOnAndBesideGridPoints) {
  // After each idle gap the first event sits exactly on a tick (k·T) or
  // one cycle either side of one: the resumed tick must land where
  // ticking through the gap would have put it, in the same same-cycle
  // order relative to the arrival.
  const std::vector<Request> trace = {
      req(0, 0, 32, 6), req(1, 40 * kT, 32, 6), req(2, 80 * kT - 1, 32, 6),
      req(3, 120 * kT + 1, 32, 6), req(4, 160 * kT, 64, 12)};
  const ReplayOutcome out =
      replay_trace(small_cfg(), {tiny_model()}, managed_config(), trace);

  EXPECT_EQ(out.result.completed, 5u);
  EXPECT_EQ(out.result.makespan, 16676935u);
  EXPECT_EQ(out.result.rebalances, 166u);
  EXPECT_EQ(out.result.decode_steps, 36u);
  EXPECT_EQ(first_tokens(out),
            (std::vector<Cycle>{238111, 4238111, 8238111, 12309466, 16250643}));
  EXPECT_EQ(finishes(out),
            (std::vector<Cycle>{441195, 4441195, 8441195, 12478072, 16676935}));
}

TEST(RebalanceSkipGolden, TicksWhileOnlyTheFatBackendIsBusy) {
  // Every prefill runs on the GPU fat backend and ships its KV back over
  // the return link: ticks in that window see no stream on the chip, and
  // the next queued event is the fat backend's or the link's.
  const std::vector<Request> trace = {
      req(0, 0, 640, 4), req(1, 6'000'000, 640, 6),
      req(2, 6'000'000 + kT, 512, 3), req(3, 20'000'000, 640, 8)};
  const ReplayOutcome out = replay_trace(
      small_cfg(), {tiny_model()},
      managed_config()
          .fat_backend(baselines::GpuSpec{})
          .offload_policy(std::make_shared<PrefillToFat>(0)),
      trace);

  EXPECT_EQ(out.result.completed, 4u);
  EXPECT_GT(out.result.offloaded_chunks, 0u);
  EXPECT_EQ(out.result.makespan, 21130649u);
  EXPECT_EQ(out.result.rebalances, 211u);
  EXPECT_EQ(out.result.decode_steps, 21u);
  EXPECT_EQ(first_tokens(out),
            (std::vector<Cycle>{710912, 7175821, 7012553, 20710912}));
  EXPECT_EQ(finishes(out),
            (std::vector<Cycle>{882449, 7509848, 7118611, 21130649}));
}

TEST(RebalanceSkipGolden, DetailedTierTicksThroughIdleGaps) {
  // The detailed tier keeps its tick path: the same sparse shape, pinned.
  const std::vector<Request> trace = {req(0, 0, 32, 6),
                                      req(1, 3'000'000, 32, 6)};
  const ReplayOutcome out =
      replay_trace(small_cfg(), {tiny_model()},
                   managed_config(core::ReplayMode::kDetailed), trace);

  EXPECT_EQ(out.result.completed, 2u);
  EXPECT_EQ(out.result.makespan, 3458604u);
  EXPECT_EQ(out.result.rebalances, 34u);
  EXPECT_EQ(out.result.decode_steps, 12u);
  EXPECT_EQ(first_tokens(out),
            (std::vector<Cycle>{241163, 3241163}));
  EXPECT_EQ(finishes(out),
            (std::vector<Cycle>{458604, 3458604}));
}

}  // namespace
}  // namespace edgemm::serve
