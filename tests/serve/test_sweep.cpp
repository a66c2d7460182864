#include "serve/sweep.hpp"

#include <cmath>
#include <memory>
#include <stdexcept>
#include <vector>

#include <gtest/gtest.h>

#include "serve/admission.hpp"
#include "serve/policy.hpp"
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

std::vector<Request> small_trace() {
  TraceConfig cfg;
  cfg.requests = 8;
  cfg.arrival_rate_per_s = 2000.0;
  cfg.input_tokens = 32;
  cfg.min_output_tokens = 2;
  cfg.max_output_tokens = 8;
  return poisson_trace(cfg);
}

EngineConfig base_engine(core::ReplayMode mode) {
  return EngineConfig()
      .scheduler(std::make_shared<ConcurrencyPolicy>(AdmissionLimits{4, 8}))
      .manage_bandwidth(false)
      .replay_mode(mode);
}

/// A policy grid on the fast tier: the shape the bench sweeps, shrunk.
std::vector<SweepCase> policy_grid() {
  std::vector<SweepCase> cases;
  const auto trace = small_trace();
  {
    SweepCase c{"fifo", small_cfg(), {tiny_model()},
                base_engine(core::ReplayMode::kFast), trace};
    cases.push_back(std::move(c));
  }
  {
    SweepCase c{"srf", small_cfg(), {tiny_model()},
                base_engine(core::ReplayMode::kFast)
                    .batch_policy(std::make_shared<ShortestRemainingFirst>()),
                trace};
    cases.push_back(std::move(c));
  }
  {
    SweepCase c{"chunked", small_cfg(), {tiny_model()},
                base_engine(core::ReplayMode::kFast)
                    .prefill_planner(std::make_shared<ChunkedPrefill>(16)),
                trace};
    cases.push_back(std::move(c));
  }
  {
    SweepCase c{"srf-chunked", small_cfg(), {tiny_model()},
                base_engine(core::ReplayMode::kFast)
                    .batch_policy(std::make_shared<ShortestRemainingFirst>())
                    .prefill_planner(std::make_shared<ChunkedPrefill>(16)),
                trace};
    cases.push_back(std::move(c));
  }
  return cases;
}

TEST(Sweep, OutcomesArriveInCaseOrder) {
  const auto outcomes = run_sweep(policy_grid(), {.workers = 1});
  ASSERT_EQ(outcomes.size(), 4u);
  EXPECT_EQ(outcomes[0].label, "fifo");
  EXPECT_EQ(outcomes[1].label, "srf");
  EXPECT_EQ(outcomes[2].label, "chunked");
  EXPECT_EQ(outcomes[3].label, "srf-chunked");
  for (const SweepOutcome& o : outcomes) {
    EXPECT_EQ(o.result.completed, 8u);
    EXPECT_EQ(o.records.size(), 8u);
    EXPECT_GE(o.wall_ms, 0.0);
  }
}

TEST(Sweep, ParallelSweepIsByteIdenticalToSequential) {
  const auto cases = policy_grid();
  const auto sequential = run_sweep(cases, {.workers = 1});
  for (const std::size_t workers : {std::size_t{2}, std::size_t{8}}) {
    const auto parallel = run_sweep(cases, {.workers = workers});
    ASSERT_EQ(parallel.size(), sequential.size());
    for (std::size_t i = 0; i < sequential.size(); ++i) {
      EXPECT_TRUE(outcomes_identical(sequential[i], parallel[i]))
          << "case " << sequential[i].label << " diverged at " << workers
          << " workers";
    }
  }
}

TEST(Sweep, RepeatedSweepsAreIdentical) {
  const auto cases = policy_grid();
  const auto first = run_sweep(cases, {.workers = 2});
  const auto second = run_sweep(cases, {.workers = 2});
  ASSERT_EQ(first.size(), second.size());
  for (std::size_t i = 0; i < first.size(); ++i) {
    EXPECT_TRUE(outcomes_identical(first[i], second[i]));
  }
}

TEST(Sweep, EmptyCaseListThrows) {
  EXPECT_THROW(run_sweep({}, {.workers = 2}), std::invalid_argument);
}

TEST(Sweep, CaseErrorsRethrowOnTheCallingThread) {
  auto cases = policy_grid();
  cases[1].requests.clear();  // replay_trace rejects an empty trace
  EXPECT_THROW(run_sweep(cases, {.workers = 4}), std::invalid_argument);
}

TEST(Sweep, ResultsIdenticalIsFieldExact) {
  const auto outcomes = run_sweep(policy_grid(), {.workers = 1});
  ServingResult a = outcomes[0].result;
  ServingResult b = a;
  EXPECT_TRUE(a == b);
  b.makespan += 1;
  EXPECT_FALSE(a == b);
  b = a;
  b.p99_latency_ms += 1e-9;
  EXPECT_FALSE(a == b);
}

TEST(Sweep, FastTierMakespanWithinOnePercentOfDetailed) {
  // Scaled-down version of the bench's fidelity gate: detailed vs fast
  // on the same trace, per planner, <1% makespan drift and identical
  // completion counts.
  const auto trace = small_trace();
  struct Variant {
    const char* name;
    std::shared_ptr<const PrefillPlanner> planner;
  };
  const std::vector<Variant> variants = {
      {"mono", std::make_shared<MonolithicPrefill>()},
      {"chunked", std::make_shared<ChunkedPrefill>(16)},
  };
  for (const Variant& v : variants) {
    const auto detailed =
        replay_trace(small_cfg(), {tiny_model()},
                     base_engine(core::ReplayMode::kDetailed).prefill_planner(v.planner),
                     trace);
    const auto fast =
        replay_trace(small_cfg(), {tiny_model()},
                     base_engine(core::ReplayMode::kFast).prefill_planner(v.planner),
                     trace);
    EXPECT_EQ(detailed.result.completed, fast.result.completed) << v.name;
    EXPECT_EQ(detailed.result.rejected, fast.result.rejected) << v.name;
    const double drift =
        std::abs(static_cast<double>(fast.result.makespan) -
                 static_cast<double>(detailed.result.makespan)) /
        static_cast<double>(detailed.result.makespan);
    EXPECT_LT(drift, 0.01) << v.name;
  }
}

}  // namespace
}  // namespace edgemm::serve
