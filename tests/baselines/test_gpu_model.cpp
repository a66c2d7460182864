#include "baselines/gpu_model.hpp"

#include <limits>
#include <stdexcept>

#include <gtest/gtest.h>

#include "model/workload.hpp"

namespace edgemm::baselines {
namespace {

TEST(GpuModel, GemvIsBandwidthBound) {
  GpuSpec spec;
  const core::GemmWork gemv{1, 2048, 5632, Phase::kDecode, false, 0, false};
  const double s = gpu_op_seconds(spec, gemv);
  const double bytes = 2048.0 * 5632.0 * 2.0;
  const double bw_floor = bytes / spec.memory_bandwidth;
  EXPECT_GT(s, bw_floor);             // derated bandwidth + launch
  EXPECT_LT(s, bw_floor * 4.0);       // but in the memory-bound regime
}

TEST(GpuModel, GemmIsComputeBound) {
  GpuSpec spec;
  const core::GemmWork gemm{300, 2048, 5632, Phase::kPrefill, false, 0, false};
  const double s = gpu_op_seconds(spec, gemm);
  const double flops = static_cast<double>(gemm.flops());
  const double compute_floor = flops / spec.peak_flops;
  EXPECT_GT(s, compute_floor);  // efficiency derate applies
}

TEST(GpuModel, LaunchOverheadVisibleOnTinyOps) {
  GpuSpec spec;
  const core::GemmWork tiny{1, 64, 64, Phase::kDecode, false, 0, false};
  const double s = gpu_op_seconds(spec, tiny);
  EXPECT_GE(s, spec.kernel_launch_seconds);
  EXPECT_LT(s, spec.kernel_launch_seconds * 2.0);
}

TEST(GpuModel, EvaluatesFullWorkload) {
  const auto workload =
      model::build_phase_workload(model::sphinx_tiny(), model::WorkloadParams{});
  const auto timing = evaluate_gpu(GpuSpec{}, workload);
  EXPECT_GT(timing.encoder_seconds, 0.0);
  EXPECT_GT(timing.prefill_seconds, 0.0);
  EXPECT_GT(timing.decode_token_seconds, 0.0);
  // Decode of one token is far cheaper than prefill of 300.
  EXPECT_LT(timing.decode_token_seconds, timing.prefill_seconds);
  // SPHINX-Tiny decode on a 3060-class GPU: O(5-20 ms) per token.
  EXPECT_GT(timing.decode_token_seconds, 2e-3);
  EXPECT_LT(timing.decode_token_seconds, 50e-3);
}

TEST(GpuModel, RequestTimeScalesWithOutput) {
  const auto workload =
      model::build_phase_workload(model::sphinx_tiny(), model::WorkloadParams{});
  const auto timing = evaluate_gpu(GpuSpec{}, workload);
  const double l32 = timing.request_seconds(32);
  const double l128 = timing.request_seconds(128);
  EXPECT_GT(l128, l32);
  EXPECT_NEAR(l128 - l32, 96.0 * timing.decode_token_seconds, 1e-9);
  EXPECT_GT(timing.tokens_per_second(128), timing.tokens_per_second(8));
}

TEST(GpuSpecValidate, DefaultSpecIsValidAndSettersChain) {
  EXPECT_NO_THROW(GpuSpec{}.validate());
  GpuSpec spec = GpuSpec{}
                     .with_peak_flops(10.0e12)
                     .with_memory_bandwidth(200.0e9)
                     .with_gemm_efficiency(0.6)
                     .with_gemv_bandwidth_efficiency(0.5)
                     .with_kernel_launch_seconds(4.0e-6)
                     .with_elem_bytes(2)
                     .with_board_power_w(60.0);
  EXPECT_NO_THROW(spec.validate());
  EXPECT_DOUBLE_EQ(spec.peak_flops, 10.0e12);
  EXPECT_DOUBLE_EQ(spec.gemm_efficiency, 0.6);
}

TEST(GpuSpecValidate, SettersRejectBadValuesEagerly) {
  // Eager errors (the EngineConfig builder idiom): the bad field is
  // named at the call site, not at some later validate().
  EXPECT_THROW(GpuSpec{}.with_peak_flops(0.0), std::invalid_argument);
  EXPECT_THROW(GpuSpec{}.with_peak_flops(-1.0), std::invalid_argument);
  EXPECT_THROW(GpuSpec{}.with_memory_bandwidth(0.0), std::invalid_argument);
  EXPECT_THROW(GpuSpec{}.with_gemm_efficiency(0.0), std::invalid_argument);
  EXPECT_THROW(GpuSpec{}.with_gemm_efficiency(1.5), std::invalid_argument);
  EXPECT_THROW(GpuSpec{}.with_gemv_bandwidth_efficiency(-0.1),
               std::invalid_argument);
  EXPECT_THROW(GpuSpec{}.with_kernel_launch_seconds(-1e-6),
               std::invalid_argument);
  EXPECT_THROW(GpuSpec{}.with_elem_bytes(0), std::invalid_argument);
  EXPECT_THROW(GpuSpec{}.with_board_power_w(0.0), std::invalid_argument);
  EXPECT_NO_THROW(GpuSpec{}.with_kernel_launch_seconds(0.0));  // free launch ok
  // NaN fails every comparison, so it must not slip past the range check.
  EXPECT_THROW(GpuSpec{}.with_kernel_launch_seconds(
                   std::numeric_limits<double>::quiet_NaN()),
               std::invalid_argument);
}

TEST(GpuSpecValidate, ValidateCatchesHandBuiltBadSpecs) {
  GpuSpec spec;
  spec.gemv_bandwidth_efficiency = 1.2;  // brace-init bypasses the setters
  EXPECT_THROW(spec.validate(), std::invalid_argument);
  spec = GpuSpec{};
  spec.memory_bandwidth = -5.0;
  EXPECT_THROW(spec.validate(), std::invalid_argument);
  spec = GpuSpec{};
  spec.elem_bytes = 0;
  EXPECT_THROW(spec.validate(), std::invalid_argument);
  spec = GpuSpec{};
  spec.kernel_launch_seconds = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW(spec.validate(), std::invalid_argument);
}

TEST(GpuModel, OpBytesPriceWeightsAndActivationsPerLaunch) {
  // No TCDM residency: every launch streams the full k*n weight tile
  // plus the m*(k+n) activation tiles, even when weights_resident is
  // set (the flag is an EdgeMM concept).
  GpuSpec spec;
  core::GemmWork op{300, 2048, 5632, Phase::kPrefill, false, 0, false};
  const Bytes expected =
      (Bytes{2048} * 5632 + Bytes{300} * (2048 + 5632)) * spec.elem_bytes;
  EXPECT_EQ(gpu_op_bytes(spec, op), expected);
  op.weights_resident = true;
  EXPECT_EQ(gpu_op_bytes(spec, op), expected);
}

TEST(GpuModel, LatencyBreakdownShiftsTowardDecode) {
  // Fig. 2(a): growing output length inflates the decode share.
  const auto workload =
      model::build_phase_workload(model::sphinx_tiny(), model::WorkloadParams{});
  const auto timing = evaluate_gpu(GpuSpec{}, workload);
  auto decode_share = [&](std::size_t l) {
    const double total = timing.request_seconds(l);
    return timing.decode_token_seconds * static_cast<double>(l) / total;
  };
  EXPECT_LT(decode_share(8), decode_share(128));
  EXPECT_GT(decode_share(512), 0.8);
}

}  // namespace
}  // namespace edgemm::baselines
