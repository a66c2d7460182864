#include "baselines/gpu_model.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

namespace edgemm::baselines {

namespace {

double checked_positive(double v, const char* field) {
  if (!(v > 0.0)) {
    throw std::invalid_argument(std::string("GpuSpec: ") + field +
                                " must be positive");
  }
  return v;
}

double checked_non_negative(double v, const char* field) {
  if (!(v >= 0.0)) {
    throw std::invalid_argument(std::string("GpuSpec: ") + field +
                                " must be non-negative");
  }
  return v;
}

double checked_efficiency(double v, const char* field) {
  if (!(v > 0.0) || v > 1.0) {
    throw std::invalid_argument(std::string("GpuSpec: ") + field +
                                " must be in (0, 1]");
  }
  return v;
}

}  // namespace

GpuSpec& GpuSpec::with_peak_flops(double v) {
  peak_flops = checked_positive(v, "peak_flops");
  return *this;
}

GpuSpec& GpuSpec::with_memory_bandwidth(double v) {
  memory_bandwidth = checked_positive(v, "memory_bandwidth");
  return *this;
}

GpuSpec& GpuSpec::with_gemm_efficiency(double v) {
  gemm_efficiency = checked_efficiency(v, "gemm_efficiency");
  return *this;
}

GpuSpec& GpuSpec::with_gemv_bandwidth_efficiency(double v) {
  gemv_bandwidth_efficiency = checked_efficiency(v, "gemv_bandwidth_efficiency");
  return *this;
}

GpuSpec& GpuSpec::with_kernel_launch_seconds(double v) {
  kernel_launch_seconds = checked_non_negative(v, "kernel_launch_seconds");
  return *this;
}

GpuSpec& GpuSpec::with_elem_bytes(std::size_t v) {
  if (v == 0) {
    throw std::invalid_argument("GpuSpec: elem_bytes must be positive");
  }
  elem_bytes = v;
  return *this;
}

GpuSpec& GpuSpec::with_board_power_w(double v) {
  board_power_w = checked_positive(v, "board_power_w");
  return *this;
}

void GpuSpec::validate() const {
  checked_positive(peak_flops, "peak_flops");
  checked_positive(memory_bandwidth, "memory_bandwidth");
  checked_efficiency(gemm_efficiency, "gemm_efficiency");
  checked_efficiency(gemv_bandwidth_efficiency, "gemv_bandwidth_efficiency");
  checked_non_negative(kernel_launch_seconds, "kernel_launch_seconds");
  if (elem_bytes == 0) {
    throw std::invalid_argument("GpuSpec: elem_bytes must be positive");
  }
  checked_positive(board_power_w, "board_power_w");
}

Bytes gpu_op_bytes(const GpuSpec& spec, const core::GemmWork& work) {
  // Weights + activations traffic in FP16: k*n weight tile (re-streamed
  // every launch) plus m*(k+n) activation in/out tiles.
  return (static_cast<Bytes>(work.k) * work.n + work.m * (work.k + work.n)) *
         spec.elem_bytes;
}

double gpu_op_seconds(const GpuSpec& spec, const core::GemmWork& work) {
  const double flops = static_cast<double>(work.flops());
  const double bytes = static_cast<double>(gpu_op_bytes(spec, work));
  const double compute_s = flops / (spec.peak_flops * spec.gemm_efficiency);
  const double bandwidth = work.m <= 2
                               ? spec.memory_bandwidth * spec.gemv_bandwidth_efficiency
                               : spec.memory_bandwidth;
  const double memory_s = bytes / bandwidth;
  return std::max(compute_s, memory_s) + spec.kernel_launch_seconds;
}

GpuMllmTiming evaluate_gpu(const GpuSpec& spec, const core::PhaseWorkload& workload) {
  GpuMllmTiming t;
  for (const core::GemmWork& op : workload.encoder) {
    t.encoder_seconds += gpu_op_seconds(spec, op);
  }
  for (const core::GemmWork& op : workload.prefill) {
    t.prefill_seconds += gpu_op_seconds(spec, op);
  }
  for (const core::GemmWork& op : workload.decode_token) {
    t.decode_token_seconds += gpu_op_seconds(spec, op);
  }
  return t;
}

}  // namespace edgemm::baselines
