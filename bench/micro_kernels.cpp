// google-benchmark micro timings of the simulator's hot paths: the
// functional coprocessor models, the pruner, the event kernel, and the
// memory system. These measure *simulator* performance (host wall
// clock), not modelled chip cycles.
#include <benchmark/benchmark.h>

#include <array>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "common/statistics.hpp"
#include "coproc/cim_macro.hpp"
#include "coproc/pruner.hpp"
#include "coproc/systolic_array.hpp"
#include "core/kernels.hpp"
#include "mem/dma.hpp"
#include "model/ffn.hpp"
#include "sim/simulator.hpp"

namespace {

using namespace edgemm;

void BM_SystolicTilePass(benchmark::State& state) {
  const auto m = static_cast<std::size_t>(state.range(0));
  coproc::SystolicArray sa(coproc::SystolicConfig{16, 16});
  Rng rng(1);
  Tensor w(16, 16);
  Tensor acts(m, 16);
  for (float& v : w.flat()) v = static_cast<float>(rng.gaussian());
  for (float& v : acts.flat()) v = static_cast<float>(rng.gaussian());
  sa.load_weights(w);
  for (auto _ : state) {
    benchmark::DoNotOptimize(sa.multiply(acts));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(m) * 16 * 16);
}
BENCHMARK(BM_SystolicTilePass)->Arg(1)->Arg(16)->Arg(300);

void BM_CimBitSerialGemv(benchmark::State& state) {
  const auto entries = static_cast<std::size_t>(state.range(0));
  coproc::CimConfig cfg;
  cfg.entries = std::max<std::size_t>(entries, 1);
  coproc::CimMacro macro(cfg);
  Rng rng(2);
  std::vector<std::int32_t> tile(cfg.tree_inputs * cfg.columns);
  for (auto& v : tile) v = static_cast<std::int32_t>(rng.uniform_int(-127, 127));
  for (std::size_t e = 0; e < entries; ++e) macro.write_entry(e, tile);
  std::vector<std::int32_t> act(entries * cfg.tree_inputs);
  for (auto& v : act) v = static_cast<std::int32_t>(rng.uniform_int(-127, 127));
  for (auto _ : state) {
    benchmark::DoNotOptimize(macro.gemv_long(0, entries, act));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(entries * cfg.tree_inputs *
                                                    cfg.columns));
}
BENCHMARK(BM_CimBitSerialGemv)->Arg(1)->Arg(8)->Arg(64);

void BM_HardwarePruner(benchmark::State& state) {
  const auto channels = static_cast<std::size_t>(state.range(0));
  Rng rng(3);
  std::vector<float> v(channels);
  for (float& x : v) x = static_cast<float>(rng.gaussian());
  coproc::ActAwarePruner pruner;
  for (auto _ : state) {
    benchmark::DoNotOptimize(pruner.prune(v, channels / 8, 16.0));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(channels));
}
BENCHMARK(BM_HardwarePruner)->Arg(256)->Arg(2048)->Arg(8192);

void BM_EventKernel(benchmark::State& state) {
  const auto events = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    sim::Simulator sim;
    for (std::size_t i = 0; i < events; ++i) {
      sim.schedule(i % 97, [] {});
    }
    sim.run();
    benchmark::DoNotOptimize(sim.now());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(events));
}
BENCHMARK(BM_EventKernel)->Arg(1000)->Arg(100000);

// L0 with captures too large for std::function's inline buffer, like
// the detailed tier's completion callbacks.
void BM_EventKernelHeavyCapture(benchmark::State& state) {
  const auto events = static_cast<std::size_t>(state.range(0));
  std::uint64_t sum = 0;
  for (auto _ : state) {
    sim::Simulator sim;
    for (std::size_t i = 0; i < events; ++i) {
      const std::array<std::uint64_t, 4> payload{i, i + 1, i + 2, i + 3};
      sim.schedule(i % 97, [&sum, payload] { sum += payload[0] + payload[3]; });
    }
    sim.run();
    benchmark::DoNotOptimize(sum);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(events));
}
BENCHMARK(BM_EventKernelHeavyCapture)->Arg(1000)->Arg(100000);

// L1: bursts through the chip's 3-hop route (group crossbar -> system
// crossbar -> DRAM, ChipConfig rates) from several ports at once, split
// across two group crossbars. Items are bursts.
void BM_MemoryPathChain(benchmark::State& state) {
  const auto ports = static_cast<std::size_t>(state.range(0));
  constexpr std::size_t kBurstsPerPort = 256;
  std::size_t completed = 0;
  for (auto _ : state) {
    sim::Simulator sim;
    mem::ResourceServer sys_xbar(sim, "sys-xbar", 256.0, 4);
    mem::ResourceServer grp0(sim, "grp-xbar0", 128.0, 4);
    mem::ResourceServer grp1(sim, "grp-xbar1", 128.0, 4);
    mem::DramController dram(sim, mem::DramConfig{51.2, 100});
    std::vector<mem::MemoryPath> paths(ports);
    for (std::size_t p = 0; p < ports; ++p) {
      const std::string name = "c" + std::to_string(p);
      mem::ResourceServer& group = p % 2 == 0 ? grp0 : grp1;
      paths[p].add_hop(group, group.add_port(name));
      paths[p].add_hop(sys_xbar, sys_xbar.add_port(name));
      paths[p].add_hop(dram.channel(), dram.add_port(name));
    }
    for (std::size_t b = 0; b < kBurstsPerPort; ++b) {
      for (mem::MemoryPath& path : paths) path.request(4096, [&completed] { ++completed; });
    }
    sim.run();
    benchmark::DoNotOptimize(completed);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(ports * kBurstsPerPort));
}
BENCHMARK(BM_MemoryPathChain)->Arg(2)->Arg(8);

void BM_DmaContention(benchmark::State& state) {
  const auto clusters = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    sim::Simulator sim;
    mem::DramController dram(sim, mem::DramConfig{51.2, 100});
    std::vector<std::unique_ptr<mem::DmaEngine>> dmas;
    for (std::size_t c = 0; c < clusters; ++c) {
      const int port = dram.add_port("c" + std::to_string(c));
      dmas.push_back(std::make_unique<mem::DmaEngine>(
          sim, dram, port, mem::DmaConfig{}, "dma" + std::to_string(c)));
      dmas.back()->transfer(4 * 1024 * 1024, nullptr);
    }
    sim.run();
    benchmark::DoNotOptimize(dram.bytes_served());
  }
}
BENCHMARK(BM_DmaContention)->Arg(2)->Arg(16);

void BM_FfnReference(benchmark::State& state) {
  Rng rng(4);
  const auto weights = model::random_gated_mlp(512, 1408, rng);
  std::vector<float> vx(512);
  for (float& v : vx) v = static_cast<float>(rng.gaussian());
  for (auto _ : state) {
    benchmark::DoNotOptimize(model::ffn_reference(weights, vx));
  }
}
BENCHMARK(BM_FfnReference);

void BM_SaGemmKernel(benchmark::State& state) {
  const auto dim = static_cast<std::size_t>(state.range(0));
  auto cfg = core::default_chip_config();
  Rng rng(5);
  Tensor a(dim, dim);
  Tensor w(dim, dim);
  for (float& v : a.flat()) v = static_cast<float>(rng.gaussian());
  for (float& v : w.flat()) v = static_cast<float>(rng.gaussian());
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::sa_gemm(cfg, a, w));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 2 *
                          static_cast<std::int64_t>(dim * dim * dim));
}
BENCHMARK(BM_SaGemmKernel)->Arg(64)->Arg(128);

}  // namespace
