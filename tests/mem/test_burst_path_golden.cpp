// Golden event order of the detailed-tier burst path.
//
// Three DMA engines share a chip-shaped 3-hop route (group crossbar ->
// system crossbar -> DRAM, Fig. 4), one of them throttled by a PMC
// budget (§IV-B). Every transfer's completion cycle, the channels'
// busy cycles and the executed event count are pinned to hard-coded
// values: any rewrite of the event core or the burst path must
// reproduce them exactly, not just approximately.
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "mem/dma.hpp"
#include "mem/dram.hpp"
#include "mem/memory_path.hpp"
#include "mem/resource_server.hpp"
#include "sim/simulator.hpp"

namespace edgemm::mem {
namespace {

// ChipConfig's crossbar and DRAM rates, with smaller bursts and a
// shorter PMC interval so the run stays small.
struct ChipShapedPath {
  sim::Simulator sim;
  ResourceServer sys_xbar{sim, "sys-xbar", 256.0, 4};
  ResourceServer grp0{sim, "grp-xbar0", 128.0, 4};
  ResourceServer grp1{sim, "grp-xbar1", 128.0, 4};
  DramController dram{sim, DramConfig{51.2, 100}};
  std::vector<std::unique_ptr<DmaEngine>> engines;

  DmaEngine& add_engine(ResourceServer& group, const std::string& name) {
    MemoryPath path;
    path.add_hop(group, group.add_port(name));
    path.add_hop(sys_xbar, sys_xbar.add_port(name));
    path.add_hop(dram.channel(), dram.add_port(name));
    engines.push_back(std::make_unique<DmaEngine>(
        sim, std::move(path), DmaConfig{/*burst_bytes=*/4096,
                                        /*throttle_interval=*/2000},
        name + ".dma"));
    return *engines.back();
  }
};

TEST(BurstPathGolden, ThreeEnginesReproduceCompletionCycles) {
  ChipShapedPath chip;
  DmaEngine& a = chip.add_engine(chip.grp0, "a");
  DmaEngine& b = chip.add_engine(chip.grp0, "b");
  DmaEngine& c = chip.add_engine(chip.grp1, "c");
  b.set_budget(8 * 1024);

  std::vector<Cycle> done(9, 0);
  auto mark = [&](std::size_t i) { return [&done, &chip, i] { done[i] = chip.sim.now(); }; };
  a.transfer(40 * 1024, mark(0));
  b.transfer(48 * 1024 + 100, mark(1));
  c.transfer(20 * 1024, mark(2));
  a.transfer(3000, mark(3));
  c.transfer(0, mark(4));
  // A transfer issued from inside a completion callback.
  a.transfer(12 * 1024, [&] {
    done[5] = chip.sim.now();
    b.transfer(6 * 1024, mark(6));
  });
  c.transfer(64 * 1024 + 7, mark(7));
  b.transfer(1, mark(8));
  a.transfer(4096, nullptr);
  chip.sim.run();

  const std::vector<Cycle> golden = {1916, 8112, 1196, 2055, 0, 2695, 8278, 3496, 8113};
  EXPECT_EQ(done, golden);
  EXPECT_EQ(chip.dram.channel().busy_cycles(), 3943u);
  EXPECT_EQ(chip.sys_xbar.busy_cycles(), 791u);
  EXPECT_EQ(chip.grp0.busy_cycles(), 906u);
  EXPECT_EQ(chip.grp1.busy_cycles(), 673u);
  EXPECT_EQ(b.throttle_stall_cycles(), 8000u);
  EXPECT_EQ(chip.sim.events_executed(), 323u);
  EXPECT_EQ(chip.sim.now(), 8278u);
  for (const auto& engine : chip.engines) EXPECT_EQ(engine->inflight(), 0u);
}

TEST(BurstPathGolden, NullDoneStillFiresOneCompletionEvent) {
  // A request without a callback must cost exactly the events of one
  // with a callback, so sim.events cannot drift with who is listening.
  auto events_for = [](bool with_callback) {
    sim::Simulator sim;
    ResourceServer chan(sim, "chan", 4.0, 10);
    const int port = chan.add_port("p");
    int fired = 0;
    chan.request(port, 400, with_callback ? ResourceServer::Done([&] { ++fired; })
                                          : ResourceServer::Done{});
    sim.run();
    EXPECT_EQ(fired, with_callback ? 1 : 0);
    return sim.events_executed();
  };
  EXPECT_EQ(events_for(false), 2u);  // channel release + completion
  EXPECT_EQ(events_for(true), 2u);

  auto dma_events_for = [](bool with_callback) {
    ChipShapedPath chip;
    DmaEngine& dma = chip.add_engine(chip.grp0, "d");
    bool finished = false;
    dma.transfer(10 * 1024, with_callback ? DmaEngine::Done([&] { finished = true; })
                                          : DmaEngine::Done{});
    chip.sim.run();
    EXPECT_EQ(finished, with_callback);
    EXPECT_EQ(dma.inflight(), 0u);
    return chip.sim.events_executed();
  };
  // Three bursts, each two events on each of three hops.
  EXPECT_EQ(dma_events_for(false), 18u);
  EXPECT_EQ(dma_events_for(true), 18u);
}

}  // namespace
}  // namespace edgemm::mem
