#include "sim/simulator.hpp"

#include <stdexcept>
#include <vector>

#include <gtest/gtest.h>

namespace edgemm::sim {
namespace {

TEST(Simulator, TimeAdvancesMonotonically) {
  Simulator sim;
  std::vector<Cycle> stamps;
  sim.schedule(10, [&] { stamps.push_back(sim.now()); });
  sim.schedule(5, [&] { stamps.push_back(sim.now()); });
  sim.schedule(20, [&] { stamps.push_back(sim.now()); });
  sim.run();
  EXPECT_EQ(stamps, (std::vector<Cycle>{5, 10, 20}));
  EXPECT_EQ(sim.now(), 20u);
}

TEST(Simulator, RelativeSchedulingChains) {
  Simulator sim;
  Cycle second_fire = 0;
  sim.schedule(3, [&] {
    sim.schedule(4, [&] { second_fire = sim.now(); });
  });
  sim.run();
  EXPECT_EQ(second_fire, 7u);
}

TEST(Simulator, ScheduleAtPastThrows) {
  Simulator sim;
  sim.schedule(10, [] {});
  sim.run();
  EXPECT_THROW(sim.schedule_at(5, [] {}), std::invalid_argument);
}

TEST(Simulator, RunUntilStopsAtDeadline) {
  Simulator sim;
  int fired = 0;
  sim.schedule(5, [&] { ++fired; });
  sim.schedule(15, [&] { ++fired; });
  sim.run_until(10);
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sim.now(), 10u);
  sim.run();
  EXPECT_EQ(fired, 2);
}

TEST(Simulator, RunUntilIncludesEventsAtDeadline) {
  Simulator sim;
  int fired = 0;
  sim.schedule(10, [&] { ++fired; });
  sim.run_until(10);
  EXPECT_EQ(fired, 1);
}

TEST(Simulator, NextTimePeeksTheEarliestQueuedEvent) {
  Simulator sim;
  EXPECT_TRUE(sim.idle());
  sim.schedule(30, [] {});
  sim.schedule(10, [] {});
  sim.schedule(20, [] {});
  EXPECT_EQ(sim.next_time(), 10u);
  EXPECT_EQ(sim.now(), 0u);  // a peek, not a step
  sim.run_until(10);
  EXPECT_EQ(sim.next_time(), 20u);
  sim.run();
  EXPECT_TRUE(sim.idle());
}

TEST(Simulator, NextTimeSeesSameCycleTies) {
  Simulator sim;
  std::vector<Cycle> peeks;
  sim.schedule(5, [&] {
    // The tie queued behind this event and one pushed now, same cycle.
    peeks.push_back(sim.next_time());
    sim.schedule(0, [&] { peeks.push_back(sim.idle() ? 0 : sim.next_time()); });
    peeks.push_back(sim.next_time());
  });
  sim.schedule(5, [&] { peeks.push_back(sim.next_time()); });
  sim.schedule(9, [] {});
  EXPECT_EQ(sim.next_time(), 5u);
  sim.run();
  EXPECT_EQ(peeks, (std::vector<Cycle>{5, 5, 5, 9}));
}

TEST(Simulator, EventCounterAccumulates) {
  Simulator sim;
  for (int i = 0; i < 7; ++i) sim.schedule(static_cast<Cycle>(i), [] {});
  sim.run();
  EXPECT_EQ(sim.events_executed(), 7u);
}

TEST(Simulator, IdleReflectsQueue) {
  Simulator sim;
  EXPECT_TRUE(sim.idle());
  sim.schedule(1, [] {});
  EXPECT_FALSE(sim.idle());
  sim.run();
  EXPECT_TRUE(sim.idle());
}

TEST(Simulator, ZeroDelayFiresAtCurrentTime) {
  Simulator sim;
  Cycle when = 1234;
  sim.schedule(0, [&] { when = sim.now(); });
  sim.run();
  EXPECT_EQ(when, 0u);
}

}  // namespace
}  // namespace edgemm::sim
