#include "sim/event_queue.hpp"

#include <algorithm>
#include <array>
#include <cstdint>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.hpp"

namespace edgemm::sim {
namespace {

TEST(EventQueue, OrdersByTimestamp) {
  EventQueue q;
  std::vector<int> order;
  q.push(30, [&] { order.push_back(3); });
  q.push(10, [&] { order.push_back(1); });
  q.push(20, [&] { order.push_back(2); });
  while (!q.empty()) q.pop_and_run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, TiesFireInInsertionOrder) {
  EventQueue q;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    q.push(5, [&order, i] { order.push_back(i); });
  }
  while (!q.empty()) q.pop_and_run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(EventQueue, PopReturnsTimestamp) {
  EventQueue q;
  q.push(17, [] {});
  EXPECT_EQ(q.next_time(), 17u);
  EXPECT_EQ(q.pop_and_run(), 17u);
  EXPECT_TRUE(q.empty());
}

TEST(EventQueue, ActionsMayPushNewEvents) {
  EventQueue q;
  int fired = 0;
  q.push(1, [&] {
    ++fired;
    q.push(2, [&] { ++fired; });
  });
  while (!q.empty()) q.pop_and_run();
  EXPECT_EQ(fired, 2);
}

TEST(EventQueue, SizeTracksContents) {
  EventQueue q;
  EXPECT_EQ(q.size(), 0u);
  q.push(1, [] {});
  q.push(2, [] {});
  EXPECT_EQ(q.size(), 2u);
  q.pop_and_run();
  EXPECT_EQ(q.size(), 1u);
}

TEST(EventQueue, RandomizedRunOrderMatchesSortedReference) {
  // Pushes (some from inside running actions, many on shared
  // timestamps) interleave with pops; the run order must equal a
  // reference sorted by (when, insertion index). The interleaving keeps
  // slab slots recycling throughout.
  EventQueue q;
  Rng rng(2024);
  std::vector<std::pair<Cycle, int>> pushed;  // (when, insertion index)
  std::vector<int> ran;
  Cycle now = 0;
  auto push = [&](Cycle when, auto&& self) -> void {
    const int index = static_cast<int>(pushed.size());
    pushed.emplace_back(when, index);
    const bool spawns = rng.uniform_int(0, 3) == 0;
    q.push(when, [&, index, spawns, self] {
      ran.push_back(index);
      if (spawns && pushed.size() < 20000) {
        self(now + static_cast<Cycle>(rng.uniform_int(0, 2)), self);
      }
    });
  };
  for (int round = 0; round < 2000; ++round) {
    const int pushes = static_cast<int>(rng.uniform_int(0, 4));
    for (int i = 0; i < pushes; ++i) {
      push(now + static_cast<Cycle>(rng.uniform_int(0, 8)), push);
    }
    const int pops = static_cast<int>(rng.uniform_int(0, 4));
    for (int i = 0; i < pops && !q.empty(); ++i) {
      now = q.next_time();
      EXPECT_EQ(q.pop_and_run(), now);
    }
  }
  while (!q.empty()) {
    now = q.next_time();
    q.pop_and_run();
  }

  // Pops only ever advance time and pushes never go into the past, so
  // a global (when, index) sort is the exact expected run order.
  std::vector<std::pair<Cycle, int>> reference = pushed;
  std::sort(reference.begin(), reference.end());
  ASSERT_EQ(ran.size(), reference.size());
  for (std::size_t i = 0; i < ran.size(); ++i) {
    ASSERT_EQ(ran[i], reference[i].second) << "position " << i;
  }
  EXPECT_GT(pushed.size(), 4000u);
}

TEST(EventQueue, HeavyCapturesAreDestroyedExactlyOnce) {
  // A capture larger than std::function's inline buffer that counts its
  // live instances. Each queued action holds exactly one; an action that
  // ran (or whose slot was recycled) holds none; teardown of a non-empty
  // queue releases the rest. A double destruction drives the count below
  // the queue size, a leak keeps it above.
  struct Counted {
    int* live;
    std::array<std::uint64_t, 4> payload{};
    explicit Counted(int* l) : live(l) { ++*live; }
    Counted(const Counted& other) : live(other.live), payload(other.payload) { ++*live; }
    Counted(Counted&& other) noexcept : live(other.live), payload(other.payload) {
      ++*live;
    }
    Counted& operator=(const Counted&) = delete;
    Counted& operator=(Counted&&) = delete;
    ~Counted() { --*live; }
  };
  int live = 0;
  int fired = 0;
  {
    EventQueue q;
    auto push = [&](Cycle when) {
      q.push(when, [&fired, counted = Counted(&live)] {
        (void)counted;
        ++fired;
      });
    };
    for (Cycle t = 0; t < 64; ++t) push(t % 8);
    EXPECT_EQ(live, 64);
    for (int i = 0; i < 40; ++i) {
      const Cycle when = q.pop_and_run();
      EXPECT_EQ(live, static_cast<int>(q.size()));
      push(when + 3);
      EXPECT_EQ(live, static_cast<int>(q.size()));
    }
    EXPECT_EQ(fired, 40);
    EXPECT_EQ(q.size(), 64u);
  }
  EXPECT_EQ(live, 0);
}

}  // namespace
}  // namespace edgemm::sim
