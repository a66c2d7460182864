#include "sim/event_queue.hpp"

#include <algorithm>
#include <cstdint>

#include "common/assert.hpp"

namespace edgemm::sim {

void EventQueue::push(Cycle when, Action action) {
  if (free_slots_.empty()) {
    EDGEMM_ASSERT(slab_.size() < UINT32_MAX);
    free_slots_.push_back(static_cast<std::uint32_t>(slab_.size()));
    slab_.emplace_back();
  }
  const std::uint32_t slot = free_slots_.back();
  free_slots_.pop_back();
  slab_[slot] = std::move(action);
  heap_.push_back(Entry{when, next_seq_++, slot});
  std::push_heap(heap_.begin(), heap_.end(), Later{});
}

Cycle EventQueue::next_time() const {
  EDGEMM_ASSERT(!heap_.empty());
  return heap_.front().when;
}

Cycle EventQueue::pop_and_run() {
  EDGEMM_ASSERT(!heap_.empty());
  std::pop_heap(heap_.begin(), heap_.end(), Later{});
  const Entry top = heap_.back();
  heap_.pop_back();
  // Move the action out and free its slot before running it: the action
  // may push new events, which can reuse the slot or grow the slab.
  Action action;
  action.swap(slab_[top.slot]);
  free_slots_.push_back(top.slot);
  action();
  return top.when;
}

}  // namespace edgemm::sim
