// Discrete-event queue: the heart of the timing simulator.
#ifndef EDGEMM_SIM_EVENT_QUEUE_HPP
#define EDGEMM_SIM_EVENT_QUEUE_HPP

#include <cstdint>
#include <functional>
#include <vector>

#include "common/types.hpp"

namespace edgemm::sim {

/// Time-ordered queue of callbacks. Events at equal timestamps fire in
/// insertion order (a strict tie-break keeps runs deterministic).
///
/// The heap orders plain {when, seq, slot} records; the actions live in a
/// slab whose slots are recycled through a free list, so once the slab has
/// grown to its high-water mark push/pop allocate nothing themselves. An
/// action is moved out of its slot (and the slot freed) before it runs, so
/// it may push new events freely.
class EventQueue {
 public:
  using Action = std::function<void()>;

  /// Schedules `action` at absolute time `when`.
  void push(Cycle when, Action action);

  /// True when no events remain.
  bool empty() const { return heap_.empty(); }

  std::size_t size() const { return heap_.size(); }

  /// Timestamp of the earliest event; queue must be non-empty.
  Cycle next_time() const;

  /// Removes and runs the earliest event; returns its timestamp.
  /// Queue must be non-empty.
  Cycle pop_and_run();

 private:
  struct Entry {
    Cycle when;
    std::uint64_t seq;   // insertion order; breaks timestamp ties
    std::uint32_t slot;  // index of the action in slab_
  };
  struct Later {
    bool operator()(const Entry& a, const Entry& b) const {
      if (a.when != b.when) return a.when > b.when;
      return a.seq > b.seq;
    }
  };
  std::vector<Entry> heap_;  // min-heap under Later
  std::vector<Action> slab_;
  std::vector<std::uint32_t> free_slots_;
  std::uint64_t next_seq_ = 0;
};

}  // namespace edgemm::sim

#endif  // EDGEMM_SIM_EVENT_QUEUE_HPP
