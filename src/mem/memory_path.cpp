#include "mem/memory_path.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "common/assert.hpp"

namespace edgemm::mem {

void MemoryPath::add_hop(ResourceServer& server, int port) {
  hops_.push_back(Hop{&server, port});
}

void MemoryPath::request(Bytes bytes, ResourceServer::Done done) {
  if (hops_.empty()) {
    throw std::logic_error("MemoryPath::request: no hops configured");
  }
  if (free_routes_.empty()) {
    free_routes_.push_back(routes_.size());
    routes_.emplace_back();
  }
  const std::size_t id = free_routes_.back();
  free_routes_.pop_back();
  routes_[id] = Route{bytes, 0, std::move(done)};
  dispatch(id);
}

void MemoryPath::dispatch(std::size_t id) {
  Route& route = routes_[id];
  const Hop& hop = hops_[route.hop];
  if (route.hop + 1 < hops_.size()) {
    ++route.hop;
    hop.server->request(hop.port, route.bytes, [this, id] { dispatch(id); });
    return;
  }
  // Last hop: hand the route's own `done` to the channel and recycle it.
  const Bytes bytes = route.bytes;
  ResourceServer::Done done;
  done.swap(route.done);
  free_routes_.push_back(id);
  hop.server->request(hop.port, bytes, std::move(done));
}

Cycle MemoryPath::total_latency() const {
  Cycle total = 0;
  for (const Hop& hop : hops_) total += hop.server->latency();
  return total;
}

double MemoryPath::bottleneck_bytes_per_cycle() const {
  double tightest = std::numeric_limits<double>::infinity();
  for (const Hop& hop : hops_) {
    tightest = std::min(tightest, hop.server->bytes_per_cycle());
  }
  return hops_.empty() ? 0.0 : tightest;
}

// --- ChipLink ---------------------------------------------------------------

ChipLink::ChipLink(double bytes_per_cycle, Cycle latency)
    : bytes_per_cycle_(bytes_per_cycle), latency_(latency) {
  if (!(bytes_per_cycle > 0.0)) {
    throw std::invalid_argument("ChipLink: bandwidth must be positive");
  }
}

Cycle ChipLink::transfer(Bytes bytes, Cycle ready) {
  if (bytes == 0) {
    throw std::invalid_argument("ChipLink: zero-byte transfer");
  }
  const auto duration = static_cast<Cycle>(
      std::ceil(static_cast<double>(bytes) / bytes_per_cycle_));
  const Cycle start = std::max(ready, wire_free_);
  const Cycle arrival = start + latency_ + duration;
  wire_free_ = start + duration;
  transfers_.push_back(Transfer{ready, start, arrival, bytes});
  bytes_sent_ += bytes;
  busy_cycles_ += duration;
  last_arrival_ = std::max(last_arrival_, arrival);
  max_queue_wait_ = std::max(max_queue_wait_, start - ready);
  return arrival;
}

Bytes ChipLink::bytes_sent_by(Cycle now) const {
  Bytes sent = 0;
  for (const Transfer& t : transfers_) {
    if (t.start <= now) sent += t.bytes;
  }
  return sent;
}

Bytes ChipLink::bytes_landed_by(Cycle now) const {
  Bytes landed = 0;
  for (const Transfer& t : transfers_) {
    if (t.arrival <= now) landed += t.bytes;
  }
  return landed;
}

Bytes ChipLink::bytes_in_flight_at(Cycle now) const {
  return bytes_sent_by(now) - bytes_landed_by(now);
}

}  // namespace edgemm::mem
