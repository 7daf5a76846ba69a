// A test MessageSink that runs one closure per delivery, so engine and
// network tests can script what a delivery does without a cluster. A ticket
// indexes a parked closure; delivering it moves the closure out, frees the
// entry and runs it. A message the network drops stays parked.
#pragma once

#include <functional>
#include <utility>
#include <vector>

#include "sim/simulator.hpp"

namespace das::sim {

class ClosureSink final : public MessageSink {
 public:
  explicit ClosureSink(Simulator& sim) { sim.set_message_sink(this); }

  /// Parks `fn`; returns the ticket whose delivery runs it.
  Ticket operator()(std::function<void()> fn) {
    if (free_.empty()) {
      parked_.push_back(std::move(fn));
      return static_cast<Ticket>(parked_.size() - 1);
    }
    const Ticket ticket = free_.back();
    free_.pop_back();
    parked_[ticket] = std::move(fn);
    return ticket;
  }

  void deliver(Ticket ticket) override {
    std::function<void()> fn = std::move(parked_[ticket]);
    parked_[ticket] = nullptr;
    free_.push_back(ticket);
    fn();
  }

  /// Closures parked and not delivered yet.
  std::size_t parked() const { return parked_.size() - free_.size(); }

 private:
  std::vector<std::function<void()>> parked_;
  std::vector<Ticket> free_;
};

}  // namespace das::sim
