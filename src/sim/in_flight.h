// A bounded set of asynchronous operations in flight.
//
// The paper's two bounded async queues share this shape: the NFS
// client's pending-write pool, whose full state makes Table 4's writes
// pseudo-synchronous, and the iSCSI initiator's tagged command queue.
// Each operation is known only by the virtual time it completes;
// reserve() blocks the caller while every slot is busy, and drain() is
// the barrier that waits out the rest.
#pragma once

#include <cstddef>
#include <functional>
#include <queue>
#include <vector>

#include "sim/env.h"
#include "sim/time.h"

namespace netstore::sim {

class InFlight {
 public:
  /// Makes room for one more operation out of `slots`: retires every
  /// completion at or before now, then, while all slots are still busy,
  /// advances the clock to the earliest completion and retires it.
  void reserve(Env& env, std::size_t slots) {
    while (!done_at_.empty() && done_at_.top() <= env.now()) done_at_.pop();
    while (done_at_.size() >= slots) {
      env.advance_to(done_at_.top());
      done_at_.pop();
    }
  }

  /// Records an operation that completes at `t`.
  void add(Time t) { done_at_.push(t); }

  /// Waits out every operation, in completion order; the clock moves
  /// only to completions later than now.
  void drain(Env& env) {
    while (!done_at_.empty()) {
      if (done_at_.top() > env.now()) env.advance_to(done_at_.top());
      done_at_.pop();
    }
  }

  /// Operations not yet retired.
  [[nodiscard]] std::size_t size() const { return done_at_.size(); }

 private:
  std::priority_queue<Time, std::vector<Time>, std::greater<>> done_at_;
};

}  // namespace netstore::sim
