#include "sim/env.h"

#include <utility>

#include "core/check.h"
// Header-only use of the tracer's inline suspend/resume; netstore_sim does
// not link netstore_obs (the obs library links sim, not vice versa).
#include "obs/trace.h"

namespace netstore::sim {

void Env::schedule_at(Time at, Callback fn) {
  // kNoEvent is reserved as the far-future sentinel; a deadline at it (or
  // a wrapped negative from an overflowing now+after) is a caller bug.
  NETSTORE_CHECK_LT(at, kNoEvent, "event deadline overflows sim::Time");
  timer_stats_.scheduled.add(1);
  queue_.emplace(std::make_pair(at, next_seq_++), std::move(fn));
}

void Env::schedule_after(Duration after, Callback fn) {
  NETSTORE_CHECK_LE(after, kNoEvent - 1 - now_,
                    "event deadline overflows sim::Time");
  schedule_at(now_ + after, std::move(fn));
}

void Env::audit_pop(Time at, std::uint64_t seq, Time target) {
  NETSTORE_CHECK_LE(at, target, "event fired past the sweep target");
  // Between two pops with no intervening schedule_at (the sequence counter
  // is unchanged), the queue must yield events in strict (deadline, seq)
  // order.  A violation means the queue or its ordering is corrupt —
  // exactly the class of bug that silently reorders daemon work and breaks
  // run-to-run determinism.
  if (audit_has_last_pop_ && next_seq_ == audit_seq_snapshot_) {
    NETSTORE_CHECK_GE(at, audit_last_pop_at_,
                      "event queue yielded deadlines out of order");
    if (at == audit_last_pop_at_) {
      NETSTORE_CHECK_GT(seq, audit_last_pop_seq_,
                        "same-deadline FIFO order violated");
    }
  }
  audit_has_last_pop_ = true;
  audit_last_pop_at_ = at;
  audit_last_pop_seq_ = seq;
  audit_seq_snapshot_ = next_seq_;
}

void Env::run_pending(Time target, bool drain_all) {
  while (!queue_.empty()) {
    const auto [at, seq] = queue_.begin()->first;
    if (!drain_all && at > target) break;
    // The event leaves the map before its callback runs, so callbacks may
    // schedule, advance or drain re-entrantly.
    auto ev = queue_.extract(queue_.begin());
    timer_stats_.fired.add(1);
    if (audit_) {
      audit_pop(at, seq, drain_all ? (at > now_ ? at : now_) : target);
    }
    if (at > now_) now_ = at;
    // Deferred daemon work must not bill the request whose advance
    // happens to dispatch it.
    obs::SuspendGuard guard(tracer_);
    ev.mapped()();
  }
}

void Env::advance_to(Time t) {
  if (t < now_) return;
  run_pending(t, /*drain_all=*/false);
  // A callback may re-entrantly advance the clock past `t` (e.g. a flusher
  // blocking on a device); never move it backwards.
  if (t > now_) now_ = t;
}

void Env::drain() { run_pending(/*target=*/0, /*drain_all=*/true); }

void Env::check_quiesced() const {
  NETSTORE_CHECK_EQ(pending_events(), std::size_t{0},
                    "events still pending at teardown");
}

}  // namespace netstore::sim
