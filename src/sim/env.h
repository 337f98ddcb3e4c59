// Simulation environment: virtual clock plus pending-event queue.
//
// netstore uses a hybrid simulation style: protocol operations execute
// synchronously in caller context and account for elapsed virtual time by
// advancing the shared clock, while background activity (journal commit
// daemons, dirty-page flushers, delegation flushes) registers timed events
// that fire whenever the clock sweeps past their deadline.  This keeps
// protocol state machines readable (straight-line code, no callback
// chains) while still modelling asynchronous daemons faithfully.
//
// Events wait in one ordered map keyed by (deadline, scheduling
// sequence): earlier deadlines first, FIFO among equal deadlines.  That
// key order is the determinism contract, and the audit hooks re-verify it
// on every dispatch.  Only those daemons schedule events, a few dozen per
// workload run (DESIGN.md §12), so the queue is cold and is kept plain.
#pragma once

#include <cstdint>
#include <functional>
#include <limits>
#include <map>
#include <utility>

#include "sim/stats.h"
#include "sim/time.h"

namespace netstore::obs {
class Tracer;
}  // namespace netstore::obs

namespace netstore::sim {

/// Scheduling telemetry, exported as the sim.timer.* counters (src/obs).
struct TimerStats {
  Counter scheduled;  // schedule_* calls accepted
  Counter fired;      // events dispatched

  void reset() {
    scheduled.reset();
    fired.reset();
  }
};

/// The simulation environment.  One instance per testbed; every simulated
/// component keeps a reference to it.  Not thread-safe: the simulation is
/// strictly single-threaded and deterministic.
class Env {
 public:
  /// A deferred event's work.  Owning, since the event outlives the call
  /// that scheduled it.
  // netstore-lint: allow(std-function-hot-path) -- cold: daemon events only
  using Callback = std::function<void()>;

  Env() = default;
  Env(const Env&) = delete;
  Env& operator=(const Env&) = delete;

  /// Current virtual time.
  [[nodiscard]] Time now() const { return now_; }

  /// Schedules `fn` to run when the clock reaches `at`.  Events scheduled
  /// for the same instant run in scheduling order.  Events scheduled in the
  /// past run at the next advance.  `at` must be below kNoEvent (the
  /// far-future sentinel); NETSTORE_CHECK enforces it.
  void schedule_at(Time at, Callback fn);

  /// Schedules `fn` to run `after` from now.  NETSTORE_CHECKs that
  /// now() + after does not overflow Time: a silent wrap would file the
  /// event in the past.
  void schedule_after(Duration after, Callback fn);

  /// Advances the clock to `t`, firing every event whose deadline is <= t
  /// in deadline order.  Events may schedule further events; those also run
  /// if due.  No-op if `t` is in the past.
  void advance_to(Time t);

  /// Advances the clock by `dt` (see advance_to).
  void advance(Duration dt) { advance_to(now_ + dt); }

  /// Fires all pending events in order, advancing the clock to each
  /// deadline.  Used at experiment teardown to quiesce daemons.
  void drain();

  /// Number of events not yet fired.
  [[nodiscard]] std::size_t pending_events() const { return queue_.size(); }

  /// Far-future sentinel: every deadline must lie below it.
  static constexpr Time kNoEvent = std::numeric_limits<Time>::max();

  /// Enables runtime invariant audits (debug tooling, off by default):
  /// every event dispatch verifies that the clock never moves backwards
  /// and that no event fires past the sweep target.  Testbeds turn this
  /// on for the whole stack via SystemConfig::invariant_audits.
  void set_audit(bool on) { audit_ = on; }
  [[nodiscard]] bool audit() const { return audit_; }

  /// Teardown invariant: every registered daemon event has fired.  Call
  /// after drain() when quiescence is expected; aborts via NETSTORE_CHECK
  /// if events are still pending.
  void check_quiesced() const;

  /// Scheduling telemetry; adopted into the registry as sim.timer.* by
  /// the owning Testbed.
  [[nodiscard]] TimerStats& mutable_timer_stats() { return timer_stats_; }

  /// The request tracer (owned by the Testbed, see src/obs).  Null when
  /// a component is driven standalone; every instrumentation site must
  /// null-check.  The Env suspends the tracer around deferred-event
  /// dispatch so daemon work (journal commits, page flushes) never bills
  /// the request that happens to be advancing the clock.
  void set_tracer(obs::Tracer* t) { tracer_ = t; }
  [[nodiscard]] obs::Tracer* tracer() const { return tracer_; }

 private:
  /// Audit-mode dispatch bookkeeping (see set_audit).
  void audit_pop(Time at, std::uint64_t seq, Time target);

  /// Shared dispatch loop behind advance_to (drain_all=false: stop once
  /// the next deadline exceeds `target`) and drain (drain_all=true:
  /// `target` ignored, each event audited against its own deadline).
  void run_pending(Time target, bool drain_all);

  Time now_ = 0;
  obs::Tracer* tracer_ = nullptr;
  bool audit_ = false;
  bool audit_has_last_pop_ = false;
  Time audit_last_pop_at_ = 0;
  std::uint64_t audit_last_pop_seq_ = 0;
  std::uint64_t audit_seq_snapshot_ = 0;
  std::uint64_t next_seq_ = 0;
  TimerStats timer_stats_;
  /// Pending events keyed by (deadline, scheduling sequence): the map's
  /// key order IS the determinism contract, and the audit hooks verify it
  /// on every dispatch.
  std::map<std::pair<Time, std::uint64_t>, Callback> queue_;
};

}  // namespace netstore::sim
