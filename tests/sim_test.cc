// Unit tests for the simulation core: virtual clock, event queue,
// borrowed callables, bounded async queues, deterministic PRNG,
// statistics.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <limits>
#include <utility>
#include <vector>

#include "sim/env.h"
#include "sim/func_ref.h"
#include "sim/in_flight.h"
#include "sim/rng.h"
#include "sim/stats.h"

namespace netstore::sim {
namespace {

TEST(EnvTest, StartsAtZero) {
  Env env;
  EXPECT_EQ(env.now(), 0);
  EXPECT_EQ(env.pending_events(), 0u);
}

TEST(EnvTest, AdvanceMovesClock) {
  Env env;
  env.advance(milliseconds(5));
  EXPECT_EQ(env.now(), milliseconds(5));
  env.advance_to(seconds(1));
  EXPECT_EQ(env.now(), seconds(1));
}

TEST(EnvTest, AdvanceToPastIsNoop) {
  Env env;
  env.advance(seconds(2));
  env.advance_to(seconds(1));
  EXPECT_EQ(env.now(), seconds(2));
}

TEST(EnvTest, EventsFireInDeadlineOrder) {
  Env env;
  std::vector<int> fired;
  env.schedule_at(milliseconds(30), [&] { fired.push_back(3); });
  env.schedule_at(milliseconds(10), [&] { fired.push_back(1); });
  env.schedule_at(milliseconds(20), [&] { fired.push_back(2); });
  env.advance_to(milliseconds(25));
  EXPECT_EQ(fired, (std::vector<int>{1, 2}));
  env.advance_to(milliseconds(30));
  EXPECT_EQ(fired, (std::vector<int>{1, 2, 3}));
}

TEST(EnvTest, SameDeadlineIsFifo) {
  Env env;
  std::vector<int> fired;
  for (int i = 0; i < 5; ++i) {
    env.schedule_at(milliseconds(10), [&fired, i] { fired.push_back(i); });
  }
  env.advance_to(milliseconds(10));
  EXPECT_EQ(fired, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(EnvTest, ClockIsAtDeadlineDuringCallback) {
  Env env;
  Time seen = -1;
  env.schedule_at(milliseconds(7), [&] { seen = env.now(); });
  env.advance_to(seconds(1));
  EXPECT_EQ(seen, milliseconds(7));
  EXPECT_EQ(env.now(), seconds(1));
}

TEST(EnvTest, EventsMayScheduleEvents) {
  Env env;
  int count = 0;
  std::function<void()> chain = [&] {
    if (++count < 5) env.schedule_after(milliseconds(1), chain);
  };
  env.schedule_after(milliseconds(1), chain);
  env.advance(milliseconds(10));
  EXPECT_EQ(count, 5);
}

TEST(EnvTest, DrainFiresEverything) {
  Env env;
  int count = 0;
  env.schedule_at(seconds(100), [&] { count++; });
  env.schedule_at(seconds(200), [&] { count++; });
  env.drain();
  EXPECT_EQ(count, 2);
  EXPECT_EQ(env.now(), seconds(200));
}

TEST(EnvTest, PastDeadlineFiresAtNextAdvanceWithoutRewindingClock) {
  // Scheduling "in the past" is legal (daemons computing a deadline from a
  // stale timestamp); the event fires on the next sweep at the current
  // time, and the clock never moves backwards.
  Env env;
  env.set_audit(true);
  env.advance(milliseconds(10));
  Time seen = -1;
  env.schedule_at(milliseconds(5), [&] { seen = env.now(); });
  env.advance_to(milliseconds(20));
  EXPECT_EQ(seen, milliseconds(10));
  EXPECT_EQ(env.now(), milliseconds(20));
}

TEST(EnvTest, CallbackSchedulingDueEventRunsInSameSweep) {
  // An event that schedules another event inside the sweep window must see
  // it fire during the same advance_to, at its own deadline.
  Env env;
  env.set_audit(true);
  std::vector<Time> fired;
  env.schedule_at(milliseconds(10), [&] {
    fired.push_back(env.now());
    env.schedule_at(milliseconds(15), [&] { fired.push_back(env.now()); });
    // Due *immediately* (same deadline as the running event): still fires
    // within this sweep, after already-queued work.
    env.schedule_at(milliseconds(10), [&] { fired.push_back(env.now()); });
  });
  env.advance_to(milliseconds(20));
  EXPECT_EQ(fired,
            (std::vector<Time>{milliseconds(10), milliseconds(10),
                               milliseconds(15)}));
  EXPECT_EQ(env.pending_events(), 0u);
}

TEST(EnvTest, ReentrantAdvancePastSweepTargetDoesNotRewindClock) {
  // A callback may re-entrantly advance the clock beyond the outer sweep's
  // target (a flusher blocking on a device).  The outer advance_to must not
  // drag the clock back to its own target afterwards.
  Env env;
  env.set_audit(true);
  env.schedule_at(milliseconds(10),
                  [&] { env.advance_to(milliseconds(50)); });
  env.advance_to(milliseconds(20));
  EXPECT_EQ(env.now(), milliseconds(50));
}

TEST(EnvTest, ReentrantDrainLeavesOuterDrainConsistent) {
  Env env;
  env.set_audit(true);
  std::vector<int> fired;
  env.schedule_at(milliseconds(10), [&] {
    fired.push_back(1);
    env.drain();  // re-entrant: consumes the second event
  });
  env.schedule_at(milliseconds(20), [&] { fired.push_back(2); });
  env.drain();  // outer drain finds an empty queue after the inner one
  EXPECT_EQ(fired, (std::vector<int>{1, 2}));
  EXPECT_EQ(env.now(), milliseconds(20));
  env.check_quiesced();
}

TEST(EnvTest, SameDeadlineFifoHoldsUnderInterleavedScheduling) {
  // FIFO among equal deadlines must survive callbacks appending more
  // equal-deadline events mid-sweep, with the dispatch audit enabled.
  Env env;
  env.set_audit(true);
  std::vector<int> fired;
  env.schedule_at(milliseconds(10), [&] {
    fired.push_back(0);
    env.schedule_at(milliseconds(10), [&] { fired.push_back(2); });
  });
  env.schedule_at(milliseconds(10), [&] { fired.push_back(1); });
  env.advance_to(milliseconds(10));
  EXPECT_EQ(fired, (std::vector<int>{0, 1, 2}));
}

// Re-entrant scheduling during a same-tick batch: an event that schedules
// another event for the *same instant* must see it run within the same
// sweep, after every previously queued same-tick event.
TEST(CascadeBoundaryTest, SameTickReentrantScheduleRunsInSeqOrder) {
  Env env;
  env.set_audit(true);
  std::vector<int> order;
  env.schedule_at(10, [&] {
    order.push_back(0);
    env.schedule_at(10, [&order] { order.push_back(3); });
  });
  env.schedule_at(10, [&order] { order.push_back(1); });
  env.schedule_at(10, [&order] { order.push_back(2); });
  env.advance_to(10);
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
  EXPECT_EQ(env.pending_events(), 0u);
}

// Dispatch order over deadlines spread from 0 to 262,145 ticks past the
// clock, with duplicates, past-dated events and a same-tick burst: the
// observed order must be the (deadline, scheduling order) contract,
// checked against a reference built by stable-sorting the schedule.
TEST(EnvTest, DispatchOrderIsDeadlineThenFifo) {
  Env env;
  env.set_audit(true);
  // Each record is (raw scheduled deadline, schedule index) in dispatch
  // order — raw, because the contract orders past-dated events by their
  // original deadline even though they *run* at the next advance with the
  // clock already ahead of them.
  std::vector<std::pair<Time, int>> fired;
  int idx = 0;
  auto at = [&](Time t) {
    const int id = idx++;
    env.schedule_at(t, [&fired, t, id] { fired.emplace_back(t, id); });
  };
  env.advance_to(100);
  const Time base = env.now();
  for (const Time d : {Time{0}, Time{1}, Time{63}, Time{64}, Time{64},
                       Time{65}, Time{4095}, Time{4096}, Time{4097},
                       Time{262143}, Time{262144}, Time{262145}, Time{64},
                       Time{4096}}) {
    at(base + d);
  }
  at(base - 50);  // past deadline: runs at the next advance
  at(base - 50);  // and FIFO with its same-deadline sibling
  for (int i = 0; i < 8; ++i) at(base + 4096);  // same-tick burst
  env.drain();

  ASSERT_EQ(fired.size(), 24u);
  std::vector<std::pair<Time, int>> expect = fired;
  std::stable_sort(expect.begin(), expect.end(),
                   [](const auto& a, const auto& b) {
                     if (a.first != b.first) return a.first < b.first;
                     return a.second < b.second;
                   });
  EXPECT_EQ(fired, expect) << "dispatch must be (deadline, seq) ordered";
}

TEST(EnvTest, FarFutureDeadlineFiresExactly) {
  Env env;
  const Time far = seconds(3600LL * 24 * 365) * 100;  // ~100 years
  Time fired = 0;
  env.schedule_at(far, [&] { fired = env.now(); });
  env.advance_to(far - 1);
  EXPECT_EQ(fired, 0);
  env.advance_to(far);
  EXPECT_EQ(fired, far);
}

// Overflow guard (NETSTORE_CHECK): deadlines at/above the kNoEvent
// sentinel and schedule_after sums past the Time range must die loudly —
// a silent wrap would file the event in the past and stall the run.
TEST(TimerOverflowDeathTest, ScheduleAtSentinelDies) {
  Env env;
  EXPECT_DEATH(env.schedule_at(Env::kNoEvent, [] {}),
               "deadline overflows sim::Time");
}

TEST(TimerOverflowDeathTest, ScheduleAfterOverflowDies) {
  Env env;
  env.advance_to(seconds(3600LL * 24 * 365));
  EXPECT_DEATH(env.schedule_after(std::numeric_limits<Duration>::max(), [] {}),
               "deadline overflows sim::Time");
}

TEST(EnvDeathTest, CheckQuiescedFiresWithPendingEvents) {
  Env env;
  env.schedule_at(seconds(1), [] {});
  EXPECT_DEATH(env.check_quiesced(), "events still pending at teardown");
}

// --- FuncRef -------------------------------------------------------------

TEST(FuncRefTest, CallsThroughToTheBorrowedCallable) {
  int calls = 0;
  auto fn = [&calls](int x) { calls += x; };
  FuncRef<void(int)> ref(fn);
  ref(2);
  ref(3);
  EXPECT_EQ(calls, 5);
}

TEST(FuncRefTest, ReturnsValues) {
  auto twice = [](int x) { return 2 * x; };
  FuncRef<int(int)> ref(twice);
  EXPECT_EQ(ref(21), 42);
}

TEST(FuncRefTest, NullIsFalsy) {
  FuncRef<void()> ref(nullptr);
  EXPECT_FALSE(ref);
  auto fn = [] {};
  ref = FuncRef<void()>(fn);
  EXPECT_TRUE(ref);
}

TEST(FuncRefTest, SeesMutationsInTheReferencedCallable) {
  int counter = 0;
  auto fn = [&counter] { return ++counter; };
  FuncRef<int()> ref(fn);
  fn();
  EXPECT_EQ(ref(), 2);  // same underlying state, not a copy
}

// --- InFlight: the NFS write pool and the iSCSI tag queue ----------------

TEST(InFlightTest, FullQueueWaitsForTheEarliestCompletion) {
  Env env;
  InFlight q;
  for (const Time t : {Time{30}, Time{10}, Time{20}}) q.add(t);
  q.reserve(env, 3);
  EXPECT_EQ(env.now(), 10);
  EXPECT_EQ(q.size(), 2u);
}

TEST(InFlightTest, FreeSlotRetiresWhatIsDoneWithoutMovingTheClock) {
  Env env;
  InFlight q;
  for (const Time t : {Time{30}, Time{10}, Time{20}}) q.add(t);
  env.advance_to(20);
  q.reserve(env, 3);
  EXPECT_EQ(env.now(), 20);
  EXPECT_EQ(q.size(), 1u);  // 10 and 20 retired; 30 still in flight
}

TEST(InFlightTest, DrainEndsAtTheLastCompletionAndFiresDueEvents) {
  Env env;
  InFlight q;
  for (const Time t : {Time{30}, Time{10}, Time{20}}) q.add(t);
  Time daemon_ran_at = -1;
  env.schedule_at(15, [&] { daemon_ran_at = env.now(); });
  q.drain(env);
  EXPECT_EQ(daemon_ran_at, 15);
  EXPECT_EQ(env.now(), 30);
  EXPECT_EQ(q.size(), 0u);
}

TEST(RngTest, Deterministic) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.next() == b.next()) same++;
  }
  EXPECT_LT(same, 2);
}

TEST(RngTest, UniformInRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.uniform(10), 10u);
    const auto v = rng.uniform_range(5, 9);
    EXPECT_GE(v, 5);
    EXPECT_LE(v, 9);
  }
}

TEST(RngTest, Uniform01Bounds) {
  Rng rng(7);
  double sum = 0;
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform01();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
    sum += u;
  }
  EXPECT_NEAR(sum / 10000, 0.5, 0.02);
}

TEST(RngTest, ExponentialMean) {
  Rng rng(7);
  double sum = 0;
  for (int i = 0; i < 20000; ++i) sum += rng.exponential(3.0);
  EXPECT_NEAR(sum / 20000, 3.0, 0.1);
}

TEST(RngTest, PermutationIsPermutation) {
  Rng rng(7);
  auto p = rng.permutation(1000);
  std::vector<bool> seen(1000, false);
  for (auto v : p) {
    ASSERT_LT(v, 1000u);
    ASSERT_FALSE(seen[v]);
    seen[v] = true;
  }
}

TEST(ZipfTest, SkewsTowardsLowRanks) {
  Rng rng(7);
  ZipfSampler zipf(1000, 0.99);
  std::vector<int> counts(1000, 0);
  for (int i = 0; i < 100000; ++i) counts[zipf.sample(rng)]++;
  // Rank 0 should be sampled far more often than rank 500.
  EXPECT_GT(counts[0], counts[500] * 10);
}

TEST(ZipfTest, ThetaZeroIsUniformish) {
  Rng rng(7);
  ZipfSampler zipf(10, 0.0);
  std::vector<int> counts(10, 0);
  for (int i = 0; i < 100000; ++i) counts[zipf.sample(rng)]++;
  for (int c : counts) EXPECT_NEAR(c, 10000, 600);
}

TEST(StatsTest, SamplerPercentiles) {
  Sampler s;
  for (int i = 1; i <= 100; ++i) s.record(i);
  EXPECT_DOUBLE_EQ(s.min(), 1);
  EXPECT_DOUBLE_EQ(s.max(), 100);
  EXPECT_NEAR(s.mean(), 50.5, 1e-9);
  EXPECT_NEAR(s.percentile(95), 95, 1.0);
  EXPECT_NEAR(s.percentile(50), 50.5, 1.0);
}

TEST(StatsTest, EmptySamplerIsZero) {
  Sampler s;
  EXPECT_EQ(s.percentile(95), 0.0);
  EXPECT_EQ(s.mean(), 0.0);
}

}  // namespace
}  // namespace netstore::sim
