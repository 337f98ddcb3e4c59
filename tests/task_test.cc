// Unit tests for the hot-path primitives behind the event loop:
// sim::Task (inline-storage move-only callable), sim::FuncRef (non-owning
// callable view), and sim::DaryHeap (the 4-ary event heap).

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <new>
#include <queue>
#include <string>
#include <utility>
#include <vector>

#include "sim/env.h"
#include "sim/event_heap.h"
#include "sim/rng.h"
#include "sim/task.h"

namespace {
// Every global operator new in this test binary, for
// TaskTest.SelfReschedulingDaemonsNeverAllocate.
std::uint64_t operator_new_calls = 0;
}  // namespace

void* operator new(std::size_t n) {
  ++operator_new_calls;
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }

namespace netstore::sim {
namespace {

// --- Task ----------------------------------------------------------------

TEST(TaskTest, SmallCaptureUsesInlineStorage) {
  const std::uint64_t inline_before = Task::inline_constructions();
  const std::uint64_t heap_before = Task::heap_constructions();

  int hits = 0;
  Task t([&hits] { hits++; });
  t();
  t();

  EXPECT_EQ(hits, 2);
  EXPECT_EQ(Task::inline_constructions(), inline_before + 1);
  EXPECT_EQ(Task::heap_constructions(), heap_before);
}

TEST(TaskTest, LargeCaptureFallsBackToHeap) {
  const std::uint64_t heap_before = Task::heap_constructions();

  // Deliberately larger than Task::kInlineSize.
  std::array<std::uint64_t, 16> big{};
  big[0] = 7;
  big[15] = 35;
  std::uint64_t sum = 0;
  Task t([big, &sum] { sum = big[0] + big[15]; });
  t();

  EXPECT_EQ(sum, 42u);
  EXPECT_EQ(Task::heap_constructions(), heap_before + 1);
}

TEST(TaskTest, MoveTransfersTheCallable) {
  int hits = 0;
  Task a([&hits] { hits++; });
  Task b(std::move(a));
  EXPECT_FALSE(a);  // NOLINT(bugprone-use-after-move) -- moved-from is empty
  ASSERT_TRUE(b);
  b();
  EXPECT_EQ(hits, 1);

  Task c;
  c = std::move(b);
  ASSERT_TRUE(c);
  c();
  EXPECT_EQ(hits, 2);
}

TEST(TaskTest, HoldsMoveOnlyCaptures) {
  auto owned = std::make_unique<int>(99);
  int seen = 0;
  Task t([p = std::move(owned), &seen] { seen = *p; });
  t();
  EXPECT_EQ(seen, 99);
}

TEST(TaskTest, DestroysCaptureExactlyOnce) {
  struct Probe {
    int* dtors;
    explicit Probe(int* d) : dtors(d) {}
    Probe(Probe&& o) noexcept : dtors(o.dtors) { o.dtors = nullptr; }
    Probe(const Probe&) = delete;
    ~Probe() {
      if (dtors != nullptr) (*dtors)++;
    }
  };

  int dtors = 0;
  {
    Task t([p = Probe(&dtors)] { (void)p; });
    Task moved(std::move(t));
    moved();
    EXPECT_EQ(dtors, 0);  // still alive inside `moved`
  }
  EXPECT_EQ(dtors, 1);
}

TEST(TaskTest, MoveAssignDestroysPreviousCallable) {
  int first_dtors = 0;
  struct Probe {
    int* dtors;
    explicit Probe(int* d) : dtors(d) {}
    Probe(Probe&& o) noexcept : dtors(o.dtors) { o.dtors = nullptr; }
    Probe(const Probe&) = delete;
    ~Probe() {
      if (dtors != nullptr) (*dtors)++;
    }
  };

  Task t([p = Probe(&first_dtors)] { (void)p; });
  t = Task([] {});
  EXPECT_EQ(first_dtors, 1);
}

// A daemon that reschedules itself until a shared budget runs out: the
// flusher/journal/lease pattern behind most events in a run.  The capture
// mirrors an I/O completion closure (context pointers plus a file handle
// and an offset) and fills Task's inline storage exactly.
struct Tick {
  Env* env;
  std::uint64_t* remaining;
  std::uint64_t period;
  std::uint64_t fh;
  std::uint64_t offset;

  void operator()() const {
    if (*remaining == 0) return;
    --*remaining;
    env->schedule_after(period,
                        Tick{env, remaining, period, fh + 1, offset ^ fh});
  }
};
static_assert(sizeof(Tick) == Task::kInlineSize);

// The event loop's steady state touches no heap: every Task is built in
// inline storage, and the heap's backing vector never grows once the
// daemons are queued.  A per-event allocation shows up here as an exact
// count, not as a slower run.
TEST(TaskTest, SelfReschedulingDaemonsNeverAllocate) {
  constexpr std::uint64_t kEvents = 100'000;
  constexpr std::uint64_t kDaemons = 4;
  Env env;
  std::uint64_t remaining = kEvents;
  const std::uint64_t inline_before = Task::inline_constructions();
  const std::uint64_t heap_before = Task::heap_constructions();
  for (std::uint64_t i = 0; i < kDaemons; ++i) {
    env.schedule_after(i + 1, Tick{&env, &remaining, i % 7 + 1, i, i * 4096});
  }

  const std::uint64_t news_before = operator_new_calls;
  env.drain();
  const std::uint64_t news = operator_new_calls - news_before;

  EXPECT_EQ(remaining, 0u);
  EXPECT_EQ(news, 0u);
  EXPECT_EQ(Task::heap_constructions() - heap_before, 0u);
  EXPECT_EQ(Task::inline_constructions() - inline_before, kEvents + kDaemons);
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

// --- DaryHeap ------------------------------------------------------------

TEST(DaryHeapTest, PopsInSortedOrder) {
  DaryHeap<int, std::less<int>> heap;
  for (int v : {5, 1, 4, 1, 5, 9, 2, 6}) heap.push(v);
  std::vector<int> out;
  while (!heap.empty()) out.push_back(heap.pop());
  EXPECT_TRUE(std::is_sorted(out.begin(), out.end()));
  EXPECT_EQ(out.size(), 8u);
}

TEST(DaryHeapTest, MatchesPriorityQueueOnRandomStream) {
  // Interleaved pushes and pops against the std::priority_queue oracle.
  Rng rng(20260807);
  DaryHeap<std::uint64_t, std::less<std::uint64_t>> heap;
  std::priority_queue<std::uint64_t, std::vector<std::uint64_t>,
                      std::greater<std::uint64_t>>
      oracle;
  for (int step = 0; step < 20000; ++step) {
    const bool push = oracle.empty() || rng.uniform(3) != 0;
    if (push) {
      const std::uint64_t v = rng.next() % 1000;
      heap.push(v);
      oracle.push(v);
    } else {
      ASSERT_EQ(heap.top(), oracle.top());
      ASSERT_EQ(heap.pop(), oracle.top());
      oracle.pop();
    }
    ASSERT_EQ(heap.size(), oracle.size());
  }
}

TEST(DaryHeapTest, MoveOnlyElements) {
  struct Item {
    std::unique_ptr<int> v;
    bool operator>(const Item& o) const { return *v > *o.v; }
  };
  struct Less {
    bool operator()(const Item& a, const Item& b) const { return *a.v < *b.v; }
  };
  DaryHeap<Item, Less> heap;
  for (int v : {3, 1, 2}) heap.push(Item{std::make_unique<int>(v)});
  EXPECT_EQ(*heap.pop().v, 1);
  EXPECT_EQ(*heap.pop().v, 2);
  EXPECT_EQ(*heap.pop().v, 3);
}

TEST(DaryHeapTest, StableForEqualKeysViaSequenceTieBreak) {
  // The Env Event ordering contract: (deadline, seq) — equal deadlines
  // pop in insertion order.  Model it the same way Env does.
  struct Ev {
    std::uint64_t at;
    std::uint64_t seq;
  };
  struct Sooner {
    bool operator()(const Ev& a, const Ev& b) const {
      if (a.at != b.at) return a.at < b.at;
      return a.seq < b.seq;
    }
  };
  Rng rng(7);
  DaryHeap<Ev, Sooner> heap;
  for (std::uint64_t seq = 0; seq < 5000; ++seq) {
    heap.push(Ev{rng.next() % 16, seq});
  }
  std::uint64_t prev_at = 0;
  std::uint64_t prev_seq = 0;
  bool first = true;
  while (!heap.empty()) {
    const Ev ev = heap.pop();
    if (!first && ev.at == prev_at) {
      EXPECT_GT(ev.seq, prev_seq);
    } else if (!first) {
      EXPECT_GT(ev.at, prev_at);
    }
    prev_at = ev.at;
    prev_seq = ev.seq;
    first = false;
  }
}

TEST(DaryHeapTest, PushDuringDrainPattern) {
  // The heap must be structurally consistent before a popped element is
  // used — Env invokes callbacks that push new events mid-drain.
  DaryHeap<int, std::less<int>> heap;
  heap.push(10);
  heap.push(20);
  std::vector<int> order;
  while (!heap.empty()) {
    const int v = heap.pop();
    order.push_back(v);
    if (v == 10) heap.push(15);
    if (v == 15) heap.push(30);
  }
  EXPECT_EQ(order, (std::vector<int>{10, 15, 20, 30}));
}

}  // namespace
}  // namespace netstore::sim
