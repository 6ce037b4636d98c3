#include "sim/event_queue.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <utility>
#include <vector>

#include "sim/rng.h"

namespace scda::sim {
namespace {

TEST(EventQueue, StartsEmpty) {
  EventQueue q;
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.scheduled(), 0u);
  EventQueue::Fired f;
  EXPECT_FALSE(q.pop(f));
}

TEST(EventQueue, PopsInTimeOrder) {
  EventQueue q;
  std::vector<int> order;
  q.post(scda::sim::secs(3.0), [&] { order.push_back(3); });
  q.post(scda::sim::secs(1.0), [&] { order.push_back(1); });
  q.post(scda::sim::secs(2.0), [&] { order.push_back(2); });
  EventQueue::Fired f;
  while (q.pop(f)) f.cb();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, EqualTimestampsAreFifo) {
  EventQueue q;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i)
    q.post(scda::sim::secs(1.0), [&order, i] { order.push_back(i); });
  EventQueue::Fired f;
  while (q.pop(f)) f.cb();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<size_t>(i)], i);
}

TEST(EventQueue, PopReportsScheduledTime) {
  EventQueue q;
  q.post(scda::sim::secs(2.5), [] {});
  EventQueue::Fired f;
  ASSERT_TRUE(q.pop(f));
  EXPECT_DOUBLE_EQ(f.time.seconds(), 2.5);
}

TEST(EventQueue, NextTimeSeesEarliestLiveEvent) {
  EventQueue q;
  auto h = q.schedule(scda::sim::secs(1.0), [] {});
  q.post(scda::sim::secs(2.0), [] {});
  EXPECT_DOUBLE_EQ(q.next_time().seconds(), 1.0);
  q.cancel(h);
  EXPECT_DOUBLE_EQ(q.next_time().seconds(), 2.0);
}

TEST(EventQueue, CancelPreventsExecution) {
  EventQueue q;
  bool ran = false;
  auto h = q.schedule(scda::sim::secs(1.0), [&] { ran = true; });
  q.cancel(h);
  EXPECT_TRUE(q.empty());
  EventQueue::Fired f;
  EXPECT_FALSE(q.pop(f));
  EXPECT_FALSE(ran);
}

TEST(EventQueue, CancelOnlyAffectsTarget) {
  EventQueue q;
  int sum = 0;
  q.post(scda::sim::secs(1.0), [&] { sum += 1; });
  auto h = q.schedule(scda::sim::secs(1.0), [&] { sum += 10; });
  q.post(scda::sim::secs(1.0), [&] { sum += 100; });
  q.cancel(h);
  EventQueue::Fired f;
  while (q.pop(f)) f.cb();
  EXPECT_EQ(sum, 101);
}

TEST(EventQueue, CancelAfterFireIsNoop) {
  EventQueue q;
  auto h = q.schedule(scda::sim::secs(1.0), [] {});
  EventQueue::Fired f;
  ASSERT_TRUE(q.pop(f));
  q.cancel(h);  // must not crash or affect later events
  q.post(scda::sim::secs(2.0), [] {});
  EXPECT_FALSE(q.empty());
  ASSERT_TRUE(q.pop(f));
  EXPECT_DOUBLE_EQ(f.time.seconds(), 2.0);
}

TEST(EventQueue, InvalidHandleCancelIsNoop) {
  EventQueue q;
  q.cancel(EventHandle{});  // default handle is invalid
  q.post(scda::sim::secs(1.0), [] {});
  EXPECT_EQ(q.scheduled(), 1u);
  EXPECT_FALSE(q.empty());
}

TEST(EventQueue, ManyEventsDrainCompletely) {
  EventQueue q;
  int count = 0;
  for (int i = 0; i < 10000; ++i)
    q.post(scda::sim::secs(static_cast<double>(i % 100)), [&] { ++count; });
  EventQueue::Fired f;
  double prev = -1;
  while (q.pop(f)) {
    EXPECT_GE(f.time.seconds(), prev);
    prev = f.time.seconds();
    f.cb();
  }
  EXPECT_EQ(count, 10000);
}

TEST(EventQueue, CancelAllLeavesEmpty) {
  EventQueue q;
  std::vector<EventHandle> hs;
  for (int i = 0; i < 50; ++i) {
    hs.push_back(q.schedule(scda::sim::secs(1.0), [] {}));
  }
  for (auto h : hs) q.cancel(h);
  EXPECT_TRUE(q.empty());
}

// Regression for the seed's tombstone leak: cancel() compared the handle id
// against next_id_ (always true), so every cancel of an already-fired event
// left a permanent entry in the cancelled-id set. A sender that schedules an
// RTO per packet and cancels it on ACK — the common transport pattern —
// accumulated unbounded bookkeeping over a long run. The rebuilt queue must
// keep memory bounded by the peak number of concurrently pending events.
TEST(EventQueue, ScheduleFireCancelChurnKeepsBookkeepingBounded) {
  EventQueue q;
  double t = 0;
  std::uint64_t fired = 0;
  EventQueue::Fired f;
  for (int i = 0; i < 1'000'000; ++i) {
    EventHandle rto =
        q.schedule(scda::sim::secs(t + 1.0), [&fired] { ++fired; });
    q.post(scda::sim::secs(t + 0.5), [&fired] { ++fired; });
    ASSERT_TRUE(q.pop(f));  // the "ACK" arrives first...
    f.cb();
    q.cancel(rto);          // ...and cancels the pending retransmit
    t += 1.0;
  }
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(fired, 1'000'000u);
  // Peak pending = 2, so the pool must stay tiny no matter how many cycles
  // ran. The seed design grew its cancelled-set by one entry per cycle.
  EXPECT_LE(q.pool_capacity(), 4u);
  EXPECT_EQ(q.perf().cancelled, 1'000'000u);
  EXPECT_EQ(q.perf().popped, 1'000'000u);
  EXPECT_EQ(q.perf().heap_hwm, 2u);
}

// A handle becomes stale once its event fires; the slot may be recycled for
// a new event. Cancelling the stale handle must not kill the new occupant.
TEST(EventQueue, StaleHandleCannotCancelRecycledSlot) {
  EventQueue q;
  bool first = false;
  bool second = false;
  EventHandle h1 = q.schedule(scda::sim::secs(1.0), [&] { first = true; });
  EventQueue::Fired f;
  ASSERT_TRUE(q.pop(f));
  f.cb();
  // The new event recycles h1's slot (single-slot pool).
  EventHandle h2 = q.schedule(scda::sim::secs(2.0), [&] { second = true; });
  EXPECT_EQ(h2.slot, h1.slot);
  q.cancel(h1);  // stale: must be a counted no-op, not cancel h2's event
  EXPECT_EQ(q.scheduled(), 1u);
  ASSERT_TRUE(q.pop(f));
  f.cb();
  EXPECT_TRUE(first);
  EXPECT_TRUE(second);
  EXPECT_EQ(q.perf().stale_cancels, 1u);
  EXPECT_EQ(q.perf().cancelled, 0u);
}

TEST(EventQueue, DoubleCancelIsCountedStale) {
  EventQueue q;
  EventHandle h = q.schedule(scda::sim::secs(1.0), [] {});
  q.cancel(h);
  q.cancel(h);  // second cancel of the same handle: stale no-op
  EXPECT_EQ(q.perf().cancelled, 1u);
  EXPECT_EQ(q.perf().stale_cancels, 1u);
}

TEST(EventQueue, CancelInteriorPreservesOrdering) {
  // Cancel events from the middle of a deep heap, then verify the survivors
  // still drain in exact (time, FIFO) order.
  EventQueue q;
  std::vector<EventHandle> hs;
  std::vector<int> order;
  for (int i = 0; i < 1000; ++i) {
    const double t = static_cast<double>((i * 7919) % 257);
    hs.push_back(
        q.schedule(scda::sim::secs(t), [&order, i] { order.push_back(i); }));
  }
  for (std::size_t i = 0; i < hs.size(); i += 3) q.cancel(hs[i]);
  EventQueue::Fired f;
  double prev = -1;
  while (q.pop(f)) {
    EXPECT_GE(f.time.seconds(), prev);
    prev = f.time.seconds();
    f.cb();
  }
  EXPECT_EQ(order.size(), 666u);
  for (int i : order) EXPECT_NE(i % 3, 0);
}

TEST(EventQueue, LargeCapturesSpillToHeapAndStillRun) {
  EventQueue q;
  // 64 bytes of captured state exceeds SmallFn's inline budget.
  struct Big {
    double a[8] = {1, 2, 3, 4, 5, 6, 7, 8};
  } big;
  double sum = 0;
  q.post(scda::sim::secs(1.0), [big, &sum] {
    for (double v : big.a) sum += v;
  });
  EXPECT_EQ(q.perf().callbacks_heap, 1u);
  EventQueue::Fired f;
  ASSERT_TRUE(q.pop(f));
  f.cb();
  EXPECT_DOUBLE_EQ(sum, 36.0);
}

TEST(EventQueue, MoveRekeysInPlaceAndStalesOldHandle) {
  EventQueue q;
  std::vector<int> order;
  const EventHandle h =
      q.schedule(scda::sim::secs(1.0), [&order] { order.push_back(1); });
  q.post(scda::sim::secs(2.0), [&order] { order.push_back(2); });
  const EventHandle first = q.move(h, scda::sim::secs(0.5));
  const EventHandle moved = q.move(first, scda::sim::secs(3.0));
  ASSERT_TRUE(moved.valid());
  EXPECT_EQ(moved.slot, h.slot);  // same slot, same callback
  EXPECT_NE(moved.gen, first.gen);
  EXPECT_NE(first.gen, h.gen);
  EXPECT_EQ(q.pool_capacity(), 2u);
  EXPECT_EQ(q.scheduled(), 2u);

  // The pre-move handle is stale: cancelling or moving it is a counted
  // no-op and leaves the moved event pending.
  q.cancel(h);
  EXPECT_FALSE(q.move(first, scda::sim::secs(0.5)).valid());
  EXPECT_EQ(q.perf().stale_cancels, 2u);
  EXPECT_EQ(q.scheduled(), 2u);

  // Each move counts as the cancel + schedule it replaces.
  EXPECT_EQ(q.perf().scheduled, 4u);
  EXPECT_EQ(q.perf().cancelled, 2u);
  EXPECT_EQ(q.perf().callbacks_inline, 4u);
  EXPECT_EQ(q.perf().heap_hwm, 2u);

  EventQueue::Fired f;
  std::vector<double> times;
  while (q.pop(f)) {
    times.push_back(f.time.seconds());
    f.cb();
  }
  EXPECT_EQ(order, (std::vector<int>{2, 1}));
  EXPECT_EQ(times, (std::vector<double>{2.0, 3.0}));
  EXPECT_FALSE(q.move(moved, scda::sim::secs(4.0)).valid());  // fired
  EXPECT_FALSE(q.move(EventHandle{}, scda::sim::secs(4.0)).valid());
  EXPECT_EQ(q.perf().stale_cancels, 3u);  // the invalid handle is not counted
}

// move() must be indistinguishable from cancel + schedule of the same
// callback everywhere but the heap layout. Run one seeded random sequence
// of schedule / cancel / move / pop on two queues -- one moving in place,
// one cancelling and rescheduling -- with integer timestamps so most
// events tie, and compare every pop (time, payload), every counter and the
// pool size. Moves hit pending events, events moved before, and stale
// handles (fired, cancelled, or superseded by an earlier move).
TEST(EventQueue, MoveMatchesCancelPlusScheduleDifferentially) {
  struct Side {
    EventQueue q;
    std::vector<int> fired;
    std::vector<EventHandle> current;  ///< latest handle per payload
    std::vector<EventHandle> previous; ///< the handle before the last move
  };
  // Every fifth payload carries a capture too big for SmallFn's inline
  // budget, so the heap-callback counter is exercised by moves as well.
  const auto make_cb = [](Side& side, int payload) -> EventQueue::Callback {
    std::vector<int>* sink = &side.fired;
    if (payload % 5 == 0) {
      struct Big {
        std::int64_t pad[6] = {};
      } big;
      return [sink, payload, big] {
        sink->push_back(payload + static_cast<int>(big.pad[0]));
      };
    }
    return [sink, payload] { sink->push_back(payload); };
  };

  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    Side mover;
    Side cancel;
    Rng rng(seed);
    std::int64_t now = 0;
    int next_payload = 0;
    const auto when = [&] {
      return secs(static_cast<double>(now + rng.uniform_int(0, 6)));
    };
    for (int step = 0; step < 20000; ++step) {
      const std::int64_t op = rng.uniform_int(0, 9);
      if (op <= 2 || next_payload == 0) {  // schedule a new payload
        const Time t = when();
        const int p = next_payload++;
        for (Side* s : {&mover, &cancel}) {
          s->current.push_back(s->q.schedule(t, make_cb(*s, p)));
          s->previous.push_back(EventHandle{});
        }
      } else if (op <= 6) {  // move: current handle, or a stale one
        const auto payload =
            static_cast<int>(rng.uniform_int(0, next_payload - 1));
        const auto p = static_cast<std::size_t>(payload);
        const bool stale = rng.bernoulli(0.2);
        const Time t = when();
        const EventHandle hm = stale ? mover.previous[p] : mover.current[p];
        EventHandle nm = mover.q.move(hm, t);
        if (!nm.valid()) nm = mover.q.schedule(t, make_cb(mover, payload));
        mover.previous[p] = hm;
        mover.current[p] = nm;

        const EventHandle hc = stale ? cancel.previous[p] : cancel.current[p];
        cancel.q.cancel(hc);
        cancel.previous[p] = hc;
        cancel.current[p] = cancel.q.schedule(t, make_cb(cancel, payload));
      } else if (op == 7) {  // cancel
        const auto p = static_cast<std::size_t>(
            rng.uniform_int(0, next_payload - 1));
        mover.q.cancel(mover.current[p]);
        cancel.q.cancel(cancel.current[p]);
      } else {  // pop one event from each and compare
        EventQueue::Fired fm;
        EventQueue::Fired fc;
        const bool got = mover.q.pop(fm);
        ASSERT_EQ(got, cancel.q.pop(fc))
            << "seed " << seed << " step " << step;
        if (got) {
          ASSERT_EQ(fm.time, fc.time) << "seed " << seed << " step " << step;
          fm.cb();
          fc.cb();
          ASSERT_EQ(mover.fired.back(), cancel.fired.back())
              << "seed " << seed << " step " << step;
          now = static_cast<std::int64_t>(fm.time.seconds());
        }
      }
      ASSERT_EQ(mover.q.scheduled(), cancel.q.scheduled());
    }
    // Drain, then compare the whole firing order and every counter.
    EventQueue::Fired fm;
    EventQueue::Fired fc;
    while (mover.q.pop(fm)) {
      ASSERT_TRUE(cancel.q.pop(fc));
      ASSERT_EQ(fm.time, fc.time) << "seed " << seed;
      fm.cb();
      fc.cb();
    }
    EXPECT_FALSE(cancel.q.pop(fc));
    EXPECT_EQ(mover.fired, cancel.fired) << "seed " << seed;
    const EventQueueStats& a = mover.q.perf();
    const EventQueueStats& b = cancel.q.perf();
    EXPECT_EQ(a.scheduled, b.scheduled) << "seed " << seed;
    EXPECT_EQ(a.popped, b.popped) << "seed " << seed;
    EXPECT_EQ(a.cancelled, b.cancelled) << "seed " << seed;
    EXPECT_EQ(a.stale_cancels, b.stale_cancels) << "seed " << seed;
    EXPECT_EQ(a.heap_hwm, b.heap_hwm) << "seed " << seed;
    EXPECT_EQ(a.callbacks_inline, b.callbacks_inline) << "seed " << seed;
    EXPECT_EQ(a.callbacks_heap, b.callbacks_heap) << "seed " << seed;
    EXPECT_EQ(mover.q.pool_capacity(), cancel.q.pool_capacity())
        << "seed " << seed;
    // The sequence really exercised moves, ties and stale handles.
    EXPECT_GT(a.cancelled, 5000u);
    EXPECT_GT(a.stale_cancels, 500u);
    EXPECT_GT(a.callbacks_heap, 1000u);
    EXPECT_GT(a.popped, 5000u);
  }
}

}  // namespace
}  // namespace scda::sim
