// Discrete-event queue: an indexed binary min-heap over pool-allocated
// event slots.
//
// Ordering is (time, sequence); the sequence number guarantees
// deterministic FIFO ordering for events scheduled at identical
// timestamps, which keeps whole-simulation runs reproducible for a fixed
// seed. Heap entries carry their sort key inline, so sift comparisons
// stay within one contiguous array; the slot pool is only touched to
// move callbacks in and out and to maintain the position index that
// makes cancellation O(log n).
//
// Unlike the previous priority_queue + lazy-tombstone design, cancellation
// removes the event from the heap immediately: handles carry a
// (slot, generation) pair, so cancelling an event that already fired — the
// common RTO-after-ACK case — is an O(1) generation-mismatch no-op and
// leaves no residue. Slots are recycled through a free list, so steady
// schedule/fire churn performs no allocation once the pool has grown to
// the peak number of concurrently pending events. A moving deadline (a
// fluid flow's completion) is re-keyed in place with move(): one sift
// instead of a removal, a slot release and a fresh schedule.
#pragma once

#include <cassert>
#include <cstdint>
#include <type_traits>
#include <utility>
#include <vector>

#include "sim/small_fn.h"
#include "sim/types.h"

namespace scda::sim {

using Time = SimTime;  ///< simulation time (strong wrapper over seconds)
using EventId = std::uint64_t;

/// Handle that allows cancelling a scheduled event. A default-constructed
/// handle is invalid; a handle to a fired or cancelled event is stale and
/// cancelling it is a harmless no-op (generation counters detect reuse).
struct EventHandle {
  static constexpr std::uint32_t kNullSlot = 0xFFFFFFFFu;
  std::uint32_t slot = kNullSlot;
  std::uint32_t gen = 0;
  [[nodiscard]] bool valid() const noexcept { return slot != kNullSlot; }
};

/// Lightweight perf counters maintained by the queue (see docs/perf.md).
struct EventQueueStats {
  std::uint64_t scheduled = 0;        ///< total schedule() calls
  std::uint64_t popped = 0;           ///< events fired
  std::uint64_t cancelled = 0;        ///< live events removed by cancel()
  std::uint64_t stale_cancels = 0;    ///< cancels of already-fired events
  std::uint64_t heap_hwm = 0;         ///< peak concurrently pending events
  std::uint64_t callbacks_inline = 0; ///< captures stored in-slot
  std::uint64_t callbacks_heap = 0;   ///< captures that spilled to the heap
};

class EventQueue {
 public:
  using Callback = SmallFn;

  /// Schedule `cb` at absolute time `t`. Returns a cancellable handle.
  [[nodiscard]] EventHandle schedule(Time t, Callback cb) {
    const std::uint32_t s = acquire_slot();
    cbs_[s] = std::move(cb);
    return finish_schedule(t, s);
  }

  /// Schedule a callable at absolute time `t`, constructing it directly in
  /// the event pool (no temporary SmallFn, no relocation).
  template <typename F,
            std::enable_if_t<!std::is_same_v<std::decay_t<F>, Callback> &&
                                 std::is_invocable_r_v<void, std::decay_t<F>&>,
                             int> = 0>
  [[nodiscard]] EventHandle schedule(Time t, F&& f) {
    const std::uint32_t s = acquire_slot();
    cbs_[s].emplace(std::forward<F>(f));
    return finish_schedule(t, s);
  }

  /// Fire-and-forget schedule: schedule() with the handle deliberately
  /// dropped (mirrors Simulator::post_in/post_at at the queue level).
  template <typename F>
  void post(Time t, F&& f) {
    static_cast<void>(schedule(t, std::forward<F>(f)));
  }

  /// Cancel a previously scheduled event in O(log n). Cancelling an event
  /// that already fired (or an invalid handle) is an O(1) no-op.
  void cancel(EventHandle h) {
    if (!h.valid() || h.slot >= meta_.size()) return;
    if (meta_[h.slot].gen != h.gen || pos_[h.slot] == kNull) {
      ++stats_.stale_cancels;
      return;
    }
    remove_at(pos_[h.slot]);
    release_slot(h.slot);
    ++stats_.cancelled;
  }

  /// Move a pending event to absolute time `t` in place: it keeps its slot
  /// and callback, and its heap entry sifts up or down from where it sits.
  /// A move counts as the cancel + schedule it replaces. The event takes a
  /// fresh sequence number, so equal-time ties break as if it had just been
  /// scheduled; its generation is bumped, so `h` goes stale; `cancelled`,
  /// `scheduled` and the callback-storage counter each grow by one. Slot,
  /// free list, heap_hwm and pool size are what cancel(h) followed by
  /// schedule(t, <the same callback>) would leave; only the heap layout
  /// differs, and (time, seq) orders the pops the same way.
  ///
  /// Returns the new handle. A handle that is not pending returns an
  /// invalid handle and leaves the caller to schedule afresh; a valid but
  /// stale one is counted in `stale_cancels`, as cancel(h) would count it.
  [[nodiscard]] EventHandle move(EventHandle h, Time t) {
    if (!h.valid() || h.slot >= meta_.size()) return EventHandle{};
    const std::uint32_t s = h.slot;
    if (meta_[s].gen != h.gen || pos_[s] == kNull) {
      ++stats_.stale_cancels;
      return EventHandle{};
    }
    ++meta_[s].gen;
    ++stats_.cancelled;
    count_schedule(s);
    const Entry e{t, ++next_seq_, s};
    const std::size_t pos = pos_[s];
    if (pos > 0 && e.before(heap_[(pos - 1) / kArity])) {
      sift_up_from(pos, e);
    } else {
      sift_down_from(pos, e);
    }
    return EventHandle{s, meta_[s].gen};
  }

  /// True when no pending events remain. O(1): cancelled events are
  /// removed eagerly, so the heap never holds dead entries.
  [[nodiscard]] bool empty() const noexcept { return heap_.empty(); }

  [[nodiscard]] std::size_t scheduled() const noexcept { return heap_.size(); }

  struct Fired {
    Time time{};
    Callback cb;
  };

  /// Pop the next live event into `out`. Returns false when drained.
  [[nodiscard]] bool pop(Fired& out) {
    if (heap_.empty()) return false;
    const std::uint32_t s = heap_[0].slot;
    out.time = heap_[0].time;
    out.cb = std::move(cbs_[s]);
    remove_at(0);
    release_slot(s);
    ++stats_.popped;
    return true;
  }

  /// Time of the next live event; only valid when !empty().
  [[nodiscard]] Time next_time() const noexcept {
    assert(!heap_.empty());
    return heap_[0].time;
  }

  [[nodiscard]] const EventQueueStats& perf() const noexcept { return stats_; }

  /// Number of event slots ever allocated (the pool never shrinks; bounded
  /// by the peak number of concurrently pending events).
  [[nodiscard]] std::size_t pool_capacity() const noexcept {
    return meta_.size();
  }

 private:
  static constexpr std::uint32_t kNull = 0xFFFFFFFFu;
  static constexpr std::size_t kArity = 2;

  EventHandle finish_schedule(Time t, std::uint32_t s) {
    count_schedule(s);
    const auto pos = static_cast<std::uint32_t>(heap_.size());
    pos_[s] = pos;
    heap_.push_back(Entry{t, ++next_seq_, s});
    sift_up(pos);
    if (heap_.size() > stats_.heap_hwm) stats_.heap_hwm = heap_.size();
    return EventHandle{s, meta_[s].gen};
  }

  /// Schedule-side counters for the callback now in slot `s`.
  void count_schedule(std::uint32_t s) noexcept {
    if (cbs_[s].on_heap()) {
      ++stats_.callbacks_heap;
    } else {
      ++stats_.callbacks_inline;
    }
    ++stats_.scheduled;
  }

  /// Heap entry: sort key inline (comparisons never leave the heap array).
  struct Entry {
    Time time;
    EventId seq;          ///< FIFO tie-break for equal timestamps
    std::uint32_t slot;
    [[nodiscard]] bool before(const Entry& o) const noexcept {
      if (time != o.time) return time < o.time;
      return seq < o.seq;
    }
  };

  /// Slot metadata lives in parallel arrays (not alongside the 56-byte
  /// callback): sifts write the position index for every entry they move,
  /// and keeping those random stores inside a dense uint32 array is the
  /// difference between hitting L1 and dragging whole Slot cache lines in.
  struct SlotMeta {
    std::uint32_t gen = 0;      ///< bumped on release; stales old handles
    std::uint32_t next_free = kNull;
  };

  std::uint32_t acquire_slot() {
    if (free_head_ != kNull) {
      const std::uint32_t s = free_head_;
      free_head_ = meta_[s].next_free;
      meta_[s].next_free = kNull;
      return s;
    }
    meta_.emplace_back();
    pos_.push_back(kNull);
    cbs_.emplace_back();
    return static_cast<std::uint32_t>(meta_.size() - 1);
  }

  void release_slot(std::uint32_t s) noexcept {
    cbs_[s].reset();
    ++meta_[s].gen;
    pos_[s] = kNull;
    meta_[s].next_free = free_head_;
    free_head_ = s;
  }

  void place(std::size_t pos, const Entry& e) noexcept {
    heap_[pos] = e;
    pos_[e.slot] = static_cast<std::uint32_t>(pos);
  }

  /// Remove the heap entry at `pos`, restoring the heap invariant.
  ///
  /// Uses the hole strategy (as std::__adjust_heap does): sink the hole to
  /// a leaf promoting the smaller child — one comparison per level instead
  /// of two — then sift the displaced tail entry up from the leaf. The tail
  /// entry almost always belongs near the bottom, so the up-pass usually
  /// terminates on its first comparison.
  void remove_at(std::size_t pos) {
    const Entry moved = heap_.back();
    heap_.pop_back();
    const std::size_t n = heap_.size();
    if (pos == n) return;  // removed the tail entry
    if (pos > 0 && moved.before(heap_[(pos - 1) / kArity])) {
      sift_up_from(pos, moved);
      return;
    }
    for (;;) {
      const std::size_t first = pos * kArity + 1;
      if (first >= n) break;
      const std::size_t last = first + kArity < n ? first + kArity : n;
      std::size_t best = first;
      for (std::size_t c = first + 1; c < last; ++c) {
        if (heap_[c].before(heap_[best])) best = c;
      }
      const std::size_t next = best * kArity + 1;
      if (next < n) __builtin_prefetch(&heap_[next]);
      place(pos, heap_[best]);
      pos = best;
    }
    sift_up_from(pos, moved);
  }

  void sift_up(std::size_t pos) { sift_up_from(pos, heap_[pos]); }

  /// Sift `e` up starting from the hole at `pos` (heap_[pos] is not read).
  /// `e` is taken by value: callers may pass heap_[pos] itself, which the
  /// loop's place() calls would otherwise clobber through the reference.
  void sift_up_from(std::size_t pos, const Entry e) {
    while (pos > 0) {
      const std::size_t parent = (pos - 1) / kArity;
      if (!e.before(heap_[parent])) break;
      place(pos, heap_[parent]);
      pos = parent;
    }
    place(pos, e);
  }

  /// Sift `e` down starting from the hole at `pos` (heap_[pos] is not
  /// read): promote the smaller child while it orders before `e`.
  void sift_down_from(std::size_t pos, const Entry e) {
    const std::size_t n = heap_.size();
    for (;;) {
      const std::size_t first = pos * kArity + 1;
      if (first >= n) break;
      const std::size_t last = first + kArity < n ? first + kArity : n;
      std::size_t best = first;
      for (std::size_t c = first + 1; c < last; ++c) {
        if (heap_[c].before(heap_[best])) best = c;
      }
      if (!heap_[best].before(e)) break;
      place(pos, heap_[best]);
      pos = best;
    }
    place(pos, e);
  }

  std::vector<SlotMeta> meta_;     ///< per-slot generation + free list
  std::vector<std::uint32_t> pos_; ///< slot -> heap position (kNull = free)
  std::vector<Callback> cbs_;      ///< pooled callback storage
  std::vector<Entry> heap_;        ///< indexed min-heap, keys inline
  std::uint32_t free_head_ = kNull;
  EventId next_seq_ = 0;
  EventQueueStats stats_;
};

}  // namespace scda::sim
