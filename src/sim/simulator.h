// Simulator: owns the clock, the event queue and the run loop.
//
// This is the NS2 substitute's kernel. Components hold a Simulator& and
// schedule callbacks; the run loop advances the clock monotonically.
#pragma once

#include <functional>
#include <stdexcept>

#include "sim/event_queue.h"
#include "sim/rng.h"

namespace scda::obs {
class Observability;
}  // namespace scda::obs

namespace scda::sim {

class Simulator {
 public:
  explicit Simulator(std::uint64_t seed = 0x5cda2013ULL)
      : seed_(seed), rng_(seed) {}

  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  [[nodiscard]] Time now() const noexcept { return now_; }
  /// The seed this simulator (and its RNG) was constructed with. Components
  /// that derive their own RNG streams (the failure schedule) mix it so one
  /// run seed determines every stream.
  [[nodiscard]] std::uint64_t seed() const noexcept { return seed_; }
  [[nodiscard]] Rng& rng() noexcept { return rng_; }
  [[nodiscard]] EventQueue& queue() noexcept { return queue_; }
  [[nodiscard]] const EventQueue& queue() const noexcept { return queue_; }
  /// Event-engine perf counters (events popped, cancels, heap high-water
  /// mark, callback allocation behaviour) — see docs/perf.md.
  [[nodiscard]] const EventQueueStats& perf() const noexcept {
    return queue_.perf();
  }

  /// Observability context (metrics registry + optional trace recorder),
  /// or nullptr when the run is uninstrumented. The simulator never
  /// dereferences it — components check and use it through
  /// obs/observability.h — so the run loop stays obs-free.
  [[nodiscard]] obs::Observability* observability() const noexcept {
    return obs_;
  }
  void set_observability(obs::Observability* o) noexcept { obs_ = o; }

  /// Schedule a callable `delay` seconds from now (delay >= 0). The
  /// callable is forwarded into the event pool without a temporary.
  /// The returned handle is the only way to cancel() the event — callers
  /// that mean fire-and-forget use post_in() instead.
  template <typename F>
  [[nodiscard]] EventHandle schedule_in(Time delay, F&& f) {
    if (delay < Time{}) {
      throw std::invalid_argument("schedule_in: negative delay");
    }
    return queue_.schedule(now_ + delay, std::forward<F>(f));
  }

  /// Schedule a callable at absolute time `t` (t >= now). See schedule_in
  /// for the handle contract.
  template <typename F>
  [[nodiscard]] EventHandle schedule_at(Time t, F&& f) {
    if (t < now_) throw std::invalid_argument("schedule_at: time in the past");
    return queue_.schedule(t, std::forward<F>(f));
  }

  /// Fire-and-forget variants: schedule with no intent to cancel. Same
  /// semantics as schedule_in/schedule_at with the handle dropped, spelled
  /// so that an accidentally dropped *cancellable* handle is a compile
  /// error ([[nodiscard]] above).
  template <typename F>
  void post_in(Time delay, F&& f) {
    static_cast<void>(schedule_in(delay, std::forward<F>(f)));
  }
  template <typename F>
  void post_at(Time t, F&& f) {
    static_cast<void>(schedule_at(t, std::forward<F>(f)));
  }

  void cancel(EventHandle h) { queue_.cancel(h); }

  /// Move-or-arm in one call: the moving-deadline idiom (fluid flow
  /// completions). A pending `h` is moved to `t` in place and keeps the
  /// callback it was scheduled with (EventQueue::move; `f` is not used);
  /// a stale or invalid `h` is replaced by `f` scheduled at `t`. Either way
  /// the queue's counters read as cancel(h) + schedule_at(t, f), so callers
  /// pass the previous handle unconditionally, with the same callable.
  template <typename F>
  [[nodiscard]] EventHandle reschedule_at(EventHandle h, Time t, F&& f) {
    if (t < now_) {
      throw std::invalid_argument("reschedule_at: time in the past");
    }
    const EventHandle moved = queue_.move(h, t);
    if (moved.valid()) return moved;
    return queue_.schedule(t, std::forward<F>(f));
  }

  /// Run until the queue drains or the clock passes `until`.
  /// Returns the number of events executed.
  std::uint64_t run_until(Time until) {
    std::uint64_t executed = 0;
    EventQueue::Fired ev;
    while (!queue_.empty() && queue_.next_time() <= until) {
      if (!queue_.pop(ev)) break;
      now_ = ev.time;
      ev.cb();
      ++executed;
    }
    if (now_ < until) now_ = until;
    return executed;
  }

  /// Run until the queue fully drains. Returns the number of events executed.
  std::uint64_t run() {
    std::uint64_t executed = 0;
    EventQueue::Fired ev;
    while (queue_.pop(ev)) {
      now_ = ev.time;
      ev.cb();
      ++executed;
    }
    return executed;
  }

 private:
  Time now_{};
  EventQueue queue_;
  std::uint64_t seed_;
  Rng rng_;
  obs::Observability* obs_ = nullptr;
};

/// Re-arming periodic process: fires `tick` every `period` seconds starting
/// at `start`. Used for RM/RA control intervals and stats sampling.
class PeriodicProcess {
 public:
  PeriodicProcess(Simulator& sim, Time period, std::function<void()> tick)
      : sim_(sim), period_(period), tick_(std::move(tick)) {
    if (period <= Time{})
      throw std::invalid_argument("PeriodicProcess: period must be > 0");
  }

  ~PeriodicProcess() { stop(); }
  PeriodicProcess(const PeriodicProcess&) = delete;
  PeriodicProcess& operator=(const PeriodicProcess&) = delete;

  void start(Time first_delay = Time{}) {
    stop();
    running_ = true;
    handle_ = sim_.schedule_in(first_delay, [this] { fire(); });
  }

  void stop() {
    if (running_) {
      sim_.cancel(handle_);
      running_ = false;
    }
  }

  [[nodiscard]] bool running() const noexcept { return running_; }
  [[nodiscard]] Time period() const noexcept { return period_; }
  void set_period(Time p) {
    if (p <= Time{}) {
      throw std::invalid_argument("set_period: period must be > 0");
    }
    period_ = p;
  }

 private:
  void fire() {
    if (!running_) return;
    tick_();
    if (running_) handle_ = sim_.schedule_in(period_, [this] { fire(); });
  }

  Simulator& sim_;
  Time period_;
  std::function<void()> tick_;
  EventHandle handle_{};
  bool running_ = false;
};

}  // namespace scda::sim
