// RateAllocator: the per-link allocation engine behind the RM/RA hierarchy.
//
// Every control interval tau it recomputes, for every active link, the
// per-flow fair rate R_l(t) (eq. 2 exact, or eq. 5 simplified) and, for
// every registered flow, its end-to-end allocation
//
//     r_j = min(M_j + p_j * min_{l in path} R_l, R_other_send, R_other_recv)
//
// which is exactly the distributed fixed point the RM/RA message exchanges
// of paper section VI compute: a link where a flow is bottlenecked elsewhere
// counts it as r_j / R < 1 effective flows (eq. 3), so the residual
// bandwidth flows to the flows that can use it — weighted max-min fairness.
//
// The engine is topology-agnostic (section IX): it only needs each flow's
// path, which the tree RM/RA hierarchy (hierarchy.h) derives from routing.
//
// A link with no registered flows, an empty queue and no arrivals sits at
// the exact fixed point R = max(alpha*C - M, min_rate): recomputing it
// yields the same bits. Such a link leaves the active set and is skipped
// until one of its inputs changes — a flow registers or unregisters on it,
// set_link_up() is called, or the link itself reports a counter change
// through the Network's dirty-link flags (docs/perf.md, "Active-link
// control tick"). A tick therefore costs O(active links + flow hops), not
// O(fabric size), with outputs identical to a walk over every link.
#pragma once

#include <algorithm>
#include <bit>
#include <cassert>
#include <cstdint>
#include <functional>
#include <vector>

#include "core/params.h"
#include "net/network.h"

namespace scda::core {

/// Callback invoked when a link's demand exceeds its effective capacity
/// (SLA violation, section IV-A): (link, S, gamma, time).
using SlaViolationFn =
    std::function<void(net::LinkId, sim::BitRate, sim::BitRate, sim::Time)>;

class RateAllocator {
 public:
  RateAllocator(net::Network& net, const ScdaParams& params);

  RateAllocator(const RateAllocator&) = delete;
  RateAllocator& operator=(const RateAllocator&) = delete;

  // --- flow registry --------------------------------------------------------
  /// Provider of a flow's non-network bottleneck (CPU/disk) rate; nullptr
  /// means unconstrained.
  using RateProviderFn = std::function<sim::BitRate()>;

  void register_flow(net::FlowId id, net::NodeId src, net::NodeId dst,
                     double priority = 1.0, sim::BitRate reserved = {},
                     RateProviderFn r_other_send = nullptr,
                     RateProviderFn r_other_recv = nullptr);

  /// Register a flow on an explicit path (source-routed flows on general
  /// topologies, paper section IX).
  void register_flow_on_path(net::FlowId id, std::vector<net::LinkId> path,
                             double priority = 1.0, sim::BitRate reserved = {},
                             RateProviderFn r_other_send = nullptr,
                             RateProviderFn r_other_recv = nullptr);
  void unregister_flow(net::FlowId id);
  [[nodiscard]] bool has_flow(net::FlowId id) const {
    return find_row(id) != kNoRow;
  }
  [[nodiscard]] std::size_t active_flows() const noexcept {
    return by_id_.size();
  }

  /// Change a flow's priority weight (adaptive policies, section IV-A).
  void set_priority(net::FlowId id, double priority);
  [[nodiscard]] double priority(net::FlowId id) const;

  // --- control interval -----------------------------------------------------
  /// Recompute gamma, per-flow rates, S and the new per-link rates.
  void tick();

  /// Recompute only the per-flow rates from the current link rates (no
  /// link-state updates, no SLA checks). Used right after an admission so
  /// existing senders drop to their post-admission shares immediately
  /// instead of overdriving the path until the next tick.
  void refresh_flow_rates();

  // --- queries ---------------------------------------------------------------
  /// Per-flow fair rate currently advertised by a link (R_l).
  [[nodiscard]] sim::BitRate link_rate(net::LinkId l) const {
    return links_.at(l.index()).rate;
  }
  /// Effective capacity gamma of a link from the last tick.
  [[nodiscard]] sim::BitRate link_gamma(net::LinkId l) const {
    return links_.at(l.index()).gamma;
  }
  /// Sum of flow rates S crossing the link in the last tick.
  [[nodiscard]] sim::BitRate link_rate_sum(net::LinkId l) const {
    return links_.at(l.index()).rate_sum;
  }
  /// Rate a prospective new flow of the given weight would get on the link:
  /// gamma_share / (N-hat + priority). This is the link weight route
  /// selection should compare (section IX) — unlike link_rate it
  /// distinguishes an idle link from one whose single flow uses it fully.
  [[nodiscard]] sim::BitRate prospective_link_rate(net::LinkId l,
                                                   double priority = 1.0) const {
    const auto& st = links_.at(l.index());
    if (st.down) return sim::BitRate{};
    const sim::BitRate shareable =
        sim::max(st.gamma - st.reserved, params_.min_rate);
    return sim::clamp(shareable / std::max(st.nhat + priority, 1.0),
                      params_.min_rate, shareable);
  }

  // --- link failure state ----------------------------------------------------
  /// Mark a link down/up for allocation purposes (failure injection,
  /// docs/scenarios.md). A down link advertises zero per-flow rate and zero
  /// effective capacity, and every flow whose path crosses it is allocated
  /// exactly 0 — bypassing the min-rate floor — so fluid flows park instead
  /// of stranding their completion events. The next tick() re-reads
  /// Link::up() for the link; a direct Link::set_up() marks the link dirty,
  /// so it converges within one interval too.
  void set_link_up(net::LinkId l, bool up);
  /// The flow's current end-to-end allocation r_j.
  [[nodiscard]] sim::BitRate flow_rate(net::FlowId id) const;

  /// flow_rate() for a caller that asks in ascending flow-id order (the
  /// fluid engine's re-rate walk): instead of a binary search per query,
  /// a row index moves forward through the sorted flow index, so a whole
  /// walk costs O(flows) in total. Each answer is exactly flow_rate(id):
  /// the same rate_ element on a match, 0 for an unregistered id. Valid
  /// while no flow registers or unregisters; queries must not decrease.
  class RateCursor {
   public:
    explicit RateCursor(const RateAllocator& a) noexcept : a_(&a) {}
    [[nodiscard]] sim::BitRate operator()(net::FlowId id) noexcept {
      const std::vector<IndexEntry>& idx = a_->by_id_;
      assert((row_ == 0 || !(id < idx[row_ - 1].id)) &&
             "RateCursor: queries must not decrease");
      while (row_ < idx.size() && idx[row_].id < id) ++row_;
      if (row_ == idx.size() || idx[row_].id != id) return sim::BitRate{};
      return a_->rate_[idx[row_].slot];
    }

   private:
    const RateAllocator* a_;
    std::size_t row_ = 0;
  };

  /// Rate a *new* unit-weight flow would get along src->dst right now:
  /// min over the path of the per-link rates (the value the NNS asks the
  /// RA/RM hierarchy for, paper Figs. 3-5).
  [[nodiscard]] sim::BitRate path_rate(net::NodeId src, net::NodeId dst) const;
  /// Same, over an explicit link sequence.
  [[nodiscard]] sim::BitRate path_rate(
      const std::vector<net::LinkId>& path) const;

  // --- control-plane cost counters -------------------------------------------
  /// Cumulative RM/RA round cost: how many control ticks ran and how much
  /// per-flow / per-link work each round performed (paper section VI's
  /// message-exchange volume). Read by the observability layer at end of
  /// run; maintained with plain increments so it costs nothing measurable.
  struct ControlStats {
    std::uint64_t ticks = 0;          ///< RM/RA rounds executed
    std::uint64_t flow_updates = 0;   ///< per-flow rate recomputations
    /// Per-link R_l recomputations of the modelled protocol: every RA
    /// reports every round (ticks x links), whatever the simulator skips.
    std::uint64_t link_updates = 0;
    /// Links the simulator actually recomputed (the active set per tick);
    /// the idle remainder stayed at its fixed point.
    std::uint64_t links_visited = 0;
  };
  [[nodiscard]] const ControlStats& control_stats() const noexcept {
    return control_stats_;
  }

  // --- epoch notification ----------------------------------------------------
  /// Invoked at the end of every tick(), after all link rates and per-flow
  /// allocations have settled. The fluid engine hooks this to re-rate its
  /// analytic flows from the fresh allocations (docs/fluid_engine.md).
  void set_epoch_callback(std::function<void()> fn) {
    on_epoch_ = std::move(fn);
  }

  // --- SLA -------------------------------------------------------------------
  void set_sla_callback(SlaViolationFn fn) { on_sla_ = std::move(fn); }
  [[nodiscard]] std::uint64_t sla_violations() const noexcept {
    return total_sla_violations_;
  }
  [[nodiscard]] std::uint64_t sla_violations(net::LinkId l) const {
    return links_.at(l.index()).sla_violations;
  }

  [[nodiscard]] const ScdaParams& params() const noexcept { return params_; }

 private:
  struct LinkState {
    sim::BitRate rate{};      ///< R_l(t), per-flow fair share
    sim::BitRate gamma{};     ///< effective capacity this tick
    sim::BitRate rate_sum{};  ///< S_l(t), total flow demand
    sim::BitRate share_sum{}; ///< S minus reserved portions (shared demand)
    sim::BitRate reserved{};  ///< sum of M_j over flows crossing the link
    double nhat = 0;          ///< effective flow count (dimensionless)
    std::uint32_t flows = 0;  ///< registered flows whose path crosses it
    bool down = false;        ///< link failed: rate/gamma pinned to zero
    std::uint64_t sla_violations = 0;
  };

  /// Put link `l` in the active set: the next tick recomputes it.
  void activate(std::size_t l) noexcept {
    active_[l / 64] |= std::uint64_t{1} << (l % 64);
  }
  /// Visit the active links in ascending index. Bits that `fn` sets above
  /// the current link are picked up by the same walk, so a callback that
  /// activates a later link (an SLA handler registering a flow) sees it
  /// recomputed this round, as a walk over every link would.
  template <typename Fn>
  void for_each_active(Fn&& fn) {
    for (std::size_t w = 0; w < active_.size(); ++w) {
      std::uint64_t bits = active_[w];
      while (bits != 0) {
        const int b = std::countr_zero(bits);
        fn(w * 64 + static_cast<std::size_t>(b));
        bits = active_[w] & ~((std::uint64_t{2} << b) - 1);
      }
    }
  }

  // --- dense struct-of-arrays flow table -------------------------------------
  // Flow state lives in slot-parallel arrays (the dense-table layout that
  // made water_fill ~8x, docs/perf.md): the per-tick passes stream through
  // contiguous doubles instead of chasing unordered_map nodes. Slots are
  // recycled through a free list — a recycled slot keeps its path vector's
  // capacity, so steady register/unregister churn stops allocating once the
  // pool reaches the peak concurrent flow count.
  //
  // Iteration order is the sorted (FlowId -> slot) index `by_id_`, which
  // makes every accumulation pass ascending-id deterministic — portable
  // across standard libraries, unlike the unordered_map iteration order the
  // previous implementation (and every pre-integer-time baseline) depended
  // on. Ids are issued monotonically, so the common insert is a push_back
  // and the index rarely memmoves.
  struct IndexEntry {
    net::FlowId id;
    std::uint32_t slot;
  };
  static constexpr std::size_t kNoRow = static_cast<std::size_t>(-1);

  /// Position of `id` in by_id_, or kNoRow (binary search).
  [[nodiscard]] std::size_t find_row(net::FlowId id) const noexcept;
  /// Take a slot from the free list or grow every parallel array by one.
  [[nodiscard]] std::uint32_t acquire_slot();

  net::Network& net_;
  ScdaParams params_;
  std::vector<LinkState> links_;
  /// Active-link bitset (bit l%64 of word l/64): links whose state may
  /// differ from their idle fixed point. tick() first ORs in the Network's
  /// dirty-link set.
  std::vector<std::uint64_t> active_;

  std::vector<IndexEntry> by_id_;          ///< sorted ascending by flow id
  std::vector<std::uint32_t> free_slots_;  ///< recycled table rows
  // Slot-parallel flow state (indexed by IndexEntry::slot).
  std::vector<double> priority_;            ///< weights (dimensionless)
  std::vector<sim::BitRate> reserved_;      ///< M_j reservations
  std::vector<sim::BitRate> rate_;          ///< r_j from the last tick
  std::vector<std::vector<net::LinkId>> path_;
  std::vector<RateProviderFn> r_other_send_;
  std::vector<RateProviderFn> r_other_recv_;

  SlaViolationFn on_sla_;
  std::function<void()> on_epoch_;
  std::uint64_t total_sla_violations_ = 0;
  ControlStats control_stats_;
};

}  // namespace scda::core
