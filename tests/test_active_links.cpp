// Property tests for the allocator's active-link set: a link the tick skips
// must hold exactly what a walk over every link would have computed.
//
// The oracle below is an independent re-implementation of the full RM/RA
// recurrence (eqs. 2-5 over every link, every tick, no skipping), kept in
// plain doubles. A seeded random schedule drives the RateAllocator and the
// oracle side by side through registrations, reservations, priority
// changes, link failures (through the allocator and on the Link itself),
// packets on links no flow crosses, error-model drops, fluid bytes and SLA
// capacity boosts; after every step each link's and flow's outputs must be
// bit-identical (==, no tolerance) under both rate metrics.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <functional>
#include <limits>
#include <map>
#include <set>
#include <tuple>
#include <vector>

#include "core/rate_allocator.h"
#include "net/fat_tree.h"
#include "net/topology.h"
#include "sim/simulator.h"
#include "transport/fluid.h"
#include "workload/generators.h"

namespace scda::core {
namespace {

/// The full recurrence, every link every round — what RateAllocator::tick
/// computed before it tracked active links.
class FullWalkOracle {
 public:
  FullWalkOracle(net::Network& net, const ScdaParams& p)
      : net_(net), p_(p), links_(net.link_count()) {
    for (std::size_t l = 0; l < links_.size(); ++l) {
      const double c = capacity(l);
      links_[l].rate = p_.alpha * c;
      links_[l].gamma = p_.alpha * c;
    }
  }

  void register_flow(net::FlowId id, std::vector<net::LinkId> path,
                     double priority, double reserved,
                     RateAllocator::RateProviderFn send) {
    for (const net::LinkId l : path) {
      Link& st = links_[l.index()];
      st.reserved += reserved;
      st.nhat += priority;
      if (st.down) continue;
      const double shareable = std::max(st.gamma - st.reserved, min_rate());
      st.rate = clamp(shareable / std::max(st.nhat, 1.0), min_rate(),
                      shareable);
    }
    const double rate = reserved + priority * path_rate(path);
    flows_[id] = Flow{std::move(path), priority, reserved, rate,
                      std::move(send)};
  }

  void unregister_flow(net::FlowId id) {
    const auto it = flows_.find(id);
    for (const net::LinkId l : it->second.path)
      links_[l.index()].reserved -= it->second.reserved;
    flows_.erase(it);
  }

  void set_priority(net::FlowId id, double priority) {
    flows_.at(id).priority = std::max(priority, 0.0);
  }

  void set_link_up(net::LinkId l, bool up) {
    Link& st = links_[l.index()];
    st.down = !up;
    st.rate = up ? p_.alpha * capacity(l.index()) : 0.0;
    st.gamma = st.rate;
  }

  /// One round. Reads the interval byte counter without resetting it: the
  /// allocator under test takes it right after.
  void tick() {
    for (std::size_t l = 0; l < links_.size(); ++l) {
      Link& st = links_[l];
      const net::Link& link = net_.link(net::LinkId::from_index(l));
      st.down = !link.up();
      st.rate_sum = 0;
      st.share_sum = 0;
      if (st.down) {
        st.gamma = 0;
        st.rate = 0;
        continue;
      }
      st.gamma = p_.alpha * capacity(l) -
                 p_.beta * static_cast<double>(link.queue_bytes() * 8) /
                     p_.tau;
    }

    for (auto& [id, f] : flows_) {  // ascending flow id
      double base = std::numeric_limits<double>::infinity();
      bool down = false;
      for (const net::LinkId l : f.path) {
        down = down || links_[l.index()].down;
        base = std::min(base, links_[l.index()].rate);
      }
      if (!std::isfinite(base)) base = 0;
      double r = f.reserved + f.priority * base;
      if (f.send) r = std::min(r, f.send().bps());
      f.rate = down ? 0.0 : std::max(r, min_rate());
      const double share = std::max(0.0, f.rate - f.reserved);
      for (const net::LinkId l : f.path) {
        links_[l.index()].rate_sum += f.rate;
        links_[l.index()].share_sum += share;
      }
    }

    for (std::size_t l = 0; l < links_.size(); ++l) {
      Link& st = links_[l];
      if (st.down) {
        st.nhat = 0;
        continue;
      }
      const double gamma =
          std::max(std::max(st.gamma - st.reserved, min_rate()), min_rate());
      if (p_.metric == RateMetricKind::kExact) {
        st.nhat = flows_over(st.share_sum, st.rate);
        st.rate = st.nhat <= 1e-12
                      ? gamma
                      : clamp(gamma / st.nhat, min_rate(), gamma);
      } else {
        const double lambda =
            static_cast<double>(
                net_.link(net::LinkId::from_index(l)).interval_arrived_bytes() *
                8) /
            p_.tau;
        st.nhat = flows_over(lambda, st.rate);
        st.rate = lambda <= 1e-12
                      ? gamma
                      : clamp(gamma * st.rate / lambda, min_rate(), gamma);
      }
      if (st.rate_sum > st.gamma) ++st.sla_violations;
    }
  }

  [[nodiscard]] double link_rate(std::size_t l) const {
    return links_[l].rate;
  }
  [[nodiscard]] double link_gamma(std::size_t l) const {
    return links_[l].gamma;
  }
  [[nodiscard]] double link_rate_sum(std::size_t l) const {
    return links_[l].rate_sum;
  }
  [[nodiscard]] std::uint64_t sla_violations(std::size_t l) const {
    return links_[l].sla_violations;
  }
  [[nodiscard]] double prospective_link_rate(std::size_t l,
                                             double priority) const {
    const Link& st = links_[l];
    if (st.down) return 0;
    const double shareable = std::max(st.gamma - st.reserved, min_rate());
    return clamp(shareable / std::max(st.nhat + priority, 1.0), min_rate(),
                 shareable);
  }
  [[nodiscard]] double flow_rate(net::FlowId id) const {
    return flows_.at(id).rate;
  }

 private:
  struct Link {
    double rate = 0, gamma = 0, rate_sum = 0, share_sum = 0, reserved = 0;
    double nhat = 0;
    bool down = false;
    std::uint64_t sla_violations = 0;
  };
  struct Flow {
    std::vector<net::LinkId> path;
    double priority = 1;
    double reserved = 0;
    double rate = 0;
    RateAllocator::RateProviderFn send;
  };

  static double clamp(double v, double lo, double hi) {
    return std::min(std::max(v, lo), hi);
  }
  static double flows_over(double sum, double prev_rate) {
    return prev_rate <= 0 ? 0.0 : sum / prev_rate;
  }
  [[nodiscard]] double capacity(std::size_t l) const {
    return net_.link(net::LinkId::from_index(l)).capacity().bps();
  }
  [[nodiscard]] double min_rate() const { return p_.min_rate.bps(); }
  [[nodiscard]] double path_rate(const std::vector<net::LinkId>& path) const {
    double r = std::numeric_limits<double>::infinity();
    for (const net::LinkId l : path) r = std::min(r, links_[l.index()].rate);
    return std::isfinite(r) ? r : 0.0;
  }

  net::Network& net_;
  ScdaParams p_;
  std::vector<Link> links_;
  std::map<net::FlowId, Flow> flows_;
};

class ActiveLinkEquivalence
    : public ::testing::TestWithParam<std::tuple<RateMetricKind, int>> {};

TEST_P(ActiveLinkEquivalence, SkippedLinksMatchFullWalk) {
  const auto [metric, seed] = GetParam();
  sim::Simulator sim(static_cast<std::uint64_t>(seed));
  sim::Rng rng(static_cast<std::uint64_t>(seed) * 7919 + 1);
  sim::Rng loss_rng(static_cast<std::uint64_t>(seed) + 17);

  net::TopologyConfig tc;
  tc.n_agg = 2;
  tc.tors_per_agg = 2;
  tc.servers_per_tor = 3;
  tc.n_clients = 4;
  tc.base_bps = sim::BitRate{100e6};
  net::ThreeTierTree topo(sim, tc);
  net::Network& net = topo.net();
  const auto n_links = static_cast<std::int64_t>(net.link_count());

  ScdaParams params;
  params.metric = metric;
  RateAllocator alloc(net, params);
  FullWalkOracle oracle(net, params);

  // SLA mitigation (section IV-A): boost a violating link's capacity from
  // inside the tick, as SlaManager does.
  int boosts = 0;
  alloc.set_sla_callback(
      [&](net::LinkId l, sim::BitRate, sim::BitRate, sim::Time) {
        if (boosts >= 6) return;
        ++boosts;
        net.link(l).set_capacity(1.25 * net.link(l).capacity());
      });
  const auto random_link = [&] {
    return net::LinkId::from_index(
        static_cast<std::size_t>(rng.uniform_int(0, n_links - 1)));
  };
  // One lossy link: offered bytes count in L(t) even when dropped.
  const net::LinkId lossy = random_link();
  net.link(lossy).set_error_model(0.5, &loss_rng);
  std::vector<net::FlowId> live;
  std::int64_t next_id = 0;

  const auto expect_equal = [&](int step) {
    for (std::size_t l = 0; l < net.link_count(); ++l) {
      const auto id = net::LinkId::from_index(l);
      ASSERT_EQ(alloc.link_rate(id).bps(), oracle.link_rate(l))
          << "link " << l << " step " << step;
      ASSERT_EQ(alloc.link_gamma(id).bps(), oracle.link_gamma(l))
          << "link " << l << " step " << step;
      ASSERT_EQ(alloc.link_rate_sum(id).bps(), oracle.link_rate_sum(l))
          << "link " << l << " step " << step;
      ASSERT_EQ(alloc.prospective_link_rate(id).bps(),
                oracle.prospective_link_rate(l, 1.0))
          << "link " << l << " step " << step;
      ASSERT_EQ(alloc.prospective_link_rate(id, 2.5).bps(),
                oracle.prospective_link_rate(l, 2.5))
          << "link " << l << " step " << step;
      ASSERT_EQ(alloc.sla_violations(id), oracle.sla_violations(l))
          << "link " << l << " step " << step;
    }
    for (const net::FlowId f : live)
      ASSERT_EQ(alloc.flow_rate(f).bps(), oracle.flow_rate(f))
          << "flow " << f.value() << " step " << step;
  };

  std::uint64_t visited_before = 0;
  for (int step = 0; step < 400; ++step) {
    sim.run_until(sim.now() + sim::secs(params.tau));  // drains queues
    const auto ops = rng.uniform_int(0, 4);
    for (std::int64_t op = 0; op < ops; ++op) {
      switch (rng.uniform_int(0, 8)) {
        case 0:
        case 1: {  // register, sometimes with a reservation or R_other cap
          const auto c = static_cast<std::size_t>(rng.uniform_int(
              0, static_cast<std::int64_t>(topo.clients().size()) - 1));
          const auto s = static_cast<std::size_t>(rng.uniform_int(
              0, static_cast<std::int64_t>(topo.servers().size()) - 1));
          const bool upload = rng.bernoulli(0.5);
          const net::NodeId client = topo.clients()[c];
          const net::NodeId server = topo.servers()[s];
          const net::NodeId src = upload ? client : server;
          const net::NodeId dst = upload ? server : client;
          const double priority = static_cast<double>(rng.uniform_int(1, 3));
          const sim::BitRate reserved{
              rng.bernoulli(0.3) ? rng.uniform(1e6, 60e6) : 0.0};
          RateAllocator::RateProviderFn cap;
          if (rng.bernoulli(0.2)) {
            const sim::BitRate limit{rng.uniform(1e6, 20e6)};
            cap = [limit] { return limit; };
          }
          const net::FlowId id{next_id++};
          oracle.register_flow(id, net.path(src, dst), priority,
                               reserved.bps(), cap);
          alloc.register_flow(id, src, dst, priority, reserved, cap);
          live.push_back(id);
          break;
        }
        case 2: {  // unregister
          if (live.empty()) break;
          const auto i = static_cast<std::size_t>(rng.uniform_int(
              0, static_cast<std::int64_t>(live.size()) - 1));
          oracle.unregister_flow(live[i]);
          alloc.unregister_flow(live[i]);
          live.erase(live.begin() + static_cast<std::ptrdiff_t>(i));
          break;
        }
        case 3: {  // allocator-side failure state
          const net::LinkId l = random_link();
          const bool up = rng.bernoulli(0.6);
          oracle.set_link_up(l, up);
          alloc.set_link_up(l, up);
          break;
        }
        case 4:  // the Link itself goes down or comes back
          net.link(random_link()).set_up(rng.bernoulli(0.7));
          break;
        case 5: {  // a packet burst, usually on a link no flow crosses
          const bool on_lossy = rng.bernoulli(0.3);
          net::Link& link = net.link(on_lossy ? lossy : random_link());
          const auto n = rng.uniform_int(1, 30);
          for (std::int64_t k = 0; k < n; ++k)
            (void)link.enqueue(net::make_data(net::FlowId{1'000'000},
                                              link.from(), link.to(), k * 1460,
                                              1460, sim.now()));
          break;
        }
        case 6:  // fluid bytes charged analytically
          net.link(random_link()).add_fluid_bytes(rng.uniform_int(1, 200000));
          break;
        case 7: {  // priority change
          if (live.empty()) break;
          const net::FlowId f = live[static_cast<std::size_t>(rng.uniform_int(
              0, static_cast<std::int64_t>(live.size()) - 1))];
          const double priority = rng.uniform(0.5, 4.0);
          oracle.set_priority(f, priority);
          alloc.set_priority(f, priority);
          break;
        }
        case 8: {  // capacity switched in or out, usually on an idle link
          net::Link& link = net.link(random_link());
          const double scale = rng.uniform(0.8, 1.25);
          link.set_capacity(scale * link.capacity());
          break;
        }
        default:
          break;
      }
    }
    expect_equal(step);  // immediate feedback of the admissions
    if (HasFatalFailure()) return;

    oracle.tick();
    alloc.tick();
    expect_equal(step);
    if (HasFatalFailure()) return;

    const std::uint64_t visited = alloc.control_stats().links_visited;
    EXPECT_LE(visited - visited_before, net.link_count());
    visited_before = visited;
  }
  EXPECT_GT(boosts, 0) << "schedule never exercised an SLA boost";
  EXPECT_GT(net.link(lossy).stats().dropped_packets, 0u)
      << "schedule never exercised an error-model drop";
  EXPECT_LT(alloc.control_stats().links_visited,
            alloc.control_stats().link_updates)
      << "no link was ever skipped";
  EXPECT_EQ(alloc.control_stats().link_updates,
            alloc.control_stats().ticks * net.link_count());
}

INSTANTIATE_TEST_SUITE_P(
    Schedules, ActiveLinkEquivalence,
    ::testing::Combine(::testing::Values(RateMetricKind::kExact,
                                        RateMetricKind::kSimplified),
                       ::testing::Values(1, 2, 3, 4, 5)));

/// splitmix64 fold (as in bench_scale) over completion (id, time) pairs.
std::uint64_t mix(std::uint64_t h, std::uint64_t v) {
  std::uint64_t x = h ^ (v + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2));
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

// A k=8 fat-tree (800 links, analytic paths) through a loaded phase and a
// near-idle one. Each tick may only visit links crossed by a live flow or
// touched (a flow started or finished on it) since the previous tick, and
// the idle ticks must visit a small fraction of the fabric. The completion
// checksum is the one the walk over every link produced.
TEST(ActiveLinks, IdleTicksVisitOnlyTouchedLinks) {
  sim::Simulator sim(11);
  net::FatTreeConfig tc;
  tc.k = 8;
  tc.n_clients = 0;
  tc.build_routes = false;
  net::FatTree ft(sim, tc);
  const std::size_t n_links = ft.net().link_count();

  ScdaParams params;
  RateAllocator alloc(ft.net(), params);
  transport::FluidEngine fluid(ft.net());

  workload::ScaleWorkloadConfig wc;
  wc.min_bytes = 1'000'000;
  wc.cap_bytes = 20'000'000;
  workload::ScaleWorkload gen(wc);

  std::map<net::FlowId, std::vector<net::LinkId>> live;
  std::set<std::size_t> touched;  // links whose flow set changed
  std::uint64_t checksum = 0, completed = 0;
  fluid.set_completion_callback([&](net::FlowId id) {
    alloc.unregister_flow(id);
    for (const net::LinkId l : live.at(id)) touched.insert(l.index());
    live.erase(id);
    ++completed;
    checksum = mix(checksum, static_cast<std::uint64_t>(id.value()));
    checksum = mix(checksum, static_cast<std::uint64_t>(sim.now().nanos()));
  });
  alloc.set_epoch_callback([&] {
    fluid.rerate_all([&](net::FlowId id) { return alloc.flow_rate(id); },
                     /*epoch=*/true);
  });

  const sim::Time loaded_end = sim::secs(2.0);
  const sim::Time arrival_end = sim::secs(6.0);
  std::uint64_t idle_ticks = 0, idle_visited = 0;
  std::size_t idle_peak = 0;
  sim::PeriodicProcess control(sim, sim::secs(params.tau), [&] {
    std::set<std::size_t> bound = touched;
    for (const auto& [id, path] : live)
      for (const net::LinkId l : path) bound.insert(l.index());
    touched.clear();
    const std::uint64_t before = alloc.control_stats().links_visited;
    alloc.tick();
    const std::uint64_t visited = alloc.control_stats().links_visited - before;
    if (alloc.control_stats().ticks == 1) {
      EXPECT_EQ(visited, n_links);  // the first round settles every link
      return;
    }
    EXPECT_LE(visited, bound.size()) << "at " << sim.now().seconds() << " s";
    if (sim.now() > loaded_end + sim::secs(1.0) && sim.now() < arrival_end) {
      ++idle_ticks;
      idle_visited += visited;
      idle_peak = std::max(idle_peak, static_cast<std::size_t>(visited));
    }
  });
  control.start(sim::secs(params.tau));

  std::int64_t next_id = 0;
  std::function<void()> arrive = [&] {
    const auto n_servers = static_cast<std::int64_t>(ft.servers().size());
    const auto src = static_cast<std::size_t>(
        sim.rng().uniform_int(0, n_servers - 1));
    auto dst = static_cast<std::size_t>(
        sim.rng().uniform_int(0, n_servers - 2));
    if (dst >= src) ++dst;
    const workload::FlowRequest req = gen.next(sim.rng());
    const net::FlowId id{next_id++};
    const std::vector<net::LinkId> path = ft.server_path(src, dst, id);
    alloc.register_flow_on_path(id, path);
    for (const net::LinkId l : path) touched.insert(l.index());
    live[id] = path;
    fluid.start(id, req.size_bytes, alloc.path_rate(path), path);
    // 400 flows/s while loaded, then 4 flows/s.
    const double gap =
        req.inter_arrival_s * (sim.now() < loaded_end ? 25.0 : 2500.0);
    const sim::Time next = sim.now() + sim::secs(gap);
    if (next < arrival_end) sim.post_at(next, arrive);
  };
  sim.post_at(sim::Time{}, arrive);
  sim.run_until(sim::secs(10.0));
  control.stop();

  EXPECT_EQ(completed, static_cast<std::uint64_t>(next_id));
  EXPECT_TRUE(live.empty());
  ASSERT_GT(idle_ticks, 0u);
  // Near idle, a round recomputes a few flows' paths, not the fabric.
  EXPECT_LT(idle_peak * 8, n_links) << "peak links visited per idle tick";
  EXPECT_LT(idle_visited * 20, idle_ticks * n_links)
      << "mean links visited per idle tick";
  EXPECT_EQ(alloc.control_stats().link_updates,
            alloc.control_stats().ticks * n_links);
  // The walk over every link (before the active set) produced this history.
  EXPECT_EQ(completed, 826u);
  EXPECT_EQ(checksum, 0x7dbd74459da2effaULL);
}

}  // namespace
}  // namespace scda::core
