#include "workloads.h"

#include <algorithm>
#include <chrono>
#include <functional>
#include <limits>
#include <memory>

#include "core/cloud.h"
#include "core/rate_allocator.h"
#include "net/fat_tree.h"
#include "obs/metrics.h"
#include "sim/failure_schedule.h"
#include "sim/simulator.h"
#include "stats/metrics_collect.h"
#include "stats/perf.h"
#include "transport/fluid.h"
#include "workload/generators.h"

namespace perfbench {

using namespace scda;

namespace {

/// The drive loop checks its stop condition every half simulated second;
/// the same boundaries in the timed and the traced run.
constexpr std::int64_t kChunkNs = 500'000'000;
/// Relative tolerance of the allocator cross-checks.
constexpr double kRelTol = 1e-9;

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// splitmix64 fold for the completion digest.
std::uint64_t fold(std::uint64_t h, std::uint64_t v) {
  std::uint64_t x = h ^ (v + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2));
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// Independent random stream per purpose, derived from the run's seed.
std::uint64_t stream_seed(std::uint64_t seed, std::uint64_t tag) {
  return sim::churn_mix(seed ^ sim::churn_mix(tag));
}

enum StreamTag : std::uint64_t {
  kOpsStream = 1,
  kSimStream = 2,
  kFlowStream = 3,
};

struct DriveResult {
  std::uint64_t events = 0;
  double wall_s = 0;
};

/// Run the simulation in half-second chunks until `done()` holds at a
/// chunk boundary at or past `arrivals_end`, or the clock reaches
/// `max_end`. Traced, each chunk is cut further so that every control
/// instant k*tau ends a run_until call holding only that instant's events;
/// that call's span is the control tick as seen from outside. Stepping
/// never changes the simulation: nothing outside it posts events.
DriveResult drive(sim::Simulator& sim, sim::Time arrivals_end,
                  sim::Time max_end, sim::Time tau, Spans& spans,
                  const std::function<bool()>& done) {
  DriveResult r;
  const auto t0 = Clock::now();
  const std::int64_t tau_ns = tau.nanos();
  std::int64_t t = sim.now().nanos();
  while (t < max_end.nanos()) {
    const std::int64_t next = std::min(t + kChunkNs, max_end.nanos());
    if (!spans.enabled()) {
      r.events += sim.run_until(sim::Time::from_nanos(next));
    } else {
      for (std::int64_t c = (t / tau_ns + 1) * tau_ns; c <= next;
           c += tau_ns) {
        {
          Span s(spans, "sim.run_until");
          r.events += sim.run_until(sim::Time::from_nanos(c - 1));
        }
        Span s(spans, "core.control.tick");
        r.events += sim.run_until(sim::Time::from_nanos(c));
      }
      if (sim.now().nanos() < next) {
        Span s(spans, "sim.run_until");
        r.events += sim.run_until(sim::Time::from_nanos(next));
      }
    }
    t = next;
    if (t >= arrivals_end.nanos() && done()) break;
  }
  r.wall_s = seconds_since(t0);
  return r;
}

/// Event-kernel and packet-path counters shared by every workload.
void kernel_counts(std::map<std::string, double>& c, const sim::Simulator& sim,
                   const net::Network& net, std::uint64_t events) {
  const stats::CorePerf p = stats::collect_core_perf(sim, net);
  std::uint64_t tx = 0, dropped = 0;
  for (std::size_t i = 0; i < net.link_count(); ++i) {
    const net::LinkStats& ls = net.link(net::LinkId::from_index(i)).stats();
    tx += ls.tx_packets;
    dropped += ls.dropped_packets;
  }
  c["sim.events"] = static_cast<double>(events);
  c["sim.events_cancelled"] = static_cast<double>(p.events_cancelled);
  c["sim.callbacks_heap"] = static_cast<double>(p.callbacks_heap);
  c["sim.heap_hwm"] = static_cast<double>(p.heap_hwm);
  c["net.tx_packets"] = static_cast<double>(tx);
  c["net.dropped_packets"] = static_cast<double>(dropped);
  c["net.link_pool_slots"] = static_cast<double>(p.link_pool_slots);
  c["net.queue_hwm"] = static_cast<double>(p.link_queue_hwm);
}

void alloc_counts(std::map<std::string, double>& c,
                  const core::RateAllocator& alloc,
                  const transport::FluidEngine& fluid) {
  c["transport.fluid_rerates"] = static_cast<double>(fluid.stats().rerates);
  c["core.alloc.link_updates"] =
      static_cast<double>(alloc.control_stats().link_updates);
  c["core.alloc.flow_updates"] =
      static_cast<double>(alloc.control_stats().flow_updates);
}

/// Per-layer counters of a Cloud run, read through public getters and the
/// metrics snapshot after the drain.
std::map<std::string, double> cloud_counts(sim::Simulator& sim,
                                           core::Cloud& cloud,
                                           std::uint64_t events,
                                           std::uint64_t replications) {
  std::map<std::string, double> c;
  kernel_counts(c, sim, cloud.topology().net(), events);
  alloc_counts(c, cloud.allocator(), cloud.transports().fluid());
  obs::MetricsRegistry reg;
  stats::collect_run_metrics(reg, sim, cloud);
  const obs::MetricsSnapshot snap = reg.snapshot();
  c["transport.data_packets_sent"] = snap.value("transport.data_packets_sent");
  c["transport.retransmits"] = snap.value("transport.retransmits");
  c["core.cloud.replication_flows"] = static_cast<double>(replications);
  c["core.metadata.failovers"] =
      static_cast<double>(cloud.meta_stats().failovers);
  c["core.metadata.mirror_updates"] =
      static_cast<double>(cloud.meta_stats().mirror_updates);
  return c;
}

/// Sum two arms' counters; high-water marks and pool sizes take the max.
void merge_counts(std::map<std::string, double>& into,
                  const std::map<std::string, double>& from) {
  for (const auto& [k, v] : from) {
    const bool peak = k.find("hwm") != std::string::npos ||
                      k.find("pool_slots") != std::string::npos;
    into[k] = peak ? std::max(into[k], v) : into[k] + v;
  }
}

// --- client operations (packet_pareto, storage_churn) ----------------------

/// One generated client request. Whether a read finds content to read is
/// decided when it is issued: it reads the completed write at position
/// `pick` of the completion order, and becomes a write while none has
/// completed yet (the first arrivals of a run).
struct ClientOp {
  std::int64_t at_ns = 0;
  std::int32_t client = 0;
  bool read = false;
  double pick = 0;
  std::int64_t bytes = 0;
};

/// Pareto sizes (mean 500 KB, shape 1.6) and Poisson arrivals at `rate`
/// over [0, window_s), from the repo's ParetoPoissonWorkload.
std::vector<ClientOp> pareto_ops(std::uint64_t seed, double rate,
                                 double window_s, double read_fraction,
                                 std::int32_t clients) {
  workload::ParetoPoissonConfig wc;
  wc.arrival_rate = rate;
  workload::ParetoPoissonWorkload gen(wc);
  sim::Rng rng(stream_seed(seed, kOpsStream));
  std::vector<ClientOp> ops;
  std::int64_t t = 0;
  const std::int64_t end = sim::secs(window_s).nanos();
  for (;;) {
    const workload::FlowRequest req = gen.next(rng);
    t += sim::secs(req.inter_arrival_s).nanos();
    if (t >= end) break;
    ClientOp op;
    op.at_ns = t;
    op.client = static_cast<std::int32_t>(rng.uniform_int(0, clients - 1));
    op.read = rng.bernoulli(read_fraction);
    op.pick = rng.uniform();
    op.bytes = req.size_bytes;
    ops.push_back(op);
  }
  return ops;
}

/// Issues ClientOps into a Cloud at their generated times and keeps the
/// benchmark's own record of what it issued.
class ClientIssuer {
 public:
  ClientIssuer(core::Cloud& cloud, const std::vector<ClientOp>& ops,
               Spans& spans)
      : cloud_(cloud), ops_(ops), spans_(spans),
        size_of_(ops.size() + 1, 0) {}

  void start() {
    if (!ops_.empty()) post_next();
  }
  /// A client write completed: its content becomes readable.
  void on_written(core::ContentId id) { readable_.push_back(id); }

  [[nodiscard]] bool all_issued() const { return next_ == ops_.size(); }
  [[nodiscard]] std::uint64_t writes() const { return writes_; }
  [[nodiscard]] std::uint64_t reads() const { return reads_; }
  [[nodiscard]] std::int64_t issued_bytes() const { return issued_bytes_; }
  /// Bytes the benchmark wrote under `id` (0 if it never did).
  [[nodiscard]] std::int64_t size_of(core::ContentId id) const {
    const auto i = static_cast<std::size_t>(id);
    return i < size_of_.size() ? size_of_[i] : 0;
  }
  [[nodiscard]] const std::vector<core::ContentId>& written() const {
    return readable_;
  }

 private:
  void post_next() {
    cloud_.sim().post_at(sim::Time::from_nanos(ops_[next_].at_ns),
                         [this] { issue(); });
  }

  void issue() {
    const ClientOp& op = ops_[next_++];
    const auto client = static_cast<std::size_t>(op.client);
    // A request the Cloud rejects outright never completes, so it shows
    // as issued but not completed in the checks.
    if (op.read && !readable_.empty()) {
      const auto n = readable_.size();
      const auto i = std::min(
          static_cast<std::size_t>(op.pick * static_cast<double>(n)), n - 1);
      const core::ContentId id = readable_[i];
      ++reads_;
      issued_bytes_ += size_of(id);
      Span s(spans_, "core.cloud.read");
      (void)cloud_.read(client, id);
    } else {
      const core::ContentId id = next_id_++;
      size_of_[static_cast<std::size_t>(id)] = op.bytes;
      ++writes_;
      issued_bytes_ += op.bytes;
      Span s(spans_, "core.cloud.write");
      (void)cloud_.write(client, id, op.bytes);
    }
    if (next_ < ops_.size()) post_next();
  }

  core::Cloud& cloud_;
  const std::vector<ClientOp>& ops_;
  Spans& spans_;
  std::size_t next_ = 0;
  core::ContentId next_id_ = 1;
  std::vector<std::int64_t> size_of_;  ///< by content id
  std::vector<core::ContentId> readable_;  ///< completion order
  std::uint64_t writes_ = 0;
  std::uint64_t reads_ = 0;
  std::int64_t issued_bytes_ = 0;
};

// --- packet_pareto ---------------------------------------------------------

struct ArmRun {
  double setup_s = 0;
  DriveResult drive;
  double end_s = 0;  ///< simulated time at the end of the drain
  std::uint64_t digest = 0;
  ArmEvidence ev;
  std::map<std::string, double> counts;
};

ArmRun run_arm(const std::vector<ClientOp>& ops, core::PlacementPolicy place,
               transport::TransportKind transport, std::uint64_t sim_seed,
               double window_s, double max_drain_s, Spans& spans) {
  ArmRun a;
  const auto t0 = Clock::now();
  sim::Simulator sim(sim_seed);
  core::CloudConfig cc;
  cc.topology.base_bps = sim::BitRate{200e6};  // X = 200 Mbps (paper X-B)
  cc.topology.k_factor = 3.0;
  cc.topology.n_clients = 64;
  cc.placement = place;
  cc.transport = transport;
  cc.enable_replication = false;  // as in the figure benches
  const auto cloud = [&] {
    Span s(spans, "core.cloud.build");
    return std::make_unique<core::Cloud>(sim, cc);
  }();
  const net::Network& net = cloud->topology().net();
  double fastest_bps = 0;
  for (std::size_t l = 0; l < net.link_count(); ++l)
    fastest_bps = std::max(
        fastest_bps, net.link(net::LinkId::from_index(l)).capacity().bps());
  ClientIssuer issuer(*cloud, ops, spans);
  cloud->add_completion_callback([&](const transport::FlowRecord& rec,
                                     const core::CloudOp& op) {
    a.digest = fold(fold(a.digest, static_cast<std::uint64_t>(rec.id.value())),
                    static_cast<std::uint64_t>(sim.now().nanos()));
    if (op.client < 0) return;
    if (op.kind == core::CloudOp::Kind::kWrite) issuer.on_written(op.content);
    a.ev.done.push_back(Completion{rec.id.value(), rec.size_bytes,
                                   rec.start_time.nanos(),
                                   rec.finish_time.nanos(), fastest_bps});
  });
  issuer.start();
  a.setup_s = seconds_since(t0);

  a.drive = drive(sim, sim::secs(window_s), sim::secs(window_s + max_drain_s),
                  sim::secs(cc.params.tau), spans, [&] {
                    return issuer.all_issued() &&
                           a.ev.done.size() == issuer.writes() + issuer.reads();
                  });

  a.end_s = sim.now().seconds();
  a.ev.issued = ops.size();
  a.ev.issued_bytes = issuer.issued_bytes();
  a.counts = cloud_counts(sim, *cloud, a.drive.events, 0);
  return a;
}

}  // namespace

std::vector<CheckResult> packet_checks(const PacketEvidence& e) {
  std::vector<CheckResult> out;
  const std::pair<const char*, const ArmEvidence*> arms[] = {
      {"scda", &e.scda}, {"randtcp", &e.rand}};
  for (const auto& [arm, ev] : arms) {
    const std::string tag = std::string(".") + arm;
    out.push_back(check_all_complete("all_ops_complete" + tag, ev->issued,
                                     ev->done.size()));
    out.push_back(
        check_bytes_equal("bytes_as_issued" + tag, ev->issued_bytes, ev->done));
    out.push_back(check_fct_lower_bound("fct_above_size_over_fastest_link" + tag,
                                        ev->done));
  }
  out.push_back(
      check_scda_beats_randtcp(summarize(e.scda.done), summarize(e.rand.done)));
  return out;
}

Round run_packet_pareto(std::uint64_t seed, Size size, Spans& spans,
                        PacketEvidence* evidence) {
  // The fig 17/18 experiment with a shortened arrival window. RandTCP's
  // largest transfers can take minutes of simulated time to drain; the
  // drain stops as soon as every operation completed.
  const double window_s = size == Size::kFull ? 3.0 : 1.0;
  const double max_drain_s = 1800.0;
  Round r;
  const auto t0 = Clock::now();
  const std::vector<ClientOp> ops = [&] {
    Span s(spans, "workload.gen");
    return pareto_ops(seed, 200.0, window_s, 0.3, 64);
  }();
  const double gen_s = seconds_since(t0);

  const std::uint64_t sim_seed = stream_seed(seed, kSimStream);
  const ArmRun scda =
      run_arm(ops, core::PlacementPolicy::kScda, transport::TransportKind::kScda,
              sim_seed, window_s, max_drain_s, spans);
  const ArmRun rand =
      run_arm(ops, core::PlacementPolicy::kRandom,
              transport::TransportKind::kTcp, sim_seed, window_s, max_drain_s,
              spans);

  PacketEvidence ev{scda.ev, rand.ev};
  r.setup_s = gen_s + scda.setup_s + rand.setup_s;
  r.run_s = scda.drive.wall_s + rand.drive.wall_s;
  r.attempted = scda.ev.issued + rand.ev.issued;
  r.failed = r.attempted - scda.ev.done.size() - rand.ev.done.size();
  r.digest = fold(scda.digest, rand.digest);
  r.checks = packet_checks(ev);
  const FlowSummary s = summarize(scda.ev.done);
  const FlowSummary t = summarize(rand.ev.done);
  r.results = {{"scda.afct_s", s.mean_fct_s},
               {"scda.goodput_mbps", s.goodput_bps / 1e6},
               {"scda.flows", static_cast<double>(s.flows)},
               {"scda.events", static_cast<double>(scda.drive.events)},
               {"scda.end_s", scda.end_s},
               {"randtcp.afct_s", t.mean_fct_s},
               {"randtcp.goodput_mbps", t.goodput_bps / 1e6},
               {"randtcp.flows", static_cast<double>(t.flows)},
               {"randtcp.events", static_cast<double>(rand.drive.events)},
               {"randtcp.end_s", rand.end_s}};
  r.counts = scda.counts;
  merge_counts(r.counts, rand.counts);
  if (evidence != nullptr) *evidence = std::move(ev);
  return r;
}

// --- fluid_fattree_k32 -----------------------------------------------------

void relink(LinkSample& s) {
  for (std::size_t i = 0; i < s.flows.size(); ++i) s.flows[i].links = &s.paths[i];
}

CheckResult check_sample_rate_sums(const LinkSample& s) {
  return check_link_rate_sums(s.rate_sum, s.flows, kRelTol);
}

CheckResult check_sample_idle_links(const LinkSample& s) {
  return check_idle_links(s.link_rate, s.capacity, s.alpha, s.min_rate,
                          s.flows, kRelTol);
}

std::vector<CheckResult> fluid_checks(const FluidEvidence& e) {
  std::vector<CheckResult> out;
  out.push_back(check_all_complete("started_equals_completed", e.started,
                                   e.completed));
  out.push_back(check_all_complete("every_generated_flow_started",
                                   e.generated, e.started));
  out.push_back(check_bytes_equal("bytes_as_generated", e.generated_bytes,
                                  e.done));
  out.push_back(
      check_fct_lower_bound("fct_above_size_over_path_capacity", e.done));
  out.push_back(e.rate_sums);
  out.push_back(e.idle_links);
  return out;
}

namespace {

struct FlowIn {
  std::int64_t at_ns = 0;
  std::int32_t src = 0;
  std::int32_t dst = 0;
  std::int64_t bytes = 0;
};

struct Phase {
  double rate;
  double start_s;
  double end_s;
};

/// Server-to-server elephants from the repo's ScaleWorkload (bounded
/// Pareto 2-200 MB, shape 1.4), Poisson arrivals per phase, uniform
/// distinct endpoints.
std::vector<FlowIn> fattree_flows(std::uint64_t seed, std::size_t n_servers,
                                  const std::vector<Phase>& phases) {
  sim::Rng rng(stream_seed(seed, kFlowStream));
  const auto n = static_cast<std::int64_t>(n_servers);
  std::vector<FlowIn> out;
  for (const Phase& ph : phases) {
    workload::ScaleWorkloadConfig wc;
    wc.arrival_rate = ph.rate;
    workload::ScaleWorkload gen(wc);
    std::int64_t t = sim::secs(ph.start_s).nanos();
    const std::int64_t end = sim::secs(ph.end_s).nanos();
    for (;;) {
      const workload::FlowRequest req = gen.next(rng);
      t += sim::secs(req.inter_arrival_s).nanos();
      if (t >= end) break;
      FlowIn f;
      f.at_ns = t;
      f.src = static_cast<std::int32_t>(rng.uniform_int(0, n - 1));
      f.dst = static_cast<std::int32_t>(rng.uniform_int(0, n - 2));
      if (f.dst >= f.src) ++f.dst;  // uniform over servers != src
      f.bytes = req.size_bytes;
      out.push_back(f);
    }
  }
  return out;
}

}  // namespace

Round run_fluid_fattree_k32(std::uint64_t seed, Size size, Spans& spans,
                            FluidEvidence* evidence) {
  const bool full = size == Size::kFull;
  const std::int32_t k = full ? 32 : 8;
  const double loaded_s = full ? 8.0 : 1.0;
  const double loaded_rate = full ? 10000.0 : 1000.0;
  const double idle_end_s = loaded_s + (full ? 12.0 : 2.0);
  const double idle_rate = full ? 100.0 : 20.0;
  const std::uint64_t sample_every = full ? 20 : 5;  // ticks
  const double max_drain_s = 120.0;

  Round r;
  const auto t0 = Clock::now();
  sim::Simulator sim(stream_seed(seed, kSimStream));
  net::FatTreeConfig tc;
  tc.k = k;
  tc.n_clients = 0;
  tc.build_routes = false;  // analytic server_path; no O(N^2) tables
  const auto ft = [&] {
    Span s(spans, "net.fattree.build");
    return std::make_unique<net::FatTree>(sim, tc);
  }();
  net::Network& net = ft->net();
  core::ScdaParams params;
  const auto alloc = [&] {
    Span s(spans, "core.alloc.build");
    return std::make_unique<core::RateAllocator>(net, params);
  }();
  transport::FluidEngine fluid(net);
  const std::vector<FlowIn> flows = [&] {
    Span s(spans, "workload.gen");
    return fattree_flows(seed, ft->servers().size(),
                         {{loaded_rate, 0.0, loaded_s},
                          {idle_rate, loaded_s, idle_end_s}});
  }();
  r.setup_s = seconds_since(t0);

  FluidEvidence ev;
  ev.generated = flows.size();
  for (const FlowIn& f : flows) ev.generated_bytes += f.bytes;
  ev.done.reserve(flows.size());
  // Paths as recorded at admission, by flow id; emptied on completion, so
  // a non-empty path marks an active flow.
  std::vector<std::vector<net::LinkId>> paths(flows.size());
  std::vector<std::int64_t> start_ns(flows.size(), 0);
  std::uint64_t digest = 0;
  double check_s = 0;
  std::size_t next = 0;
  std::uint64_t samples = 0, sampled_flows = 0;

  fluid.set_completion_callback([&](net::FlowId id) {
    {
      Span s(spans, "core.alloc.unregister");
      alloc->unregister_flow(id);
    }
    const std::size_t i = id.index();
    const std::int64_t now = sim.now().nanos();
    double slowest = std::numeric_limits<double>::infinity();
    for (const net::LinkId l : paths[i])
      slowest = std::min(slowest, net.link(l).capacity().bps());
    ev.done.push_back(
        Completion{id.value(), flows[i].bytes, start_ns[i], now, slowest});
    ++ev.completed;
    paths[i] = {};
    digest = fold(fold(digest, static_cast<std::uint64_t>(id.value())),
                  static_cast<std::uint64_t>(now));
  });

  std::function<void()> admit = [&] {
    const FlowIn& f = flows[next];
    const net::FlowId id = net::FlowId::from_index(next);
    {
      Span a(spans, "transport.fluid.admit");
      std::vector<net::LinkId> path = [&] {
        Span s(spans, "net.fattree.server_path");
        return ft->server_path(static_cast<std::size_t>(f.src),
                               static_cast<std::size_t>(f.dst), id);
      }();
      sim::BitRate rate;
      {
        Span s(spans, "core.alloc.register");
        alloc->register_flow_on_path(id, path);
        // Seed from what the path offers now; the next epoch settles it.
        rate = alloc->path_rate(path);
      }
      {
        Span s(spans, "transport.fluid.start");
        fluid.start(id, f.bytes, rate, path);
      }
      paths[next] = std::move(path);
    }
    start_ns[next] = sim.now().nanos();
    ++ev.started;
    ++next;
    if (next < flows.size())
      sim.post_at(sim::Time::from_nanos(flows[next].at_ns),
                  [&admit] { admit(); });
  };
  if (!flows.empty())
    sim.post_at(sim::Time::from_nanos(flows[0].at_ns), [&admit] { admit(); });

  const auto sample = [&] {
    LinkSample smp;
    const std::size_t n_links = net.link_count();
    smp.rate_sum.resize(n_links);
    smp.link_rate.resize(n_links);
    smp.capacity.resize(n_links);
    for (std::size_t l = 0; l < n_links; ++l) {
      const auto id = net::LinkId::from_index(l);
      smp.rate_sum[l] = alloc->link_rate_sum(id).bps();
      smp.link_rate[l] = alloc->link_rate(id).bps();
      smp.capacity[l] = net.link(id).capacity().bps();
    }
    smp.alpha = params.alpha;
    smp.min_rate = params.min_rate.bps();
    for (std::size_t i = 0; i < next; ++i) {
      if (paths[i].empty()) continue;
      const auto id = net::FlowId::from_index(i);
      smp.paths.push_back(paths[i]);
      smp.flows.push_back(FlowOnPath{alloc->flow_rate(id).bps(), nullptr});
    }
    relink(smp);
    // Keep the first failure of each check.
    const auto keep = [&](CheckResult& into, CheckResult now) {
      if (samples == 0 || into.ok) into = std::move(now);
    };
    keep(ev.rate_sums, check_sample_rate_sums(smp));
    keep(ev.idle_links, check_sample_idle_links(smp));
    ++samples;
    sampled_flows += smp.flows.size();
    if (evidence != nullptr && !smp.flows.empty())
      ev.last_sample = std::move(smp);
  };

  const sim::Time loaded_end = sim::secs(loaded_s);
  const sim::Time idle_end = sim::secs(idle_end_s);
  const std::function<sim::BitRate(net::FlowId)> rate_of =
      [&](net::FlowId id) { return alloc->flow_rate(id); };
  std::uint64_t ticks = 0;
  sim::PeriodicProcess control(sim, sim::secs(params.tau), [&] {
    const sim::Time now = sim.now();
    {
      Span s(spans, now <= loaded_end ? "core.alloc.tick.loaded"
                    : now <= idle_end ? "core.alloc.tick.idle"
                                      : "core.alloc.tick.drain");
      alloc->tick();
    }
    {
      Span s(spans, "transport.fluid.rerate_all");
      fluid.rerate_all(rate_of, /*epoch=*/true);
    }
    if (++ticks % sample_every == 0) {
      Span s(spans, "bench.check");
      const auto c0 = Clock::now();
      sample();
      check_s += seconds_since(c0);
    }
  });
  control.start(sim::secs(params.tau));

  const DriveResult d =
      drive(sim, idle_end, sim::secs(idle_end_s + max_drain_s),
            sim::secs(params.tau), spans,
            [&] { return ev.completed == flows.size(); });
  control.stop();

  r.run_s = d.wall_s - check_s;
  for (CheckResult* c : {&ev.rate_sums, &ev.idle_links})
    if (c->ok)
      c->detail = std::to_string(samples) + " sampled ticks, " +
                  std::to_string(sampled_flows) + " flow paths: " + c->detail;
  r.attempted = flows.size();
  r.failed = flows.size() - ev.completed;
  r.digest = digest;
  r.checks = fluid_checks(ev);
  const FlowSummary s = summarize(ev.done);
  r.results = {{"afct_s", s.mean_fct_s},
               {"goodput_mbps", s.goodput_bps / 1e6},
               {"flows", static_cast<double>(s.flows)},
               {"ticks", static_cast<double>(ticks)},
               {"events", static_cast<double>(d.events)}};
  kernel_counts(r.counts, sim, net, d.events);
  alloc_counts(r.counts, *alloc, fluid);
  r.counts["transport.data_packets_sent"] = 0;  // no packet transports
  r.counts["transport.retransmits"] = 0;
  r.counts["core.cloud.replication_flows"] = 0;  // no Cloud
  r.counts["core.metadata.failovers"] = 0;
  r.counts["core.metadata.mirror_updates"] = 0;
  if (evidence != nullptr) *evidence = std::move(ev);
  return r;
}

// --- storage_churn ---------------------------------------------------------

std::vector<CheckResult> storage_checks(const StorageEvidence& e) {
  std::vector<CheckResult> out;
  out.push_back(check_all_complete("all_writes_complete", e.writes_issued,
                                   e.writes_done));
  out.push_back(check_all_complete("all_reads_complete", e.reads_issued,
                                   e.reads_done));
  out.push_back(check_no_failures(e.failures));
  out.push_back(check_read_bytes(e.reads));
  out.push_back(check_replicas(e.objects, e.written, e.replicas));
  out.push_back(check_mirrors(e.shards));
  out.push_back(check_resyncs(e.killed, e.resynced));
  return out;
}

Round run_storage_churn(std::uint64_t seed, Size size, Spans& spans,
                        StorageEvidence* evidence) {
  const bool full = size == Size::kFull;
  const double window_s = full ? 16.0 : 4.0;
  const double rate = full ? 700.0 : 200.0;
  // Standby failover with timeout and retry, resync before rejoin, and a
  // ToR trunk cut that parks the fluid flows crossing it.
  const char* kills = full ? "nns:0@4+6,nns:1@8+4,link:2@12+3"
                           : "nns:0@1+1,nns:1@1.5+1,link:2@2.5+1";
  const double max_drain_s = 60.0;

  Round r;
  const auto t0 = Clock::now();
  sim::Simulator sim(stream_seed(seed, kSimStream));
  core::CloudConfig cc;
  cc.topology.n_agg = 4;
  cc.topology.tors_per_agg = 4;
  cc.topology.servers_per_tor = 8;
  cc.topology.n_clients = 64;
  cc.topology.base_bps = sim::BitRate{1e9};
  cc.params.replicas = 3;
  cc.enable_replication = true;
  cc.fluid.enabled = true;
  cc.fluid.threshold_bytes = 0;  // every data flow is fluid
  cc.churn.enabled = true;
  cc.churn.scripted = sim::parse_kill_specs(kills);
  const auto cloud = [&] {
    Span s(spans, "core.cloud.build");
    return std::make_unique<core::Cloud>(sim, cc);
  }();
  const std::vector<ClientOp> ops = [&] {
    Span s(spans, "workload.gen");
    return pareto_ops(seed, rate, window_s, 0.5, cc.topology.n_clients);
  }();

  StorageEvidence ev;
  ev.replicas = cc.params.replicas;
  for (const sim::ScriptedFailure& f : cc.churn.scripted)
    if (f.target == sim::ScriptedFailure::Target::kNns)
      ev.killed.push_back(f.index);
  std::uint64_t digest = 0, replications = 0;
  std::vector<Completion> client_done;
  ClientIssuer issuer(*cloud, ops, spans);
  cloud->add_completion_callback([&](const transport::FlowRecord& rec,
                                     const core::CloudOp& op) {
    digest = fold(fold(digest, static_cast<std::uint64_t>(rec.id.value())),
                  static_cast<std::uint64_t>(sim.now().nanos()));
    if (op.client >= 0 && (op.kind == core::CloudOp::Kind::kWrite ||
                           op.kind == core::CloudOp::Kind::kRead))
      client_done.push_back(Completion{rec.id.value(), rec.size_bytes,
                                       rec.start_time.nanos(),
                                       rec.finish_time.nanos(), 0});
    switch (op.kind) {
      case core::CloudOp::Kind::kWrite:
        if (op.client < 0) break;
        ++ev.writes_done;
        issuer.on_written(op.content);
        break;
      case core::CloudOp::Kind::kRead:
        ++ev.reads_done;
        ev.reads.push_back(ReadDelivery{op.content, rec.size_bytes,
                                        issuer.size_of(op.content)});
        break;
      case core::CloudOp::Kind::kReplication:
        ++replications;
        break;
      case core::CloudOp::Kind::kNnsSync:
        ev.resynced.push_back(op.client);  // the recovering instance
        break;
      default:
        break;
    }
  });
  issuer.start();
  r.setup_s = seconds_since(t0);

  const auto copies = static_cast<std::uint64_t>(cc.params.replicas - 1);
  const DriveResult d = drive(
      sim, sim::secs(window_s), sim::secs(window_s + max_drain_s),
      sim::secs(cc.params.tau), spans, [&] {
        return issuer.all_issued() &&
               ev.writes_done + ev.reads_done ==
                   issuer.writes() + issuer.reads() &&
               replications == ev.writes_done * copies &&
               ev.resynced.size() >= ev.killed.size() &&
               cloud->transports().fluid().active_flows() == 0;
      });
  r.run_s = d.wall_s;

  ev.writes_issued = issuer.writes();
  ev.reads_issued = issuer.reads();
  ev.failures = FailureCounts{cloud->failed_reads(), cloud->failed_writes(),
                              cloud->meta_stats().requests_dropped};
  ev.written = issuer.written().size();
  for (const core::ContentId id : issuer.written()) {
    ObjectReplicas o;
    o.content = id;
    const std::size_t shard =
        cloud->fes().dispatch_index(static_cast<std::uint64_t>(id));
    if (const core::ContentMeta* m = cloud->nns_instance(shard).find(id)) {
      o.servers = m->replicas;
      for (const std::int32_t s : m->replicas) {
        const core::BlockServer& bs =
            cloud->servers().at(static_cast<std::size_t>(s));
        o.holder_ok.push_back(!bs.failed() && bs.has(id));
      }
    }
    ev.objects.push_back(std::move(o));
  }
  const std::size_t shards = cloud->fes().nns_count();
  for (std::size_t s = 0; s < shards; ++s)
    ev.shards.push_back(ShardIds{cloud->nns_instance(s).content_ids(),
                                 cloud->nns_instance(s + shards).content_ids()});

  r.attempted = ops.size();
  r.failed = r.attempted - ev.writes_done - ev.reads_done;
  r.digest = digest;
  r.checks = storage_checks(ev);
  const FlowSummary s = summarize(client_done);
  r.results = {
      {"afct_s", s.mean_fct_s},
      {"goodput_mbps", s.goodput_bps / 1e6},
      {"writes", static_cast<double>(ev.writes_done)},
      {"reads", static_cast<double>(ev.reads_done)},
      {"replications", static_cast<double>(replications)},
      {"sla_violations",
       static_cast<double>(cloud->allocator().sla_violations())},
      {"resyncs", static_cast<double>(ev.resynced.size())},
      {"events", static_cast<double>(d.events)}};
  r.counts = cloud_counts(sim, *cloud, d.events, replications);
  if (evidence != nullptr) *evidence = std::move(ev);
  return r;
}

}  // namespace perfbench
