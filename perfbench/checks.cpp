#include "checks.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>
#include <set>

namespace perfbench {

namespace {

CheckResult pass(const std::string& name, std::string detail) {
  return CheckResult{name, true, std::move(detail)};
}

CheckResult fail(const std::string& name, std::string detail) {
  return CheckResult{name, false, std::move(detail)};
}

template <class... A>
std::string fmt(const char* f, A... a) {
  char buf[256];
  std::snprintf(buf, sizeof buf, f, a...);
  return buf;
}

bool close_rel(double a, double b, double rel_tol) {
  return std::fabs(a - b) <= rel_tol * std::max(std::fabs(a), std::fabs(b));
}

}  // namespace

CheckResult check_all_complete(const std::string& name, std::uint64_t issued,
                               std::uint64_t completed) {
  const std::string d =
      fmt("issued %llu, completed %llu",
          static_cast<unsigned long long>(issued),
          static_cast<unsigned long long>(completed));
  return issued == completed && issued > 0 ? pass(name, d) : fail(name, d);
}

CheckResult check_bytes_equal(const std::string& name,
                              std::int64_t issued_bytes,
                              const std::vector<Completion>& done) {
  std::int64_t sum = 0;
  for (const Completion& c : done) sum += c.bytes;
  const std::string d = fmt("issued %lld bytes, completed %lld bytes",
                            static_cast<long long>(issued_bytes),
                            static_cast<long long>(sum));
  return sum == issued_bytes ? pass(name, d) : fail(name, d);
}

CheckResult check_fct_lower_bound(const std::string& name,
                                  const std::vector<Completion>& done) {
  for (const Completion& c : done) {
    const double fct_s = static_cast<double>(c.finish_ns - c.start_ns) * 1e-9;
    const double floor_s = static_cast<double>(c.bytes) * 8.0 / c.bound_bps;
    // One nanosecond of slack: the simulator rounds times to whole ns.
    if (!(c.bound_bps > 0) || fct_s + 1e-9 < floor_s)
      return fail(name, fmt("flow %lld finished in %.9g s, below its floor "
                            "%.9g s (%lld bytes)",
                            static_cast<long long>(c.flow), fct_s, floor_s,
                            static_cast<long long>(c.bytes)));
  }
  return pass(name, fmt("%zu flows at or above size / fastest rate",
                        done.size()));
}

FlowSummary summarize(const std::vector<Completion>& done) {
  FlowSummary s;
  if (done.empty()) return s;
  double fct_sum = 0, bytes = 0;
  std::int64_t first = std::numeric_limits<std::int64_t>::max();
  std::int64_t last = std::numeric_limits<std::int64_t>::min();
  for (const Completion& c : done) {
    fct_sum += static_cast<double>(c.finish_ns - c.start_ns) * 1e-9;
    bytes += static_cast<double>(c.bytes);
    first = std::min(first, c.start_ns);
    last = std::max(last, c.finish_ns);
  }
  s.flows = done.size();
  s.mean_fct_s = fct_sum / static_cast<double>(done.size());
  const double span_s = static_cast<double>(last - first) * 1e-9;
  s.goodput_bps = span_s > 0 ? bytes * 8.0 / span_s : 0.0;
  return s;
}

CheckResult check_scda_beats_randtcp(const FlowSummary& scda,
                                     const FlowSummary& rand) {
  const std::string name = "scda_beats_randtcp";
  const std::string d =
      fmt("mean FCT %.4f s vs %.4f s", scda.mean_fct_s, rand.mean_fct_s) +
      fmt(", goodput %.1f vs %.1f Mbps", scda.goodput_bps / 1e6,
          rand.goodput_bps / 1e6);
  const bool ok = scda.flows > 0 && rand.flows > 0 &&
                  scda.mean_fct_s < rand.mean_fct_s &&
                  scda.goodput_bps > rand.goodput_bps;
  return ok ? pass(name, d) : fail(name, d);
}

namespace {

std::vector<double> own_link_sums(std::size_t n_links,
                                  const std::vector<FlowOnPath>& flows) {
  std::vector<double> sum(n_links, 0.0);
  for (const FlowOnPath& f : flows)
    for (const scda::net::LinkId l : *f.links) sum.at(l.index()) += f.rate_bps;
  return sum;
}

}  // namespace

CheckResult check_link_rate_sums(const std::vector<double>& alloc_rate_sum,
                                 const std::vector<FlowOnPath>& flows,
                                 double rel_tol) {
  const std::string name = "link_rate_sum";
  const std::vector<double> own = own_link_sums(alloc_rate_sum.size(), flows);
  for (std::size_t l = 0; l < own.size(); ++l) {
    if (!close_rel(alloc_rate_sum[l], own[l], rel_tol))
      return fail(name, fmt("link %zu: allocator %.17g bps vs own sum "
                            "%.17g bps",
                            l, alloc_rate_sum[l], own[l]));
  }
  return pass(name, fmt("%zu links, %zu flows agree", own.size(),
                        flows.size()));
}

CheckResult check_idle_links(const std::vector<double>& link_rate,
                             const std::vector<double>& capacity,
                             double alpha, double min_rate,
                             const std::vector<FlowOnPath>& flows,
                             double rel_tol) {
  const std::string name = "idle_link_fixed_point";
  std::vector<bool> used(link_rate.size(), false);
  for (const FlowOnPath& f : flows)
    for (const scda::net::LinkId l : *f.links) used.at(l.index()) = true;
  std::size_t idle = 0;
  for (std::size_t l = 0; l < link_rate.size(); ++l) {
    if (used[l]) continue;
    ++idle;
    const double fixed = std::max(alpha * capacity[l], min_rate);
    if (!close_rel(link_rate[l], fixed, rel_tol))
      return fail(name, fmt("idle link %zu advertises %.17g bps, fixed "
                            "point %.17g bps",
                            l, link_rate[l], fixed));
  }
  return pass(name, fmt("%zu idle links at their fixed point", idle));
}

CheckResult check_no_failures(const FailureCounts& c) {
  const std::string name = "no_failed_requests";
  const std::string d =
      fmt("failed reads %llu, failed writes %llu, dropped metadata "
          "requests %llu",
          static_cast<unsigned long long>(c.failed_reads),
          static_cast<unsigned long long>(c.failed_writes),
          static_cast<unsigned long long>(c.metadata_dropped));
  const bool ok =
      c.failed_reads == 0 && c.failed_writes == 0 && c.metadata_dropped == 0;
  return ok ? pass(name, d) : fail(name, d);
}

CheckResult check_read_bytes(const std::vector<ReadDelivery>& reads) {
  const std::string name = "read_bytes_as_written";
  for (const ReadDelivery& r : reads) {
    if (r.delivered_bytes != r.written_bytes)
      return fail(name, fmt("content %lld delivered %lld bytes, written "
                            "with %lld",
                            static_cast<long long>(r.content),
                            static_cast<long long>(r.delivered_bytes),
                            static_cast<long long>(r.written_bytes)));
  }
  return pass(name, fmt("%zu reads deliver their written size",
                        reads.size()));
}

CheckResult check_replicas(const std::vector<ObjectReplicas>& objects,
                           std::size_t written, std::int32_t target) {
  const std::string name = "replicas_on_distinct_live_servers";
  if (objects.size() != written)
    return fail(name, fmt("%zu objects found, %zu written", objects.size(),
                          written));
  for (const ObjectReplicas& o : objects) {
    const std::set<std::int32_t> distinct(o.servers.begin(), o.servers.end());
    bool holders = o.holder_ok.size() == o.servers.size();
    for (std::size_t i = 0; holders && i < o.holder_ok.size(); ++i)
      holders = o.holder_ok[i];
    if (o.servers.size() != static_cast<std::size_t>(target) ||
        distinct.size() != o.servers.size() || !holders)
      return fail(name, fmt("content %lld has %zu replica entries, %zu "
                            "distinct, all on live holders: %s",
                            static_cast<long long>(o.content),
                            o.servers.size(), distinct.size(),
                            holders ? "yes" : "no"));
  }
  return pass(name, fmt("%zu objects with %d copies each", objects.size(),
                        static_cast<int>(target)));
}

CheckResult check_mirrors(const std::vector<ShardIds>& shards) {
  const std::string name = "standby_mirrors_primary";
  for (std::size_t s = 0; s < shards.size(); ++s) {
    if (shards[s].primary != shards[s].standby)
      return fail(name, fmt("shard %zu: primary holds %zu ids, standby %zu",
                            s, shards[s].primary.size(),
                            shards[s].standby.size()));
  }
  return pass(name, fmt("%zu shards agree", shards.size()));
}

CheckResult check_resyncs(const std::vector<std::int64_t>& killed,
                          const std::vector<std::int64_t>& resynced) {
  const std::string name = "nns_outage_resynced";
  const std::set<std::int64_t> done(resynced.begin(), resynced.end());
  for (const std::int64_t k : killed) {
    if (!done.count(k))
      return fail(name, fmt("NNS instance %lld never completed a resync",
                            static_cast<long long>(k)));
  }
  return pass(name, fmt("%zu outages, %zu resyncs completed", killed.size(),
                        resynced.size()));
}

bool all_ok(const std::vector<CheckResult>& checks) {
  return std::all_of(checks.begin(), checks.end(),
                     [](const CheckResult& c) { return c.ok; });
}

}  // namespace perfbench
