// Output checks of the benchmark workloads.
//
// Every check is a pure function over plain data the benchmark collected
// itself (what it issued, what the completion callbacks reported, what the
// public getters return), so the self-test can hand each one a corrupted
// copy and see it rejected. None compares against a stored copy of an
// earlier run's output: each is either an independent computation or a
// property the method must have.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "net/packet.h"

namespace perfbench {

struct CheckResult {
  std::string name;
  bool ok = true;
  std::string detail;  ///< first offending item, or a summary when ok
};

/// One finished transfer as the completion callback reported it.
struct Completion {
  std::int64_t flow = 0;
  std::int64_t bytes = 0;
  std::int64_t start_ns = 0;
  std::int64_t finish_ns = 0;
  /// Fastest rate the transfer could have had (bits/s): the fastest link
  /// in the fabric, or the slowest capacity on the flow's path.
  double bound_bps = 0;
};

/// Operations issued vs completed (per kind, summed by the caller).
[[nodiscard]] CheckResult check_all_complete(const std::string& name,
                                             std::uint64_t issued,
                                             std::uint64_t completed);

/// Completed bytes equal the bytes the benchmark issued.
[[nodiscard]] CheckResult check_bytes_equal(
    const std::string& name, std::int64_t issued_bytes,
    const std::vector<Completion>& done);

/// No transfer finishes sooner than bytes * 8 / bound_bps.
[[nodiscard]] CheckResult check_fct_lower_bound(
    const std::string& name, const std::vector<Completion>& done);

/// Mean FCT and goodput, computed from completion records alone. Goodput
/// is total bytes over the span from the first start to the last finish.
struct FlowSummary {
  double mean_fct_s = 0;
  double goodput_bps = 0;
  std::size_t flows = 0;
};
[[nodiscard]] FlowSummary summarize(const std::vector<Completion>& done);

/// Figs 17-18: SCDA's mean FCT below RandTCP's, its goodput above.
[[nodiscard]] CheckResult check_scda_beats_randtcp(const FlowSummary& scda,
                                                   const FlowSummary& rand);

/// A flow the fluid benchmark admitted, with the path it recorded.
struct FlowOnPath {
  double rate_bps = 0;  ///< RateAllocator::flow_rate after the tick
  const std::vector<scda::net::LinkId>* links = nullptr;
};

/// link_rate_sum(l) equals the sum of flow_rate over the flows whose
/// recorded path crosses l, within `rel_tol`. Sums run in ascending flow
/// order over `flows` (sorted by id by the caller).
[[nodiscard]] CheckResult check_link_rate_sums(
    const std::vector<double>& alloc_rate_sum,
    const std::vector<FlowOnPath>& flows, double rel_tol);

/// Every link no flow crosses sits at its idle fixed point
/// max(alpha * capacity, min_rate): fluid links never queue.
[[nodiscard]] CheckResult check_idle_links(
    const std::vector<double>& link_rate,
    const std::vector<double>& capacity, double alpha, double min_rate,
    const std::vector<FlowOnPath>& flows, double rel_tol);

/// Failure counters of the storage workload; all must stay zero.
struct FailureCounts {
  std::uint64_t failed_reads = 0;
  std::uint64_t failed_writes = 0;
  std::uint64_t metadata_dropped = 0;
};
[[nodiscard]] CheckResult check_no_failures(const FailureCounts& c);

/// A read as delivered, and the size its content was written with.
struct ReadDelivery {
  std::int64_t content = 0;
  std::int64_t delivered_bytes = 0;
  std::int64_t written_bytes = -1;  ///< -1: the benchmark never wrote it
};
[[nodiscard]] CheckResult check_read_bytes(
    const std::vector<ReadDelivery>& reads);

/// Replica placement of one object after the drain.
struct ObjectReplicas {
  std::int64_t content = 0;
  std::vector<std::int32_t> servers;
  /// Per entry of `servers`: that server is up and holds the object.
  std::vector<bool> holder_ok;
};
[[nodiscard]] CheckResult check_replicas(
    const std::vector<ObjectReplicas>& objects, std::size_t written,
    std::int32_t target);

/// Each metadata shard's primary and standby hold the same ids.
struct ShardIds {
  std::vector<std::int64_t> primary;
  std::vector<std::int64_t> standby;
};
[[nodiscard]] CheckResult check_mirrors(const std::vector<ShardIds>& shards);

/// Every NNS instance taken down by a scripted outage finished a resync.
[[nodiscard]] CheckResult check_resyncs(
    const std::vector<std::int64_t>& killed,
    const std::vector<std::int64_t>& resynced);

[[nodiscard]] bool all_ok(const std::vector<CheckResult>& checks);

}  // namespace perfbench
