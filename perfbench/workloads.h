// The benchmark's three workloads. Each builds its system from a seed,
// generates every input during set-up, runs single-threaded, and returns
// one Round: timings, operation counts, per-layer counters, the simulated
// results, and its output checks.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "checks.h"
#include "spans.h"

namespace perfbench {

/// Full size for measurement; small size for the self-test.
enum class Size : std::uint8_t { kFull, kSmall };

struct Round {
  double setup_s = 0;  ///< topology / allocator / Cloud build + input gen
  double run_s = 0;    ///< first event to end of drain, checks excluded
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  /// splitmix fold of (flow id, completion ns) over every completion, in
  /// completion order: equal digests mean the same simulated history.
  std::uint64_t digest = 0;
  std::vector<CheckResult> checks;
  std::map<std::string, double> results;  ///< simulated AFCT, goodput, ...
  std::map<std::string, double> counts;   ///< per-layer counters
};

// --- evidence: the plain data each workload's checks consume ---------------

/// Client operations of one packet_pareto arm.
struct ArmEvidence {
  std::uint64_t issued = 0;
  std::int64_t issued_bytes = 0;
  std::vector<Completion> done;
};
struct PacketEvidence {
  ArmEvidence scda;
  ArmEvidence rand;
};
[[nodiscard]] std::vector<CheckResult> packet_checks(const PacketEvidence& e);

/// One sampled allocator tick of fluid_fattree_k32, with owned path copies
/// so the self-test can corrupt it.
struct LinkSample {
  std::vector<double> rate_sum;   ///< RateAllocator::link_rate_sum per link
  std::vector<double> link_rate;  ///< RateAllocator::link_rate per link
  std::vector<double> capacity;
  double alpha = 0;
  double min_rate = 0;
  std::vector<std::vector<scda::net::LinkId>> paths;
  std::vector<FlowOnPath> flows;  ///< ascending id; links point into paths
};
/// Re-point `s.flows[i].links` at `s.paths[i]` after a copy.
void relink(LinkSample& s);
[[nodiscard]] CheckResult check_sample_rate_sums(const LinkSample& s);
[[nodiscard]] CheckResult check_sample_idle_links(const LinkSample& s);

struct FluidEvidence {
  std::uint64_t generated = 0;
  std::uint64_t started = 0;
  std::uint64_t completed = 0;
  std::int64_t generated_bytes = 0;
  std::vector<Completion> done;
  /// Outcome of the sampled-tick checks (first failure, else last pass).
  CheckResult rate_sums{"link_rate_sum", false, "no tick sampled"};
  CheckResult idle_links{"idle_link_fixed_point", false, "no tick sampled"};
  /// Latest sampled tick with active flows; kept only when evidence is
  /// requested.
  LinkSample last_sample;
};
[[nodiscard]] std::vector<CheckResult> fluid_checks(const FluidEvidence& e);

struct StorageEvidence {
  std::uint64_t writes_issued = 0;
  std::uint64_t reads_issued = 0;
  std::uint64_t writes_done = 0;
  std::uint64_t reads_done = 0;
  FailureCounts failures;
  std::vector<ReadDelivery> reads;
  std::vector<ObjectReplicas> objects;
  std::size_t written = 0;
  std::int32_t replicas = 0;
  std::vector<ShardIds> shards;
  std::vector<std::int64_t> killed;
  std::vector<std::int64_t> resynced;
};
[[nodiscard]] std::vector<CheckResult> storage_checks(
    const StorageEvidence& e);

// --- workloads -------------------------------------------------------------

/// Run one round. `spans` is enabled only in the traced run. When
/// `evidence` is non-null the checks' inputs are copied out for the
/// self-test.
Round run_packet_pareto(std::uint64_t seed, Size size, Spans& spans,
                        PacketEvidence* evidence = nullptr);
Round run_fluid_fattree_k32(std::uint64_t seed, Size size, Spans& spans,
                            FluidEvidence* evidence = nullptr);
Round run_storage_churn(std::uint64_t seed, Size size, Spans& spans,
                        StorageEvidence* evidence = nullptr);

}  // namespace perfbench
