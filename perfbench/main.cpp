// scda_perfbench — one round of one benchmark workload, or the self-test.
//
//   scda_perfbench round WORKLOAD SEED ROUND [TRACE_JSON]
//       Run round ROUND of a run seeded with SEED and print one JSON
//       object. Every input of the round is generated from (SEED, ROUND).
//       With TRACE_JSON the round records spans around the benchmark's
//       calls into the simulator, writes them there as Chrome trace-event
//       JSON, and adds per-layer timings and self times to the object.
//   scda_perfbench selftest
//       Run every workload at a seconds-long size, require every check to
//       pass, then hand each check a corrupted copy of its input and require
//       it to reject that.
//
// run.py drives this binary; see README.md.
#include <sys/resource.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <string>

#include "sim/failure_schedule.h"
#include "workloads.h"

using namespace perfbench;

namespace {

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    out.push_back(c);
  }
  return out;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

void print_map(const char* key, const std::map<std::string, double>& m) {
  std::printf(",\"%s\":{", key);
  bool first = true;
  for (const auto& [k, v] : m) {
    std::printf("%s\"%s\":%.17g", first ? "" : ",", k.c_str(), v);
    first = false;
  }
  std::printf("}");
}

/// Per-layer timings from the traced round's spans.
std::map<std::string, double> span_timings(const Spans& spans) {
  const auto st = spans.stats();
  const auto pct = [&](const char* name, double q, double scale) {
    const auto it = st.find(name);
    return it == st.end() ? 0.0 : percentile(it->second.durations_ms, q) * scale;
  };
  const auto total = [&](const char* name) {
    const auto it = st.find(name);
    return it == st.end() ? 0.0 : it->second.total_ms;
  };
  std::map<std::string, double> t = {
      {"transport.fluid.rerate_ms_p50",
       pct("transport.fluid.rerate_all", 0.50, 1.0)},
      {"transport.fluid.rerate_ms_p99",
       pct("transport.fluid.rerate_all", 0.99, 1.0)},
      {"transport.fluid.admit_us_p50",
       pct("transport.fluid.admit", 0.50, 1e3)},
      {"core.alloc.tick_ms_p50.loaded",
       pct("core.alloc.tick.loaded", 0.50, 1.0)},
      {"core.alloc.tick_ms_p99.loaded",
       pct("core.alloc.tick.loaded", 0.99, 1.0)},
      {"core.alloc.tick_ms_p50.idle", pct("core.alloc.tick.idle", 0.50, 1.0)},
      {"core.control.tick_ms_p50", pct("core.control.tick", 0.50, 1.0)},
      {"core.control.tick_ms_p99", pct("core.control.tick", 0.99, 1.0)},
      {"core.cloud.write_us_p50", pct("core.cloud.write", 0.50, 1e3)},
      {"core.cloud.read_us_p50", pct("core.cloud.read", 0.50, 1e3)},
      {"workload.gen_ms", total("workload.gen")},
  };
  return t;
}

int round_main(const std::string& workload, std::uint64_t run_seed,
               std::uint64_t round, const char* trace_path) {
  const std::uint64_t seed =
      scda::sim::churn_mix(run_seed ^ scda::sim::churn_mix(round));
  Spans spans(trace_path != nullptr);
  Round r;
  if (workload == "packet_pareto") {
    r = run_packet_pareto(seed, Size::kFull, spans);
  } else if (workload == "fluid_fattree_k32") {
    r = run_fluid_fattree_k32(seed, Size::kFull, spans);
  } else if (workload == "storage_churn") {
    r = run_storage_churn(seed, Size::kFull, spans);
  } else {
    std::fprintf(stderr, "scda_perfbench: unknown workload '%s'\n",
                 workload.c_str());
    return 2;
  }
  std::printf("{\"workload\":\"%s\",\"seed\":%llu,\"round\":%llu,"
              "\"traced\":%s",
              workload.c_str(), static_cast<unsigned long long>(run_seed),
              static_cast<unsigned long long>(round),
              trace_path != nullptr ? "true" : "false");
  std::printf(",\"setup_s\":%.9f,\"run_s\":%.9f,\"peak_rss_mb\":%.6f",
              r.setup_s, r.run_s, peak_rss_mb());
  std::printf(",\"attempted\":%llu,\"failed\":%llu,\"digest\":\"%016llx\"",
              static_cast<unsigned long long>(r.attempted),
              static_cast<unsigned long long>(r.failed),
              static_cast<unsigned long long>(r.digest));
  std::printf(",\"correct\":%s,\"checks\":[", all_ok(r.checks) ? "true" : "false");
  for (std::size_t i = 0; i < r.checks.size(); ++i) {
    const CheckResult& c = r.checks[i];
    std::printf("%s{\"name\":\"%s\",\"ok\":%s,\"detail\":\"%s\"}",
                i ? "," : "", c.name.c_str(), c.ok ? "true" : "false",
                json_escape(c.detail).c_str());
  }
  std::printf("]");
  print_map("results", r.results);
  print_map("counts", r.counts);
  if (trace_path != nullptr) {
    print_map("timings", span_timings(spans));
    print_map("self_ms", spans.layer_self_ms());
    if (!spans.write_chrome_json(trace_path)) {
      std::fprintf(stderr, "scda_perfbench: cannot write %s\n", trace_path);
      return 1;
    }
  }
  std::printf("}\n");
  return 0;
}

// --- self-test ---------------------------------------------------------------

struct SelfTest {
  int failures = 0;

  void expect(bool ok, const std::string& what) {
    std::printf("%s %s\n", ok ? "ok  " : "FAIL", what.c_str());
    if (!ok) ++failures;
  }

  void clean(const char* workload, const Round& r) {
    for (const CheckResult& c : r.checks)
      expect(c.ok, std::string(workload) + " passes " + c.name + ": " +
                       c.detail);
    expect(r.failed == 0 && r.attempted > 0,
           std::string(workload) + " attempted " +
               std::to_string(r.attempted) + ", failed " +
               std::to_string(r.failed));
  }

  /// `check` run on the corrupted evidence must report not-ok.
  template <class E>
  void rejects(const char* workload, const std::string& check,
               const std::string& corruption, const E& clean_evidence,
               const std::function<void(E&)>& corrupt,
               const std::function<std::vector<CheckResult>(const E&)>& run) {
    E bad = clean_evidence;
    corrupt(bad);
    bool rejected = false;
    bool found = false;
    for (const CheckResult& c : run(bad)) {
      if (c.name != check) continue;
      found = true;
      rejected = !c.ok;
    }
    expect(found && rejected, std::string(workload) + " " + check +
                                  " rejects " + corruption);
  }
};

int selftest_main() {
  SelfTest t;
  constexpr std::uint64_t kSeed = 7;

  // packet_pareto
  {
    Spans off(false);
    PacketEvidence ev;
    const Round r = run_packet_pareto(kSeed, Size::kSmall, off, &ev);
    t.clean("packet_pareto", r);
    const std::function<std::vector<CheckResult>(const PacketEvidence&)> run =
        packet_checks;
    for (const bool scda : {true, false}) {
      const std::string arm = scda ? "scda" : "randtcp";
      const auto pick = [scda](PacketEvidence& e) -> ArmEvidence& {
        return scda ? e.scda : e.rand;
      };
      t.rejects<PacketEvidence>(
          "packet_pareto", "all_ops_complete." + arm, "one lost completion",
          ev, [&](PacketEvidence& e) { pick(e).done.pop_back(); }, run);
      t.rejects<PacketEvidence>(
          "packet_pareto", "bytes_as_issued." + arm,
          "one completion record with a wrong size", ev,
          [&](PacketEvidence& e) { pick(e).done.front().bytes += 1; }, run);
      t.rejects<PacketEvidence>(
          "packet_pareto", "fct_above_size_over_fastest_link." + arm,
          "a flow finishing 1 ns after it started", ev,
          [&](PacketEvidence& e) {
            Completion& c = pick(e).done.back();
            c.finish_ns = c.start_ns + 1;
          },
          run);
    }
    t.rejects<PacketEvidence>(
        "packet_pareto", "scda_beats_randtcp", "the two arms swapped", ev,
        [](PacketEvidence& e) { std::swap(e.scda, e.rand); }, run);
  }

  // fluid_fattree_k32 (k=8 at this size)
  {
    Spans off(false);
    FluidEvidence ev;
    const Round r = run_fluid_fattree_k32(kSeed, Size::kSmall, off, &ev);
    t.clean("fluid_fattree", r);
    const std::function<std::vector<CheckResult>(const FluidEvidence&)> run =
        [](const FluidEvidence& e) {
          // Re-run the sampled-tick checks on the kept sample.
          FluidEvidence x = e;
          relink(x.last_sample);
          x.rate_sums = check_sample_rate_sums(x.last_sample);
          x.idle_links = check_sample_idle_links(x.last_sample);
          return fluid_checks(x);
        };
    t.expect(all_ok(run(ev)), "fluid_fattree last sampled tick passes");
    t.rejects<FluidEvidence>("fluid_fattree", "started_equals_completed",
                             "one completion missing", ev,
                             [](FluidEvidence& e) { e.completed -= 1; }, run);
    t.rejects<FluidEvidence>("fluid_fattree", "every_generated_flow_started",
                             "one flow never admitted", ev,
                             [](FluidEvidence& e) { e.started -= 1; }, run);
    t.rejects<FluidEvidence>(
        "fluid_fattree", "bytes_as_generated",
        "one completion record with a wrong size", ev,
        [](FluidEvidence& e) { e.done.front().bytes -= 1; }, run);
    t.rejects<FluidEvidence>(
        "fluid_fattree", "fct_above_size_over_path_capacity",
        "a flow finishing 1 ns after it started", ev,
        [](FluidEvidence& e) {
          e.done.back().finish_ns = e.done.back().start_ns + 1;
        },
        run);
    t.rejects<FluidEvidence>(
        "fluid_fattree", "link_rate_sum", "a link rate sum missing one flow",
        ev,
        [](FluidEvidence& e) {
          e.last_sample.flows.pop_back();
          e.last_sample.paths.pop_back();
        },
        run);
    t.rejects<FluidEvidence>(
        "fluid_fattree", "idle_link_fixed_point",
        "an idle link advertising 1 ppm above its fixed point", ev,
        [](FluidEvidence& e) {
          LinkSample& s = e.last_sample;
          relink(s);
          std::vector<bool> used(s.link_rate.size(), false);
          for (const FlowOnPath& f : s.flows)
            for (const auto l : *f.links) used[l.index()] = true;
          for (std::size_t l = 0; l < used.size(); ++l)
            if (!used[l]) {
              s.link_rate[l] *= 1.000001;
              break;
            }
        },
        run);
    t.expect(!ev.last_sample.flows.empty(),
             "fluid_fattree last sampled tick holds active flows");
  }

  // storage_churn
  {
    Spans off(false);
    StorageEvidence ev;
    const Round r = run_storage_churn(kSeed, Size::kSmall, off, &ev);
    t.clean("storage_churn", r);
    const std::function<std::vector<CheckResult>(const StorageEvidence&)> run =
        storage_checks;
    t.rejects<StorageEvidence>("storage_churn", "all_writes_complete",
                               "one write completion missing", ev,
                               [](StorageEvidence& e) { e.writes_done -= 1; },
                               run);
    t.rejects<StorageEvidence>("storage_churn", "all_reads_complete",
                               "one read completion missing", ev,
                               [](StorageEvidence& e) { e.reads_done -= 1; },
                               run);
    t.rejects<StorageEvidence>(
        "storage_churn", "no_failed_requests", "one dropped metadata request",
        ev, [](StorageEvidence& e) { e.failures.metadata_dropped = 1; }, run);
    t.rejects<StorageEvidence>(
        "storage_churn", "read_bytes_as_written",
        "one read delivering a byte short", ev,
        [](StorageEvidence& e) { e.reads.front().delivered_bytes -= 1; }, run);
    t.rejects<StorageEvidence>(
        "storage_churn", "replicas_on_distinct_live_servers",
        "one object listing the same server twice", ev,
        [](StorageEvidence& e) {
          ObjectReplicas& o = e.objects.front();
          o.servers.back() = o.servers.front();
        },
        run);
    t.rejects<StorageEvidence>(
        "storage_churn", "replicas_on_distinct_live_servers",
        "one replica on a server that lost it", ev,
        [](StorageEvidence& e) { e.objects.back().holder_ok.back() = false; },
        run);
    t.rejects<StorageEvidence>(
        "storage_churn", "standby_mirrors_primary",
        "a standby missing one id", ev,
        [](StorageEvidence& e) { e.shards.front().standby.pop_back(); }, run);
    t.rejects<StorageEvidence>("storage_churn", "nns_outage_resynced",
                               "one resync that never completed", ev,
                               [](StorageEvidence& e) { e.resynced.pop_back(); },
                               run);
  }

  std::printf("selftest: %s (%d failure%s)\n", t.failures ? "FAIL" : "PASS",
              t.failures, t.failures == 1 ? "" : "s");
  return t.failures ? 1 : 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc >= 2 && std::strcmp(argv[1], "selftest") == 0)
    return selftest_main();
  if (argc >= 5 && argc <= 6 && std::strcmp(argv[1], "round") == 0) {
    const std::uint64_t seed = std::strtoull(argv[3], nullptr, 10);
    const std::uint64_t round = std::strtoull(argv[4], nullptr, 10);
    return round_main(argv[2], seed, round, argc == 6 ? argv[5] : nullptr);
  }
  std::fprintf(stderr,
               "usage: %s round WORKLOAD SEED ROUND [TRACE_JSON] | %s "
               "selftest\n",
               argv[0], argv[0]);
  return 2;
}
