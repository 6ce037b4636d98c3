// Span recorder for the traced benchmark run.
//
// Spans are opened and closed only by the benchmark's own code, around its
// calls into the simulator's public functions. Each span has a name whose
// first dot-separated component names the repo layer it measures (sim, net,
// transport, core, workload). The recorder keeps every span in memory,
// derives self time (duration minus the part covered by child spans) and
// writes Chrome trace-event JSON at the end, so a traced run opens in
// Perfetto like the simulator's own traces.
//
// A disabled recorder costs one branch per span: the timed runs construct
// it disabled and never read the clock through it.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <unordered_map>
#include <vector>

namespace perfbench {

class Spans {
 public:
  explicit Spans(bool enabled)
      : enabled_(enabled), origin_(std::chrono::steady_clock::now()) {}

  [[nodiscard]] bool enabled() const noexcept { return enabled_; }

  /// Open a span; end() closes the innermost open one. Names must outlive
  /// the recorder (string literals).
  void begin(const char* name);
  void end();

  /// Aggregate of all closed spans with one name. Time spent in the
  /// benchmark's own checks (spans named "bench.*") is left out of every
  /// enclosing span's duration, as it is left out of run_s.
  struct Stat {
    double total_ms = 0;
    double self_ms = 0;
    std::vector<double> durations_ms;  ///< per span, in close order
  };
  /// Aggregates by span name.
  [[nodiscard]] std::map<std::string, Stat> stats() const;
  /// Self time summed per layer (the name's first component).
  [[nodiscard]] std::map<std::string, double> layer_self_ms() const;

  /// Write Chrome trace-event JSON ("X" complete events, one track). The
  /// file holds the earliest spans of each name up to a fixed cap per name;
  /// the aggregates above always cover every span.
  bool write_chrome_json(const std::string& path) const;

 private:
  struct Named {
    Stat stat;
    std::size_t kept = 0;  ///< spans of this name in records_
  };
  struct Open {
    const char* name;
    Named* named;
    std::int64_t start_ns;
    std::int64_t child_ns;  ///< covered by child spans
    std::int64_t check_ns;  ///< covered by nested bench.* spans
    std::int32_t record;    ///< index into records_, -1 when not kept
  };
  struct Record {
    const char* name;
    std::int64_t start_ns;
    std::int64_t dur_ns;
    std::int32_t depth;
  };
  [[nodiscard]] std::int64_t now_ns() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now() - origin_)
        .count();
  }

  bool enabled_;
  std::chrono::steady_clock::time_point origin_;
  std::vector<Open> stack_;
  std::vector<Record> records_;
  /// Keyed by the name literal's address: one lookup per span, no string
  /// building on the hot path. stats() merges equal names.
  std::unordered_map<const char*, Named> by_name_;
};

/// RAII span; a no-op on a disabled recorder.
class Span {
 public:
  Span(Spans& s, const char* name) : spans_(s), active_(s.enabled()) {
    if (active_) spans_.begin(name);
  }
  ~Span() {
    if (active_) spans_.end();
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Spans& spans_;
  bool active_;
};

/// Nearest-rank percentile (q in [0,1]) of an unsorted sample; 0 when empty.
[[nodiscard]] double percentile(std::vector<double> v, double q);

}  // namespace perfbench
