#include "spans.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <string_view>

namespace perfbench {

namespace {
/// Spans of one name kept for the Chrome trace file; aggregates cover all
/// spans.
constexpr std::size_t kMaxRecordsPerName = 20000;
}  // namespace

void Spans::begin(const char* name) {
  Named& named = by_name_[name];
  std::int32_t rec = -1;
  const std::int64_t t = now_ns();
  if (named.kept < kMaxRecordsPerName) {
    ++named.kept;
    rec = static_cast<std::int32_t>(records_.size());
    records_.push_back(
        Record{name, t, 0, static_cast<std::int32_t>(stack_.size())});
  }
  stack_.push_back(Open{name, &named, t, 0, 0, rec});
}

void Spans::end() {
  const std::int64_t t = now_ns();
  const Open o = stack_.back();
  stack_.pop_back();
  const std::int64_t dur = t - o.start_ns;
  const bool is_check = std::string_view(o.name).starts_with("bench.");
  if (!stack_.empty()) {
    stack_.back().child_ns += dur;
    stack_.back().check_ns += is_check ? dur : o.check_ns;
  }
  if (o.record >= 0) records_[static_cast<std::size_t>(o.record)].dur_ns = dur;
  Stat& s = o.named->stat;
  const double dur_ms = static_cast<double>(dur - o.check_ns) * 1e-6;
  s.total_ms += dur_ms;
  s.self_ms += static_cast<double>(dur - o.child_ns) * 1e-6;
  s.durations_ms.push_back(dur_ms);
}

std::map<std::string, Spans::Stat> Spans::stats() const {
  std::map<std::string, Stat> out;
  for (const auto& [name, named] : by_name_) {
    const Stat& st = named.stat;
    Stat& s = out[name];
    s.total_ms += st.total_ms;
    s.self_ms += st.self_ms;
    s.durations_ms.insert(s.durations_ms.end(), st.durations_ms.begin(),
                          st.durations_ms.end());
  }
  return out;
}

std::map<std::string, double> Spans::layer_self_ms() const {
  std::map<std::string, double> out;
  for (const auto& [name, st] : stats()) {
    const std::string layer = name.substr(0, name.find('.'));
    out[layer] += st.self_ms;
  }
  return out;
}

bool Spans::write_chrome_json(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n");
  std::fprintf(f,
               "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":1,"
               "\"args\":{\"name\":\"perfbench\"}}");
  for (const Record& r : records_) {
    const std::string name = r.name;
    const std::string layer = name.substr(0, name.find('.'));
    std::fprintf(f,
                 ",\n{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"pid\":1,"
                 "\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"depth\":%d}}",
                 r.name, layer.c_str(), static_cast<double>(r.start_ns) * 1e-3,
                 static_cast<double>(r.dur_ns) * 1e-3, r.depth);
  }
  std::fprintf(f, "\n]}\n");
  return std::fclose(f) == 0;
}

double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(q * static_cast<double>(v.size()));
  const auto idx = static_cast<std::size_t>(
      std::clamp(rank, 1.0, static_cast<double>(v.size()))) - 1;
  return v[idx];
}

}  // namespace perfbench
