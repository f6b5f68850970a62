// Shared plumbing of the dvbench program: clocks, order statistics, the
// result report, and the in-memory span log of traced runs.
#pragma once

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

namespace dvb {

/// Steady-clock nanoseconds. The benchmark keeps its own clock so its
/// timings never depend on the library's observability switches.
inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

inline double seconds_between(std::int64_t begin_ns, std::int64_t end_ns) {
  return static_cast<double>(end_ns - begin_ns) * 1e-9;
}

/// Linear-interpolation quantile (q in [0, 1]) of an unsorted sample;
/// NaN for an empty sample.
inline double quantile(std::vector<double> v, double q) {
  if (v.empty()) return std::nan("");
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

inline double median(const std::vector<double>& v) { return quantile(v, 0.5); }

inline double mean_of(const std::vector<double>& v) {
  if (v.empty()) return std::nan("");
  double s = 0.0;
  for (const double x : v) s += x;
  return s / static_cast<double>(v.size());
}

/// Resident set size of this process in MiB (/proc/self/statm).
double rss_mb();

/// Ordered name -> (value, unit) list printed as the result's metrics.
class metric_list {
 public:
  void set(const std::string& name, double value, const std::string& unit) {
    for (auto& m : items_) {
      if (m.name == name) {
        m.value = value;
        m.unit = unit;
        return;
      }
    }
    items_.push_back({name, value, unit});
  }
  /// {"name": {"value": v, "unit": "u"}, ...} with every digit kept.
  std::string to_json() const;

 private:
  struct item {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<item> items_;
};

/// Counts operations and failures, overall and per named phase, with the
/// reason of each failure kind.
class outcome {
 public:
  /// Later counts go to phase `name` (new, or resumed) as well as to the
  /// totals.
  void begin_phase(const std::string& name) {
    for (current_ = 0; current_ < phases_.size(); ++current_) {
      if (phases_[current_].name == name) return;
    }
    phases_.push_back({name, 0, 0});
  }
  void attempt(std::int64_t n = 1) {
    attempted_ += n;
    if (current_ < phases_.size()) phases_[current_].attempted += n;
  }
  void fail(const std::string& why, std::int64_t n = 1) {
    if (n <= 0) return;
    failed_ += n;
    if (current_ < phases_.size()) phases_[current_].failed += n;
    std::fprintf(stderr, "dvbench: FAILED x%lld: %s\n",
                 static_cast<long long>(n), why.c_str());
  }
  /// A check that is not an operation of its own (a property assertion):
  /// it counts as one attempted and, when false, one failed operation.
  void check(bool ok, const std::string& what) {
    attempt();
    if (!ok) fail(what);
  }
  std::int64_t attempted() const { return attempted_; }
  std::int64_t failed() const { return failed_; }
  /// [{"phase": name, "attempted": a, "succeeded": a - f, "failed": f}, ...]
  std::string phases_json() const;

 private:
  struct phase {
    std::string name;
    std::int64_t attempted;
    std::int64_t failed;
  };
  std::int64_t attempted_{0};
  std::int64_t failed_{0};
  std::vector<phase> phases_;
  std::size_t current_{0};
};

/// One recorded interval of a traced run. `parent` indexes the span log
/// (-1 for roots); `id` is the frame id (serve spans) or batch id
/// (scoring spans).
struct span_record {
  std::string name;
  std::int64_t start_ns{0};
  std::int64_t end_ns{0};
  std::int64_t parent{-1};
  std::int64_t id{-1};
};

/// Append-only span log with per-name self-time totals.
class span_log {
 public:
  /// Records a finished span; returns its index (for children's parent).
  std::int64_t add(std::string name, std::int64_t start_ns,
                   std::int64_t end_ns, std::int64_t parent, std::int64_t id) {
    spans_.push_back({std::move(name), start_ns, end_ns, parent, id});
    return static_cast<std::int64_t>(spans_.size()) - 1;
  }
  /// Reserves a slot for a span whose end is not known yet.
  std::int64_t open(std::string name, std::int64_t start_ns,
                    std::int64_t parent, std::int64_t id) {
    return add(std::move(name), start_ns, start_ns, parent, id);
  }
  void close(std::int64_t index, std::int64_t end_ns) {
    spans_[static_cast<std::size_t>(index)].end_ns = end_ns;
  }

  /// Self time (span minus its direct children) summed per span name,
  /// in nanoseconds, in first-appearance order of the names.
  std::vector<std::pair<std::string, double>> self_ns_by_name() const;
  /// Total self time over every span (the wall time the tree covers).
  double total_self_ns() const;

  /// Writes {"spans": [[name, start, end, parent, id], ...]} to `path`.
  void write_json(const std::string& path) const;

 private:
  std::vector<span_record> spans_;
};

/// Formats a double with every significant digit (%.17g), JSON-safe.
std::string json_number(double v);

}  // namespace dvb
