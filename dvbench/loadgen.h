// Open-loop load generator for monitor_service and the per-frame replay
// behind the serve-path correctness gate.
//
// One generator thread (the caller) submits frame k at its due time
// t0 + k / rate: it sleeps until then, or submits at once when late. One
// completion thread blocks on the futures in submission order. Verdict
// latency is ready - due, so generator lateness and queueing both count.
#pragma once

#include <cstdint>
#include <map>
#include <utility>
#include <vector>

#include "core/monitor.h"
#include "serve/scoring.h"
#include "world.h"

namespace dvb {

struct frame_rec {
  std::int64_t due{0};
  std::int64_t submit{0};
  std::int64_t ready{0};
  std::int64_t pos{0};  // stream position
  dv::monitor_verdict verdict;
  bool error{false};
};

struct batch_rec {
  std::int64_t start{0};
  std::int64_t end{0};
  std::int64_t frames{0};
};

struct served_pass {
  std::vector<frame_rec> frames;
  std::vector<batch_rec> batches;  // timed passes only
  std::int64_t t0{0};
  std::int64_t errors{0};
  std::uint64_t act_hits{0};
  std::uint64_t act_misses{0};
  std::uint64_t act_bytes{0};
  /// Resident set (after malloc_trim) with the service and its caches
  /// still alive, once every frame was served.
  double rss_mb{0.0};
};

/// Offers stream frames [start, start + n) at `rate` frames/s to a fresh
/// production stack: a cold copy of the bank, a fresh runtime_monitor, the
/// production validator_scorer and monitor_service with serve_config{}
/// defaults. `timed` puts a timing batch_scorer decorator in front of the
/// scorer and records each batch's scoring interval.
served_pass serve_pass(const world& w, const frame_stream& s,
                       std::int64_t start, double rate, std::int64_t n,
                       bool timed);

/// Every served verdict must equal runtime_monitor::observe over the same
/// frames in the same order. A frame whose bytes the replay already scored
/// is folded in with runtime_monitor::apply of the score observe produced
/// for those bytes (observe is evaluate + apply, and evaluate is
/// deterministic), so the replay costs one forward pass per distinct frame.
class replayer {
 public:
  explicit replayer(const world& w);

  /// Frames whose verdict differs from the replay, or that errored.
  std::int64_t check(const served_pass& pass, const frame_stream& s);

  /// The replay's score for the bytes of stream frame `pos`. Bytes the
  /// replay has not scored yet are scored now by runtime_monitor::observe
  /// on a monitor of their own, which leaves the replayed verdict stream
  /// untouched.
  const dv::frame_score& score_of(const frame_stream& s, std::int64_t pos);

 private:
  const world& world_;
  dv::deep_validator validator_;
  dv::runtime_monitor scorer_;
  std::map<std::pair<std::uint64_t, std::uint64_t>, dv::frame_score> memo_;
};

struct latency_stats {
  /// p50 and p99 verdict latency of each full one-second window of due
  /// time.
  std::vector<double> window_p50_ms;
  std::vector<double> window_p99_ms;
  /// Medians over the windows, so one stalled second cannot set the figure.
  double p50_ms{0.0};
  double p99_ms{0.0};
  double mean_ms{0.0};
  double lateness_p99_ms{0.0};
  double lateness_max_ms{0.0};
};

/// Latency (ready - due) of frames [from, end) and generator lateness
/// (submit - due).
latency_stats latency_of(const served_pass& pass, std::size_t from);

/// Verdict of one rate-search trial.
struct trial_result {
  double achieved{0.0};
  double p99_ms{0.0};
  /// Mean latency of the frames due in the second and the last quarter
  /// of the offered window.
  double early_ms{0.0};
  double late_ms{0.0};
  bool pass{false};
};

/// A rate is sustained when every frame was served, the achieved rate is
/// at least 97% of the offered one, the backlog does not grow (the mean
/// latency of the last quarter of the window is at most 1.5 x that of the
/// second quarter + 2 ms), and the p99 verdict latency is at most 100 ms.
trial_result judge_trial(const served_pass& pass, double rate);

/// Stream frames from `start` stacked into batches of the given sizes.
std::vector<dv::tensor> stack_frames(const frame_stream& s, std::int64_t start,
                                     const std::vector<std::int64_t>& sizes);

inline double ms(std::int64_t ns) { return static_cast<double>(ns) * 1e-6; }

}  // namespace dvb
