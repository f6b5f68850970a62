// The three benchmark workloads. Each fills the run's metrics and counts
// its attempted and failed operations; see README.md for the definitions.
#pragma once

#include <cstdint>
#include <string>

#include "common.h"

namespace dvb {

struct run_args {
  std::string workload;
  std::uint64_t seed{1};
  double seconds{10.0};
  bool trace{false};
  /// Self-test hook: flip one served verdict before the correctness gate.
  bool corrupt_verdict{false};
  /// Where traced runs write their span files.
  std::string trace_dir{"."};
};

struct run_result {
  outcome ops;
  metric_list metrics;
  /// Order-sensitive digest of the workload's inputs for this seed.
  std::uint64_t input_digest{0};
};

/// live_stream and static_camera: the digits CNN behind monitor_service.
void run_stream_workload(const run_args& args, run_result& result);
/// table6_offline: fit -> Table VI scoring of the objects DenseNet.
void run_offline_workload(const run_args& args, run_result& result);

/// Number of set-ups a run makes to report setup_s as their median.
int setup_repetitions(const std::string& workload, bool trace);

/// Thread count of the production default (DV_THREADS as set, else the
/// hardware count) captured before any traced run resizes the pool.
int production_threads();

/// Per-layer metric name at a thread count: the production count keeps the
/// plain name, one thread gets the "t1." prefix.
std::string at_threads(const std::string& name, int threads);

}  // namespace dvb
