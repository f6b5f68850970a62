// dvbench: the repository benchmark program.
//
//   dvbench --workload <live_stream|static_camera|table6_offline>
//           --seed <n> --seconds <s> --trace <0|1>
//           [--trace-dir <dir>] [--corrupt-verdict]
//
// Prints a configuration line, then as its last line one JSON object with
// the keys correct, attempted, failed and metrics (every metric the run
// measured, each with its unit). Exits 0 when the run completed, whether
// or not its correctness gate passed; 2 on bad arguments or an error.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "common.h"
#include "tensor/simd/simd.h"
#include "util/logging.h"
#include "util/strong_lru.h"
#include "util/thread_pool.h"
#include "workloads.h"

namespace dvb {

int setup_repetitions(const std::string& workload, bool trace) {
  if (trace) return 1;
  // Set-up of the objects DenseNet trains for about ten seconds, so it
  // repeats twice; the digits CNN's three times.
  return workload == "table6_offline" ? 2 : 3;
}

int production_threads() {
  static const int threads = dv::thread_count();
  return threads;
}

std::string at_threads(const std::string& name, int threads) {
  return threads == 1 && production_threads() != 1 ? "t1." + name : name;
}

}  // namespace dvb

namespace {

const char* env_or(const char* name, const char* fallback) {
  const char* v = std::getenv(name);
  return v != nullptr ? v : fallback;
}

int usage(const char* why) {
  std::fprintf(stderr,
               "dvbench: %s\nusage: dvbench --workload <live_stream|static_camera|"
               "table6_offline> --seed <n> --seconds <s> --trace <0|1> "
               "[--trace-dir <dir>] [--corrupt-verdict]\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace dvb;
  run_args args;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) throw std::invalid_argument{"missing value for " + a};
      return argv[++i];
    };
    try {
      if (a == "--workload") {
        args.workload = value();
      } else if (a == "--seed") {
        args.seed = std::stoull(value());
      } else if (a == "--seconds") {
        args.seconds = std::stod(value());
      } else if (a == "--trace") {
        args.trace = value() == "1";
      } else if (a == "--trace-dir") {
        args.trace_dir = value();
      } else if (a == "--corrupt-verdict") {
        args.corrupt_verdict = true;
      } else {
        return usage(("unknown argument " + a).c_str());
      }
    } catch (const std::exception& e) {
      return usage(e.what());
    }
  }
  const bool stream = args.workload == "live_stream" || args.workload == "static_camera";
  if (!stream && args.workload != "table6_offline") return usage("unknown workload");
  if (!(args.seconds > 0.0)) return usage("--seconds must be positive");

  dv::set_log_level(dv::log_level::warn);
  (void)production_threads();  // capture before any traced run resizes the pool
  std::printf(
      "{\"config\": {\"workload\": \"%s\", \"seed\": %llu, \"seconds\": %s, "
      "\"trace\": %d, \"DV_THREADS\": \"%s\", \"DV_CACHE\": \"%s\", "
      "\"DV_CACHE_CAPACITY\": \"%s\", \"DV_SIMD\": \"%s\", \"DV_METRICS\": \"%s\", "
      "\"threads\": %d, \"cache_enabled\": %s, \"cache_capacity\": %zu, "
      "\"simd\": \"%s\", \"serve_config\": \"defaults\"}}\n",
      args.workload.c_str(), static_cast<unsigned long long>(args.seed),
      json_number(args.seconds).c_str(), args.trace ? 1 : 0, env_or("DV_THREADS", ""),
      env_or("DV_CACHE", ""), env_or("DV_CACHE_CAPACITY", ""), env_or("DV_SIMD", ""),
      env_or("DV_METRICS", ""), production_threads(),
      dv::cache_enabled() ? "true" : "false", dv::cache_capacity(),
      std::string{dv::simd_level_name(dv::active_simd_level())}.c_str());
  std::fflush(stdout);

  run_result result;
  try {
    if (stream) {
      run_stream_workload(args, result);
    } else {
      run_offline_workload(args, result);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "dvbench: error: %s\n", e.what());
    return 2;
  }
  const std::int64_t attempted = std::max<std::int64_t>(result.ops.attempted(), 1);
  result.metrics.set("ok_frac",
                     1.0 - static_cast<double>(result.ops.failed()) /
                               static_cast<double>(attempted),
                     "1");
  std::printf("{\"input_digest\": \"%016llx\", \"phases\": %s}\n",
              static_cast<unsigned long long>(result.input_digest),
              result.ops.phases_json().c_str());
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, \"metrics\": %s}\n",
              result.ops.failed() == 0 ? "true" : "false",
              static_cast<long long>(attempted),
              static_cast<long long>(result.ops.failed()),
              result.metrics.to_json().c_str());
  return 0;
}
