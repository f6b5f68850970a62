// live_stream and static_camera: the digits CNN behind monitor_service,
// offered an open-loop camera stream at fixed absolute rates (see
// loadgen.h for the generator and completion threads).
#include <algorithm>
#include <cmath>
#include <optional>

#include "report.h"
#include "loadgen.h"
#include "staged.h"
#include "workloads.h"
#include "world.h"

namespace dvb {

using namespace dv;

namespace {

struct stream_params {
  bool near_static{false};
  /// Offered rate of the latency phase, the same on both workloads, so
  /// their p50s differ only by what the caches save. The frame period
  /// (2 ms) is kept clear of the 1 ms coalescing window: at 1000 fps the
  /// next frame is due just as the window closes, and at 5000 fps batches
  /// of about five frames mix hits and misses; either way the p50 swings
  /// with the host's speed (see README.md).
  double nominal_fps{500.0};
  /// Rate-search bracket.
  double search_lo{500.0};
  double search_hi{4000.0};
  /// Offered rate of the traced runs (below the one-thread capacity).
  double trace_fps{400.0};
};

stream_params params_for(const std::string& workload) {
  stream_params p;
  if (workload == "static_camera") {
    p.near_static = true;
    p.search_lo = 2000.0;
    p.search_hi = 16000.0;
    p.trace_fps = 1500.0;
  }
  return p;
}

// The measured phase is split into rounds of about k_round_s seconds so
// that every metric samples the whole run: each round runs a latency
// segment, rate-search trials, bulk scoring and a refit of the bank.
constexpr double k_round_s = 2.0;
constexpr double k_latency_share = 0.5;
constexpr double k_bulk_share = 0.15;
// Unmeasured frames at the nominal rate before each latency segment.
constexpr double k_warmup_s = 0.2;
// Rate search: the first round bisects the bracket geometrically; every
// later round runs up-down staircase trials from there (x or / by
// k_stair_step after a sustained or failed trial).
constexpr double k_trial_s = 0.25;
constexpr int k_bisect_trials = 6;
constexpr int k_stair_trials = 3;
constexpr double k_stair_step = 1.06;
// Long enough that the traced run's p99 has at least 10 frames beyond it.
constexpr double k_trace_seconds = 2.5;

// Open-loop hygiene. A latency segment whose generator ran later than
// these bounds is invalid: it is run again, at most twice, and the run
// fails when every attempt is invalid.
constexpr double k_lateness_p99_bound_ms = 20.0;
constexpr double k_lateness_max_bound_ms = 250.0;
constexpr int k_latency_attempts = 3;

// Live-stream property: the caches must not be doing the work.
constexpr double k_live_max_hit_ratio = 0.01;

struct setup_rep {
  world w;
  frame_stream s;
};

/// One set-up: the world, then the workload's stream from the seed.
setup_rep set_up(const stream_params& p, std::uint64_t seed, std::int64_t frames) {
  const std::int64_t t0 = now_ns();
  setup_rep r{build_world(digits_spec(), seed), {}};
  const std::int64_t t1 = now_ns();
  r.s = p.near_static ? make_static_stream(r.w, seed, frames)
                      : make_live_stream(r.w, seed, frames);
  r.w.times.stream_gen_s = seconds_between(t1, now_ns());
  r.w.times.total_s = seconds_between(t0, now_ns());
  return r;
}

/// Rate search state shared by the rounds of one run.
class rate_search {
 public:
  rate_search(const world& w, const frame_stream& s, std::int64_t cursor,
              replayer& replay, outcome& ops)
      : world_{w}, stream_{s}, cursor_{cursor}, replay_{replay}, ops_{ops} {}

  /// Geometric bisection over [lo, hi]: `lo` first, then the midpoint of
  /// the open bracket. Leaves the staircase at the highest sustained rate.
  void bisect(double lo, double hi) {
    fallback_ = 0.0;
    for (int k = 0; k < k_bisect_trials; ++k) {
      const double rate = k == 0 ? lo : std::sqrt(lo * hi);
      const trial_result t = trial(rate);
      if (t.pass) {
        fallback_ = t.achieved;
        if (k > 0) lo = rate;
      } else if (k == 0) {
        fallback_ = t.achieved;  // below the bracket: report what it did
        break;
      } else {
        hi = rate;
      }
    }
    stair_ = lo;
  }

  void staircase(int trials) {
    for (int k = 0; k < trials; ++k) {
      const trial_result t = trial(stair_);
      if (t.pass) {
        sustained_.push_back(t.achieved);
        stair_ *= k_stair_step;
      } else {
        stair_ /= k_stair_step;
      }
    }
  }

  /// Upper quartile of the sustained trials' achieved rates: the rate the
  /// service sustains when the shared host is not stalling it.
  double sustained_fps() const {
    return sustained_.empty() ? fallback_ : quantile(sustained_, 0.75);
  }

 private:
  trial_result trial(double rate) {
    const auto n = std::max<std::int64_t>(64, static_cast<std::int64_t>(k_trial_s * rate));
    const served_pass pass = serve_pass(world_, stream_, cursor_, rate, n, false);
    cursor_ += n;
    ops_.attempt(n);
    ops_.fail("rate-search verdict differs from the per-frame replay",
              replay_.check(pass, stream_));
    const trial_result t = judge_trial(pass, rate);
    std::fprintf(stderr,
                 "dvbench: rate %.0f fps: achieved %.1f, p99 %.2f ms, mean latency "
                 "%.2f -> %.2f ms: %s\n",
                 rate, t.achieved, t.p99_ms, t.early_ms, t.late_ms,
                 t.pass ? "sustained" : "not sustained");
    return t;
  }

  const world& world_;
  const frame_stream& stream_;
  std::int64_t cursor_;
  replayer& replay_;
  outcome& ops_;
  double stair_{0.0};
  double fallback_{0.0};
  std::vector<double> sustained_;
};

}  // namespace

void run_stream_workload(const run_args& args, run_result& result) {
  const stream_params p = params_for(args.workload);
  outcome& ops = result.ops;
  metric_list& m = result.metrics;

  const int rounds = std::max(1, static_cast<int>(std::lround(args.seconds / k_round_s)));
  const double round_s = args.seconds / rounds;
  const auto warmup_n = static_cast<std::int64_t>(k_warmup_s * p.nominal_fps);
  const auto segment_n = static_cast<std::int64_t>(k_latency_share * round_s * p.nominal_fps);
  const std::int64_t latency_total = rounds * (warmup_n + segment_n);
  const auto trace_n = static_cast<std::int64_t>(k_trace_seconds * p.trace_fps);
  // Enough distinct frames that cycling the stream never revisits a frame
  // the activation cache (default 1024 entries) could still hold.
  const std::int64_t stream_n = std::max<std::int64_t>({latency_total, trace_n + 1, 4096});

  // The first set-up is the one measured. Further repetitions run between
  // rounds, so setup_s (their median) samples the whole run.
  ops.begin_phase("setup");
  setup_rep first = set_up(p, args.seed, stream_n);
  const world& w = first.w;
  const frame_stream& s = first.s;
  std::vector<setup_times> reps{w.times};
  const int repetitions = setup_repetitions(args.workload, args.trace);
  const auto repeat_setup = [&] {
    ops.begin_phase("setup");
    const setup_rep again = set_up(p, args.seed, stream_n);
    ops.check(same_bits(again.w.validator.threshold(), w.validator.threshold()) &&
                  stream_digest(again.s, again.s.size()) == stream_digest(s, s.size()),
              "set-up is not deterministic");
    reps.push_back(again.w.times);
  };
  result.input_digest = stream_digest(s, std::min<std::int64_t>(s.size(), 4096));
  replayer replay{w};

  if (args.trace) {
    for (int r = 1; r < repetitions; ++r) repeat_setup();
    report_setup(reps, m);
    trace_plan plan;
    plan.serve_fps = p.trace_fps;
    plan.serve_frames = trace_n;
    plan.caches_idle = !p.near_static;
    plan.frame_cache = true;
    traced_runs(args, w, s, replay, plan, ops, m);
    return;
  }

  // Per one-second window of every valid latency segment.
  std::vector<double> window_p50;
  std::vector<double> window_p99;
  std::vector<double> lateness_p99;
  double lateness_max = 0.0;
  std::vector<double> bulk_rates;
  std::vector<double> fit_s;
  std::vector<double> rss;
  std::uint64_t act_hits = 0;
  std::uint64_t act_lookups = 0;
  int invalid = 0;
  rate_search search{w, s, latency_total, replay, ops};
  std::int64_t bulk_pos = 0;
  std::optional<deep_validator> bulk_bank;
  const int batch = w.validator.batching().max_batch;
  int setups_done = 1;
  for (int round = 0; round < rounds; ++round) {
    if (setups_done < repetitions && round == setups_done * rounds / repetitions) {
      repeat_setup();
      ++setups_done;
    }

    // --- Latency segment at the nominal rate.
    ops.begin_phase("latency");
    const std::int64_t start = round * (warmup_n + segment_n);
    for (int attempt = 1;; ++attempt) {
      served_pass pass = serve_pass(w, s, start, p.nominal_fps, warmup_n + segment_n, false);
      ops.attempt(static_cast<std::int64_t>(pass.frames.size()));
      if (args.corrupt_verdict && round == 0 && attempt == 1) {
        auto& v = pass.frames[static_cast<std::size_t>(warmup_n)].verdict;
        v.alarm = !v.alarm;
      }
      ops.fail("latency-segment verdict differs from the per-frame replay",
               replay.check(pass, s));
      const latency_stats lat = latency_of(pass, static_cast<std::size_t>(warmup_n));
      const bool valid = lat.lateness_p99_ms <= k_lateness_p99_bound_ms &&
                         lat.lateness_max_ms <= k_lateness_max_bound_ms;
      std::fprintf(stderr,
                   "dvbench: latency segment %d: p50 %.3f ms p99 %.3f ms, generator "
                   "lateness p99 %.3f ms max %.3f ms%s\n",
                   round, lat.p50_ms, lat.p99_ms, lat.lateness_p99_ms, lat.lateness_max_ms,
                   valid ? "" : " (invalid)");
      if (!valid) {
        ++invalid;
        if (attempt < k_latency_attempts) continue;
        ops.fail("generator lateness above its bound in every attempt");
      }
      window_p50.insert(window_p50.end(), lat.window_p50_ms.begin(), lat.window_p50_ms.end());
      window_p99.insert(window_p99.end(), lat.window_p99_ms.begin(), lat.window_p99_ms.end());
      lateness_p99.push_back(lat.lateness_p99_ms);
      lateness_max = std::max(lateness_max, lat.lateness_max_ms);
      act_hits += pass.act_hits;
      act_lookups += pass.act_hits + pass.act_misses;
      rss.push_back(pass.rss_mb);
      break;
    }

    // --- Rate search over fixed absolute rates.
    ops.begin_phase("rate_search");
    if (round == 0) {
      search.bisect(p.search_lo, p.search_hi);
    } else {
      search.staircase(k_stair_trials);
    }

    // --- Bulk scoring through validator_bank_view::evaluate, on stream
    // frames in order; a fresh bank copy (cold caches) per pass over them.
    ops.begin_phase("bulk_score");
    const std::int64_t bulk_start = now_ns();
    const auto bulk_ns = static_cast<std::int64_t>(k_bulk_share * round_s * 1e9);
    do {
      if (!bulk_bank || bulk_pos + batch > s.size()) {
        bulk_bank.emplace(w.validator);
        bulk_pos = 0;
      }
      const std::vector<tensor> chunk = stack_frames(s, bulk_pos, {batch});
      const std::int64_t t0 = now_ns();
      const auto scores = bulk_bank->bank().evaluate(*w.model, chunk.front());
      bulk_rates.push_back(static_cast<double>(batch) / seconds_between(t0, now_ns()));
      ops.attempt(batch);
      std::int64_t differ = 0;
      for (std::int64_t i = 0; i < batch; ++i) {
        const frame_score& ref = replay.score_of(s, bulk_pos + i);
        const auto k = static_cast<std::size_t>(i);
        if (!same_bits(ref.discrepancy, scores.joint[k]) ||
            ref.prediction != scores.predictions[k]) {
          ++differ;
        }
      }
      ops.fail("bulk score differs from the per-frame replay", differ);
      bulk_pos += batch;
    } while (now_ns() - bulk_start < bulk_ns);

    // --- Refit the bank (deep_validator::fit).
    ops.begin_phase("fit");
    deep_validator refit;
    const std::int64_t t0 = now_ns();
    refit.fit(*w.model, w.data.train, w.spec.validator);
    fit_s.push_back(seconds_between(t0, now_ns()));
    std::fprintf(stderr, "dvbench: fit %.3f s\n", fit_s.back());
    ops.check(same_fit(refit, w.validator), "refit bank differs from the set-up bank");
  }
  while (setups_done < repetitions) {
    repeat_setup();
    ++setups_done;
  }
  report_setup(reps, m);

  m.set("verdict_p50_ms", median(window_p50), "ms");
  m.set("verdict_p99_ms", median(window_p99), "ms");
  m.set("gen.lateness_p99_ms", median(lateness_p99), "ms");
  m.set("gen.lateness_max_ms", lateness_max, "ms");
  m.set("gen.invalid_segments", invalid, "count");
  m.set("sustained_fps", search.sustained_fps(), "1/s");
  m.set("score_fps", quantile(bulk_rates, 0.75), "1/s");
  m.set("fit_s", quantile(fit_s, 0.25), "s");
  m.set("rss_mb", median(rss), "MiB");
  const double act_hit_ratio =
      act_lookups > 0 ? static_cast<double>(act_hits) / static_cast<double>(act_lookups) : 0.0;
  const double share = repeat_share(s, latency_total);
  m.set("workload.repeat_share", share, "1");
  m.set("core.activation_cache.hit_ratio", act_hit_ratio, "1");
  std::fprintf(stderr,
               "dvbench: %d rounds, %zu latency windows; repeat share %.4f, "
               "activation-cache hit ratio %.4f\n",
               rounds, window_p50.size(), share, act_hit_ratio);
  if (!p.near_static) {
    ops.check(share <= k_live_max_hit_ratio && act_hit_ratio <= k_live_max_hit_ratio,
              "live_stream frames repeat or hit the activation cache");
  }
  ops.begin_phase("corner_auc");
  m.set("joint_auc", corner_auc(w, ops), "1");
}

}  // namespace dvb
