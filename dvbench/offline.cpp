// table6_offline: the paper's evaluation path with no serve layer. Each
// round fits a fresh bank on the training split (deep_validator::fit, as in
// Algorithm 1) and scores the clean test split plus the seeded corner
// cases through validator_bank_view::evaluate in batches of the bank's
// batch size (Table VI).
#include <malloc.h>

#include <algorithm>
#include <cstring>
#include <span>

#include "core/activation_batch.h"
#include "report.h"
#include "loadgen.h"
#include "staged.h"
#include "util/strong_lru.h"
#include "workloads.h"
#include "world.h"

namespace dvb {

using namespace dv;

namespace {

// The traced runs' serve probe: the same DenseNet behind monitor_service
// at a low fixed rate, so serve.* figures exist for this model too.
constexpr double k_probe_fps = 40.0;
constexpr std::int64_t k_probe_frames = 60;

/// Clean test images followed by the corner cases.
tensor scoring_set(const world& w) {
  const tensor& clean = w.data.test.images;
  const tensor& corners = w.corners.images;
  std::vector<std::int64_t> shape = clean.shape();
  shape[0] = clean.extent(0) + corners.extent(0);
  tensor out{shape};
  std::memcpy(out.data(), clean.data(), static_cast<std::size_t>(clean.numel()) * sizeof(float));
  std::memcpy(out.data() + clean.numel(), corners.data(),
              static_cast<std::size_t>(corners.numel()) * sizeof(float));
  return out;
}

std::vector<tensor> chunks(const tensor& images, std::int64_t batch) {
  std::vector<tensor> out;
  for (std::int64_t b = 0; b < images.extent(0); b += batch) {
    out.push_back(images.slice_rows(b, std::min(images.extent(0), b + batch)));
  }
  return out;
}

bool same_rows(const validation_scores& a, std::int64_t a_base,
               const validation_scores& b, std::int64_t n) {
  for (std::int64_t i = 0; i < n; ++i) {
    const auto ai = static_cast<std::size_t>(a_base + i);
    const auto bi = static_cast<std::size_t>(i);
    if (!same_bits(a.joint[ai], b.joint[bi]) || a.predictions[ai] != b.predictions[bi]) {
      return false;
    }
    for (std::size_t v = 0; v < a.per_layer.size(); ++v) {
      if (!same_bits(a.per_layer[v][ai], b.per_layer[v][bi])) return false;
    }
  }
  return true;
}

}  // namespace

void run_offline_workload(const run_args& args, run_result& result) {
  outcome& ops = result.ops;
  metric_list& m = result.metrics;

  // The first set-up is the one measured; a further repetition runs after
  // the measured phase, so setup_s (their median) samples the whole run.
  ops.begin_phase("setup");
  const auto set_up = [&args] {
    const std::int64_t t0 = now_ns();
    world built = build_world(objects_spec(), args.seed);
    const std::int64_t t1 = now_ns();
    frame_stream built_probe = make_live_stream(built, args.seed, k_probe_frames);
    built.times.stream_gen_s = seconds_between(t1, now_ns());
    built.times.total_s = seconds_between(t0, now_ns());
    return std::make_pair(std::move(built), std::move(built_probe));
  };
  auto [w, probe] = set_up();
  std::vector<setup_times> reps{w.times};
  const auto repeat_setups = [&] {
    ops.begin_phase("setup");
    for (int r = 1; r < setup_repetitions(args.workload, args.trace); ++r) {
      const auto again = set_up();
      ops.check(same_bits(again.first.validator.threshold(), w.validator.threshold()) &&
                    same_fit(again.first.validator, w.validator),
                "set-up is not deterministic");
      reps.push_back(again.first.times);
    }
    report_setup(reps, m);
  };

  const tensor images = scoring_set(w);
  const std::int64_t batch = w.validator.batching().max_batch;
  const std::vector<tensor> batches = chunks(images, batch);
  result.input_digest = stream_digest(probe, probe.size());
  {
    // The digest also covers the corner cases, which the seed drives.
    const strong_hash h = strong_hash::of_bytes(
        w.corners.images.data(), static_cast<std::size_t>(w.corners.images.numel()) * sizeof(float));
    result.input_digest ^= h.lo;
  }

  if (!args.trace) {
    // Reference scores of the set-up bank, through the chunking evaluate.
    const deep_validator reference_bank = w.validator;
    const validation_scores reference = reference_bank.bank().evaluate(*w.model, images);
    ops.begin_phase("fit_and_score");
    const std::int64_t start = now_ns();
    std::vector<double> fit_s;
    std::vector<double> rss;
    std::vector<double> batch_ms;
    std::vector<double> batch_rate;
    double score_ns = 0.0;
    std::int64_t scored = 0;
    while (fit_s.empty() || seconds_between(start, now_ns()) < args.seconds) {
      deep_validator fitted;
      const std::int64_t f0 = now_ns();
      fitted.fit(*w.model, w.data.train, w.spec.validator);
      fit_s.push_back(seconds_between(f0, now_ns()));
      fitted.set_threshold(w.validator.threshold());
      ops.check(same_fit(fitted, w.validator), "refit bank differs from the set-up bank");
      const validator_bank_view bank = fitted.bank();
      std::int64_t base = 0;
      for (const tensor& chunk : batches) {
        const std::int64_t t0 = now_ns();
        const activation_batch acts = extract_activations(*w.model, chunk);
        const validation_scores s = bank.evaluate(acts);
        const std::int64_t t1 = now_ns();
        const std::int64_t n = chunk.extent(0);
        score_ns += static_cast<double>(t1 - t0);
        if (n == batch) {
          batch_ms.push_back(ms(t1 - t0));
          batch_rate.push_back(static_cast<double>(n) / seconds_between(t0, t1));
        }
        ops.attempt(n);
        if (!same_rows(reference, base, s, n)) {
          ops.fail("refit bank scores differ from the set-up bank", n);
        }
        base += n;
        scored += n;
      }
      malloc_trim(0);
      rss.push_back(rss_mb());  // the fitted bank and the model still alive
    }
    repeat_setups();
    m.set("fit_s", quantile(fit_s, 0.25), "s");
    m.set("score_fps", quantile(batch_rate, 0.75), "1/s");
    // A full batch's evaluate time is the verdict latency of its images;
    // p50 / p99 over every full batch of the run.
    m.set("verdict_p50_ms", quantile(batch_ms, 0.5), "ms");
    m.set("verdict_p99_ms", quantile(batch_ms, 0.99), "ms");
    m.set("sustained_fps", static_cast<double>(scored) / (score_ns * 1e-9), "1/s");
    m.set("rss_mb", median(rss), "MiB");
    ops.begin_phase("corner_auc");
    const auto clean_n = static_cast<std::size_t>(w.data.test.size());
    const std::span<const double> joint{reference.joint};
    const std::span<const std::int64_t> predictions{reference.predictions};
    m.set("joint_auc",
          corner_auc(w, joint.first(clean_n), joint.subspan(clean_n),
                     predictions.subspan(clean_n), ops),
          "1");
    return;
  }

  repeat_setups();
  replayer replay{w};
  trace_plan plan;
  plan.serve_fps = k_probe_fps;
  plan.serve_frames = k_probe_frames;
  plan.caches_idle = true;
  plan.batches = batches;
  traced_runs(args, w, probe, replay, plan, ops, m);
}

}  // namespace dvb
