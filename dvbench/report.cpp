#include "report.h"

#include <cmath>
#include <cstdio>
#include <map>
#include <string>

#include "eval/metrics.h"
#include "util/metrics.h"
#include "util/thread_pool.h"

namespace dvb {

using namespace dv;

namespace {

// Stated add-up tolerances, reported per thread count as
// trace.{score,serve}_adds_up. They compare timings, so they are reported
// rather than counted as failed operations: host noise must not turn a
// correct run into a failed one.
//
// The closed-loop stage self times must add up to the untraced production
// time of the same batches within this share.
constexpr double k_score_addup_tolerance = 0.15;
constexpr int k_closed_loop_rounds = 2;
// The traced serve pass's per-frame stage sum must match the untraced
// pass's mean verdict latency within this share plus k_serve_addup_ms:
// the two are separate open-loop runs, so scheduler noise is included.
constexpr double k_serve_addup_tolerance = 0.5;
constexpr double k_serve_addup_ms = 1.0;
// A live stream keeps both caches (near) idle.
constexpr double k_idle_hit_ratio = 0.01;

double per_frame_us(double ns, std::int64_t frames) {
  return frames > 0 ? ns * 1e-3 / static_cast<double>(frames) : 0.0;
}

}  // namespace

void report_setup(const std::vector<setup_times>& reps, metric_list& m) {
  std::vector<double> total;
  for (const auto& t : reps) total.push_back(t.total_s);
  const double mid = median(total);
  m.set("setup_s", mid, "s");
  // Breakdown of the repetition closest to the median.
  std::size_t pick = 0;
  for (std::size_t i = 0; i < reps.size(); ++i) {
    if (std::abs(reps[i].total_s - mid) < std::abs(reps[pick].total_s - mid)) pick = i;
  }
  const setup_times& t = reps[pick];
  m.set("data.gen_s", t.data_gen_s, "s");
  m.set("nn.train_s", t.train_s, "s");
  m.set("setup.bank_fit_s", t.bank_fit_s, "s");
  m.set("setup.threshold_s", t.threshold_s, "s");
  m.set("augment.corner_gen_s", t.corner_gen_s, "s");
  m.set("augment.stream_gen_s", t.stream_gen_s, "s");
  // Set-up never reads or writes an artifact cache.
  m.set("setup.artifact_cache_used", 0.0, "count");
}

double corner_auc(const world& w, std::span<const double> clean_joint,
                  std::span<const double> corner_joint,
                  std::span<const std::int64_t> corner_predictions, outcome& ops) {
  std::vector<double> scc;
  for (std::size_t i = 0; i < corner_joint.size(); ++i) {
    if (corner_predictions[i] != w.corners.labels[i]) scc.push_back(corner_joint[i]);
  }
  ops.check(!scc.empty(), "no corner case is misclassified; AUC undefined");
  if (scc.empty()) return 0.5;
  return roc_auc(scc, clean_joint);
}

double corner_auc(const world& w, outcome& ops) {
  const deep_validator validator = w.validator;
  const validator_bank_view bank = validator.bank();
  const auto clean = bank.evaluate(*w.model, w.data.test.images);
  const auto corners = bank.evaluate(*w.model, w.corners.images);
  return corner_auc(w, clean.joint, corners.joint, corners.predictions, ops);
}

void traced_runs(const run_args& args, const world& w, const frame_stream& s,
                 replayer& replay, const trace_plan& plan, outcome& ops,
                 metric_list& m) {
  const int nproc = production_threads();
  for (const int threads : {1, nproc}) {
    set_thread_count(threads);
    ops.begin_phase("trace_t" + std::to_string(threads));
    const auto name = [threads](const std::string& base) {
      return at_threads(base, threads);
    };
    const std::string stem = args.trace_dir + "/" + args.workload + "-seed" +
                             std::to_string(args.seed) + "-t" +
                             std::to_string(threads);

    // --- Serve passes: untraced, then traced with the library metrics on.
    const served_pass plain = serve_pass(w, s, 0, plan.serve_fps, plan.serve_frames, false);
    metrics::set_enabled(true);
    metrics::reset();
    const served_pass traced = serve_pass(w, s, 0, plan.serve_fps, plan.serve_frames, true);
    const auto counter = [](const char* series) {
      const metrics::counter* c = metrics::get_counter(series);
      return c != nullptr ? static_cast<double>(c->value()) : 0.0;
    };
    const double dec_hits = counter("dv_cache_hits_total{cache=\"decision\"}");
    const double dec_misses = counter("dv_cache_misses_total{cache=\"decision\"}");
    const double batches_metric = counter("dv_serve_batches_total{service=\"monitor\"}");
    const double rejected = counter("dv_serve_rejected_total{service=\"monitor\"}");
    metrics::reset();
    metrics::set_enabled(false);
    ops.attempt(2 * plan.serve_frames);
    ops.fail("traced-run verdict differs from the per-frame replay",
             replay.check(plain, s) + replay.check(traced, s));
    ops.check(static_cast<double>(traced.batches.size()) == batches_metric,
              "timing decorator and dv_serve_batches_total disagree");

    // Each frame's latency split into stages that chain end to start.
    span_log serve_log;
    std::vector<double> queue_wait_ms;
    std::vector<double> complete_us;
    std::vector<double> score_ms;
    std::vector<std::int64_t> sizes;
    double stage_sum_ms = 0.0;
    std::size_t f = 0;
    for (const batch_rec& br : traced.batches) {
      score_ms.push_back(ms(br.end - br.start));
      sizes.push_back(br.frames);
      for (std::int64_t i = 0; i < br.frames && f < traced.frames.size(); ++i, ++f) {
        const frame_rec& rec = traced.frames[f];
        const auto id = static_cast<std::int64_t>(f);
        const std::int64_t root = serve_log.add("frame", rec.due, rec.ready, -1, id);
        serve_log.add("serve.gen_lateness", rec.due, rec.submit, root, id);
        serve_log.add("serve.queue_wait", rec.submit, br.start, root, id);
        serve_log.add("serve.score", br.start, br.end, root, id);
        serve_log.add("serve.complete", br.end, rec.ready, root, id);
        queue_wait_ms.push_back(ms(br.start - rec.submit));
        complete_us.push_back(static_cast<double>(rec.ready - br.end) * 1e-3);
        stage_sum_ms += ms(rec.submit - rec.due) + ms(br.start - rec.submit) +
                        ms(br.end - br.start) + ms(rec.ready - br.end);
      }
    }
    ops.check(f == traced.frames.size(), "served batches do not cover the frames");
    const double traced_mean = stage_sum_ms / static_cast<double>(std::max<std::size_t>(f, 1));
    const latency_stats plain_lat = latency_of(plain, 0);
    const double plain_mean = plain_lat.mean_ms;
    std::vector<double> plain_ms;
    for (const auto& rec : plain.frames) plain_ms.push_back(ms(rec.ready - rec.due));
    m.set(name("verdict_p99_ms"), quantile(plain_ms, 0.99), "ms");
    const latency_stats traced_lat = latency_of(traced, 0);
    m.set(name("gen.lateness_p99_ms"), traced_lat.lateness_p99_ms, "ms");
    m.set(name("gen.lateness_max_ms"), traced_lat.lateness_max_ms, "ms");
    const bool serve_adds_up = std::abs(traced_mean - plain_mean) <=
                               k_serve_addup_tolerance * plain_mean + k_serve_addup_ms;
    m.set(name("trace.serve_adds_up"), serve_adds_up ? 1.0 : 0.0, "count");
    if (!serve_adds_up) {
      std::fprintf(stderr, "dvbench: %s\n",
                   name("serve stage sum is outside 50% + 1 ms of the untraced latency")
                       .c_str());
    }
    serve_log.write_json(stem + "-serve.json");

    m.set(name("serve.queue_wait_ms.p50"), quantile(queue_wait_ms, 0.5), "ms");
    m.set(name("serve.queue_wait_ms.p99"), quantile(queue_wait_ms, 0.99), "ms");
    m.set(name("serve.batch_frames.mean"),
          static_cast<double>(f) / static_cast<double>(std::max<std::size_t>(sizes.size(), 1)),
          "count");
    m.set(name("serve.batches"), static_cast<double>(traced.batches.size()), "count");
    m.set(name("serve.score_ms.p50"), quantile(score_ms, 0.5), "ms");
    m.set(name("serve.complete_us.p50"), quantile(complete_us, 0.5), "us");
    m.set(name("serve.rejected"), rejected, "count");
    m.set(name("trace.serve_stage_sum_ms"), traced_mean, "ms");
    m.set(name("trace.serve_untraced_ms"), plain_mean, "ms");
    m.set(name("trace.serve_overhead_ms"), traced_mean - plain_mean, "ms");

    const double act_lookups = static_cast<double>(traced.act_hits + traced.act_misses);
    const double act_ratio =
        act_lookups > 0 ? static_cast<double>(traced.act_hits) / act_lookups : 0.0;
    const double dec_ratio =
        dec_hits + dec_misses > 0 ? dec_hits / (dec_hits + dec_misses) : 0.0;
    m.set(name("core.activation_cache.hit_ratio"), act_ratio, "1");
    m.set(name("core.activation_cache.bytes"), static_cast<double>(traced.act_bytes), "B");
    m.set(name("svm.decision_cache.hit_ratio"), dec_ratio, "1");
    m.set(name("workload.repeat_share"), repeat_share(s, plan.serve_frames), "1");
    if (plan.caches_idle) {
      ops.check(act_ratio <= k_idle_hit_ratio && dec_ratio <= k_idle_hit_ratio,
                name("a cache served hits on a stream that should miss"));
    }

    // --- Closed loop: production vs stage by stage over one batch
    // sequence, interleaved batch by batch (alternating which goes first)
    // so both see the same machine conditions. Two rounds, each with fresh
    // banks and caches; totals are summed over both.
    const std::vector<tensor> batches =
        plan.batches.empty() ? stack_frames(s, 0, sizes) : plan.batches;
    double production_ns = 0.0;
    double staged_ns = 0.0;
    std::map<std::string, double> stage_self_ns;
    std::int64_t frames = 0;
    std::int64_t forwarded = 0;
    std::int64_t kernel_evals = 0;
    for (int round = 0; round < k_closed_loop_rounds; ++round) {
      const deep_validator prod_bank = w.validator;
      const deep_validator staged_bank = w.validator;
      const deep_validator verify_bank = w.validator;
      production_scoring prod{*w.model, prod_bank, plan.frame_cache};
      staged_scoring staged{*w.model, staged_bank, verify_bank, plan.frame_cache};
      for (std::size_t b = 0; b < batches.size(); ++b) {
        if (b % 2 == 0) prod.score(batches[b]);
        staged.score(batches[b], static_cast<std::int64_t>(b));
        if (b % 2 == 1) prod.score(batches[b]);
      }
      ops.attempt(staged.frames);
      ops.fail(name("staged scores differ from validator_bank_view::evaluate"),
               staged.mismatches);
      std::int64_t differ = 0;
      for (std::size_t i = 0; i < staged.joint.size(); ++i) {
        differ += same_bits(staged.joint[i], prod.joint[i]) ? 0 : 1;
        differ += same_verdict(staged.verdicts[i], prod.verdicts[i]) ? 0 : 1;
        if (plan.batches.empty()) {
          differ += same_verdict(staged.verdicts[i], traced.frames[i].verdict) ? 0 : 1;
        }
      }
      ops.fail(name("closed-loop scores differ from the production path"), differ);
      if (round == 0) staged.log.write_json(stem + "-score.json");
      production_ns += prod.total_ns;
      staged_ns += staged.log.total_self_ns();
      for (const auto& [stage, ns] : staged.log.self_ns_by_name()) stage_self_ns[stage] += ns;
      frames += staged.frames;
      forwarded += staged.forwarded;
      kernel_evals += staged.kernel_evals;
    }
    const auto per_frame = [&](const char* stage) {
      return per_frame_us(stage_self_ns[stage], frames);
    };
    m.set(name("nn.forward_us_per_frame"), per_frame_us(stage_self_ns["nn.forward"], forwarded),
          "us");
    m.set(name("nn.forwarded_frames"),
          static_cast<double>(forwarded) / k_closed_loop_rounds, "count");
    m.set(name("core.probe_reduce_us"), per_frame("core.probe_reduce"), "us");
    m.set(name("core.scaler_us"), per_frame("core.scaler"), "us");
    m.set(name("core.joint_us"), per_frame("core.joint"), "us");
    m.set(name("core.monitor_apply_us"), per_frame("core.monitor_apply"), "us");
    m.set(name("svm.decision_us"), per_frame("svm.decision"), "us");
    m.set(name("svm.kernel_evals"),
          static_cast<double>(kernel_evals) / k_closed_loop_rounds, "count");
    m.set(name("trace.score_stage_sum_ms"), staged_ns * 1e-6, "ms");
    m.set(name("trace.score_untraced_ms"), production_ns * 1e-6, "ms");
    m.set(name("trace.score_overhead_pct"),
          production_ns > 0 ? 100.0 * (staged_ns - production_ns) / production_ns : 0.0, "%");
    const bool score_adds_up =
        std::abs(staged_ns - production_ns) <= k_score_addup_tolerance * production_ns;
    m.set(name("trace.score_adds_up"), score_adds_up ? 1.0 : 0.0, "count");
    if (!score_adds_up) {
      std::fprintf(stderr, "dvbench: %s\n",
                   name("closed-loop stage self times are outside 15% of the untraced time")
                       .c_str());
    }

    // --- Fit, with the library's fit histograms.
    const fit_breakdown fit = traced_fit(*w.model, w.data.train, w.spec.validator);
    m.set(name("svm.fit_s"), fit.svm_fit_s, "s");
    m.set(name("nn.fit_forward_s"), fit.fit_forward_s, "s");
    m.set(name("core.scaler_fit_s"), fit.scaler_fit_s, "s");
    m.set(name("trace.fit_s"), fit.total_s, "s");
    m.set(name("svm.smo_iterations"), static_cast<double>(fit.smo_iterations), "count");
    m.set(name("svm.support_vectors"), static_cast<double>(fit.support_vectors), "count");
  }
  set_thread_count(nproc);
}

}  // namespace dvb
