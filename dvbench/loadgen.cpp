#include "loadgen.h"

#include <malloc.h>
#include <sys/prctl.h>

#include <algorithm>
#include <condition_variable>
#include <deque>
#include <future>
#include <mutex>
#include <thread>

#include "common.h"
#include "serve/monitor_service.h"
#include "staged.h"

namespace dvb {

using namespace dv;

namespace {

constexpr double k_latency_window_s = 1.0;
constexpr double k_sustain_p99_ms = 100.0;
constexpr double k_sustain_achieved = 0.97;
constexpr double k_backlog_growth = 1.5;
constexpr double k_backlog_slack_ms = 2.0;

/// Decorator around the production scorer recording each batch's scoring
/// interval. Called only from the service's worker thread.
class timing_scorer : public batch_scorer {
 public:
  explicit timing_scorer(batch_scorer& inner) : inner_{inner} {}
  std::vector<scoring_result> score(const tensor& frames) override {
    batch_rec r;
    r.start = now_ns();
    auto rows = inner_.score(frames);
    r.end = now_ns();
    r.frames = frames.extent(0);
    records_.push_back(r);
    return rows;
  }
  const std::vector<batch_rec>& records() const { return records_; }

 private:
  batch_scorer& inner_;
  std::vector<batch_rec> records_;
};

void offer(monitor_service& service, const frame_stream& s, std::int64_t start,
           double rate, std::int64_t n, served_pass& out) {
  out.frames.assign(static_cast<std::size_t>(n), frame_rec{});
  struct pending {
    std::size_t index;
    std::future<monitor_verdict> verdict;
  };
  std::mutex mutex;
  std::condition_variable cv;
  std::deque<pending> queue;
  bool done = false;
  std::thread completer{[&] {
    for (;;) {
      std::unique_lock lock{mutex};
      cv.wait(lock, [&] { return !queue.empty() || done; });
      if (queue.empty()) return;
      pending p = std::move(queue.front());
      queue.pop_front();
      lock.unlock();
      frame_rec& rec = out.frames[p.index];
      try {
        rec.verdict = p.verdict.get();  // blocks; no spinning
      } catch (...) {
        rec.error = true;
      }
      rec.ready = now_ns();
    }
  }};

  // Whatever happens below, the completion thread is told to finish and
  // joined before the state it reads goes away.
  struct join_at_exit {
    std::mutex& mutex;
    std::condition_variable& cv;
    bool& done;
    std::thread& thread;
    ~join_at_exit() {
      {
        std::lock_guard lock{mutex};
        done = true;
      }
      cv.notify_one();
      thread.join();
    }
  };
  const join_at_exit joiner{mutex, cv, done, completer};

  // Sub-millisecond sleeps for the generator: 1 us timer slack on this
  // thread only. It is set after the service's worker and the completion
  // thread exist (threads inherit their creator's slack), so they keep the
  // production default, and it is restored on exit.
  struct timer_slack {
    int saved{prctl(PR_GET_TIMERSLACK, 0, 0, 0, 0)};
    timer_slack() { prctl(PR_SET_TIMERSLACK, 1000UL, 0, 0, 0); }
    ~timer_slack() { prctl(PR_SET_TIMERSLACK, static_cast<unsigned long>(saved), 0, 0, 0); }
  };
  const timer_slack slack;

  const double period_ns = 1e9 / rate;
  out.t0 = now_ns() + 1000000;
  for (std::int64_t i = 0; i < n; ++i) {
    frame_rec& rec = out.frames[static_cast<std::size_t>(i)];
    rec.due = out.t0 + static_cast<std::int64_t>(static_cast<double>(i) * period_ns);
    rec.pos = start + i;
    if (now_ns() < rec.due) {
      std::this_thread::sleep_until(std::chrono::steady_clock::time_point{
          std::chrono::nanoseconds{rec.due}});
    }
    rec.submit = now_ns();
    std::future<monitor_verdict> verdict;
    try {
      verdict = service.submit(s.frame(rec.pos));
    } catch (...) {
      // Rejected or refused: the frame never enters the verdict stream.
      rec.error = true;
      rec.ready = rec.submit;
      continue;
    }
    {
      std::lock_guard lock{mutex};
      queue.push_back({static_cast<std::size_t>(i), std::move(verdict)});
    }
    cv.notify_one();
  }
}

/// Mean verdict latency of the frames due in [from, to) of the offered
/// window (shares of it).
double mean_latency_ms(const served_pass& pass, std::int64_t window_ns,
                       double from, double to) {
  double sum = 0.0;
  std::int64_t n = 0;
  for (const auto& rec : pass.frames) {
    const double at = static_cast<double>(rec.due - pass.t0) / static_cast<double>(window_ns);
    if (at >= from && at < to) {
      sum += ms(rec.ready - rec.due);
      ++n;
    }
  }
  return n > 0 ? sum / static_cast<double>(n) : 0.0;
}

}  // namespace

served_pass serve_pass(const world& w, const frame_stream& s,
                       std::int64_t start, double rate, std::int64_t n,
                       bool timed) {
  deep_validator validator = w.validator;
  runtime_monitor monitor{*w.model, validator};
  validator_scorer scorer{*w.model, validator};
  timing_scorer timing{scorer};
  batch_scorer& front = timed ? static_cast<batch_scorer&>(timing) : scorer;
  served_pass out;
  {
    monitor_service service{front, monitor, serve_config{}};
    offer(service, s, start, rate, n, out);
    for (const auto& rec : out.frames) out.errors += rec.error ? 1 : 0;
    malloc_trim(0);
    out.rss_mb = dvb::rss_mb();
    service.shutdown();
  }
  if (const activation_cache* cache = scorer.frame_cache()) {
    out.act_hits = cache->lru().hits();
    out.act_misses = cache->lru().misses();
    out.act_bytes = cache->lru().bytes();
  }
  out.batches = timing.records();
  return out;
}

replayer::replayer(const world& w)
    : world_{w}, validator_{w.validator}, scorer_{*w.model, validator_} {}

std::int64_t replayer::check(const served_pass& pass, const frame_stream& s) {
  runtime_monitor monitor{*world_.model, validator_};
  std::int64_t bad = 0;
  for (const auto& rec : pass.frames) {
    if (rec.error) {
      ++bad;
      continue;
    }
    const auto& h = s.pool_hash[static_cast<std::size_t>(s.pool_index(rec.pos))];
    monitor_verdict v;
    const auto it = memo_.find(h);
    if (it == memo_.end()) {
      v = monitor.observe(s.frame(rec.pos));
      memo_.emplace(h, frame_score{v.discrepancy, v.prediction});
    } else {
      v = monitor.apply(it->second);
    }
    if (!same_verdict(v, rec.verdict)) ++bad;
  }
  return bad;
}

const frame_score& replayer::score_of(const frame_stream& s, std::int64_t pos) {
  const auto& h = s.pool_hash[static_cast<std::size_t>(s.pool_index(pos))];
  auto it = memo_.find(h);
  if (it == memo_.end()) {
    const monitor_verdict v = scorer_.observe(s.frame(pos));
    it = memo_.emplace(h, frame_score{v.discrepancy, v.prediction}).first;
  }
  return it->second;
}

latency_stats latency_of(const served_pass& pass, std::size_t from) {
  latency_stats out;
  std::map<std::int64_t, std::vector<double>> windows;
  std::vector<double> all;
  std::vector<double> late;
  if (from >= pass.frames.size()) return out;
  const auto window_ns = static_cast<std::int64_t>(k_latency_window_s * 1e9);
  const std::int64_t origin = pass.frames[from].due;
  for (std::size_t i = from; i < pass.frames.size(); ++i) {
    const auto& rec = pass.frames[i];
    if (rec.error) continue;
    const double l = ms(rec.ready - rec.due);
    const std::int64_t window = (rec.due - origin) / window_ns;
    windows[window].push_back(l);
    all.push_back(l);
    late.push_back(ms(rec.submit - rec.due));
  }
  if (windows.empty()) return out;
  const double full = static_cast<double>(windows.begin()->second.size());
  for (const auto& [index, v] : windows) {
    // A trailing window under half full is too short for its own p99.
    if (index > 0 && static_cast<double>(v.size()) < 0.5 * full) continue;
    out.window_p50_ms.push_back(quantile(v, 0.5));
    out.window_p99_ms.push_back(quantile(v, 0.99));
  }
  out.p50_ms = median(out.window_p50_ms);
  out.p99_ms = median(out.window_p99_ms);
  out.mean_ms = mean_of(all);
  out.lateness_p99_ms = quantile(late, 0.99);
  out.lateness_max_ms = late.empty() ? 0.0 : *std::max_element(late.begin(), late.end());
  return out;
}

trial_result judge_trial(const served_pass& pass, double rate) {
  trial_result r;
  const auto n = static_cast<std::int64_t>(pass.frames.size());
  std::int64_t last_ready = pass.t0;
  std::vector<double> lat;
  for (const auto& rec : pass.frames) {
    last_ready = std::max(last_ready, rec.ready);
    lat.push_back(ms(rec.ready - rec.due));
  }
  const auto window_ns = static_cast<std::int64_t>(static_cast<double>(n) / rate * 1e9);
  r.achieved = static_cast<double>(n) / seconds_between(pass.t0, last_ready);
  r.p99_ms = quantile(lat, 0.99);
  // Little's law: a growing backlog is a growing mean latency.
  r.early_ms = mean_latency_ms(pass, window_ns, 0.25, 0.5);
  r.late_ms = mean_latency_ms(pass, window_ns, 0.75, 1.0);
  const bool backlog_grows = r.late_ms > k_backlog_growth * r.early_ms + k_backlog_slack_ms;
  r.pass = pass.errors == 0 && r.achieved >= k_sustain_achieved * rate &&
           !backlog_grows && r.p99_ms <= k_sustain_p99_ms;
  return r;
}

std::vector<tensor> stack_frames(const frame_stream& s, std::int64_t start,
                                 const std::vector<std::int64_t>& sizes) {
  std::vector<tensor> out;
  std::int64_t pos = start;
  for (const std::int64_t n : sizes) {
    const tensor& first = s.frame(pos);
    tensor t{{n, first.extent(0), first.extent(1), first.extent(2)}};
    for (std::int64_t i = 0; i < n; ++i) t.set_sample(i, s.frame(pos + i));
    out.push_back(std::move(t));
    pos += n;
  }
  return out;
}

}  // namespace dvb
