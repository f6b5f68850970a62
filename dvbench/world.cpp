#include "world.h"

#include <cmath>
#include <set>
#include <utility>

#include "augment/corner_case.h"
#include "augment/stream.h"
#include "augment/transforms.h"
#include "common.h"
#include "eval/metrics.h"
#include "nn/trainer.h"
#include "pipeline/models.h"
#include "util/rng.h"
#include "util/strong_lru.h"

namespace dvb {

using namespace dv;

namespace {

dv::deep_validator_config base_validator_config() {
  dv::deep_validator_config c;
  c.svm.nu = 0.1;
  c.svm.gamma = 0.0;  // 1/(d*var) heuristic
  c.spatial = 1;      // GAP reducer for conv probes
  c.seed = 17;
  return c;
}

/// Fixed Table IV chains of one dataset kind plus the paper's combined one;
/// complement only applies to greyscale. Every continuous parameter gets
/// a seeded +-5% jitter.
std::vector<std::pair<std::string, transform_chain>> corner_chains(
    dataset_kind kind, rng& gen) {
  const auto j = [&gen](float x) {
    return x * static_cast<float>(gen.uniform(0.95, 1.05));
  };
  using tk = transform_kind;
  std::vector<std::pair<std::string, transform_chain>> out;
  out.push_back({"brightness", {{tk::brightness, j(0.55f), 0.0f}}});
  out.push_back({"contrast", {{tk::contrast, j(2.8f), 0.0f}}});
  out.push_back({"rotation", {{tk::rotation, j(40.0f), 0.0f}}});
  const float sh = j(0.45f);
  out.push_back({"shear", {{tk::shear, sh, sh}}});
  const float sc = j(0.55f);
  out.push_back({"scale", {{tk::scale, sc, sc}}});
  const float tr = std::round(j(9.0f));
  out.push_back({"translation", {{tk::translation, tr, tr}}});
  const float sc2 = j(0.7f);
  if (kind == dataset_kind::digits) {
    out.push_back({"complement", {{tk::complement, 0.0f, 0.0f}}});
    // Paper Table V: MNIST combines complement with scale.
    out.push_back({"combined",
                   {{tk::complement, 0.0f, 0.0f}, {tk::scale, sc2, sc2}}});
  } else {
    // CIFAR-10: brightness with scale.
    out.push_back({"combined",
                   {{tk::brightness, j(0.4f), 0.0f}, {tk::scale, sc2, sc2}}});
  }
  return out;
}

}  // namespace

world_spec digits_spec() {
  world_spec s;
  s.kind = dataset_kind::digits;
  s.train_size = 1200;
  s.test_size = 500;
  s.epochs = 2;
  s.validator = base_validator_config();
  s.validator.max_train_per_class = 60;
  s.corner_seeds = 48;
  return s;
}

world_spec objects_spec() {
  world_spec s;
  s.kind = dataset_kind::objects;
  s.train_size = 600;
  s.test_size = 256;
  s.epochs = 5;
  s.validator = base_validator_config();
  s.validator.max_train_per_class = 40;
  // The paper validates only the last six DenseNet layers (§IV-C).
  s.validator.last_probes = 6;
  s.corner_seeds = 96;
  return s;
}

world build_world(const world_spec& spec, std::uint64_t seed) {
  world w;
  w.spec = spec;
  const std::int64_t t0 = now_ns();

  dataset_split_spec split;
  split.kind = spec.kind;
  split.train_size = spec.train_size;
  split.test_size = spec.test_size;
  split.seed = spec.data_seed;
  w.data = make_dataset(split);
  const std::int64_t t1 = now_ns();

  w.model = make_model(spec.kind, spec.model_seed);
  train_config tc;
  tc.optimizer = train_config::opt_kind::adadelta;
  tc.lr = 1.0f;
  tc.lr_decay = 0.95f;
  tc.batch_size = 64;
  tc.epochs = spec.epochs;
  tc.shuffle_seed = 7;
  tc.verbose = false;
  (void)fit(*w.model, w.data.train.images, w.data.train.labels, tc);
  const std::int64_t t2 = now_ns();

  deep_validator fitted;
  fitted.fit(*w.model, w.data.train, spec.validator);
  // Copy before any scoring so the kept bank's decision caches are cold.
  w.validator = fitted;
  const std::int64_t t3 = now_ns();

  const auto clean = fitted.evaluate(*w.model, w.data.test.images);
  w.validator.set_threshold(threshold_for_fpr(clean.joint, 0.05));
  std::int64_t correct = 0;
  for (std::int64_t i = 0; i < w.data.test.size(); ++i) {
    const auto k = static_cast<std::size_t>(i);
    correct += clean.predictions[k] == w.data.test.labels[k] ? 1 : 0;
  }
  w.test_accuracy =
      static_cast<double>(correct) / static_cast<double>(w.data.test.size());
  const std::int64_t t4 = now_ns();

  rng gen{seed ^ 0xC0A7E5ULL};
  const dataset seeds =
      select_seeds(*w.model, w.data.test, spec.corner_seeds, gen.next_u64());
  const auto chains = corner_chains(spec.kind, gen);
  const std::int64_t per = seeds.size();
  const std::int64_t n = per * static_cast<std::int64_t>(chains.size());
  const auto& shape = seeds.images.shape();
  w.corners.images = tensor{{n, shape[1], shape[2], shape[3]}};
  for (std::size_t c = 0; c < chains.size(); ++c) {
    const dataset t = transform_dataset(seeds, chains[c].second);
    for (std::int64_t i = 0; i < per; ++i) {
      w.corners.images.set_sample(static_cast<std::int64_t>(c) * per + i,
                                  t.images.sample(i));
      w.corners.labels.push_back(seeds.labels[static_cast<std::size_t>(i)]);
      w.corners.chain.push_back(static_cast<int>(c));
    }
    w.corners.chain_names.push_back(chains[c].first);
  }
  const std::int64_t t5 = now_ns();

  w.times.data_gen_s = seconds_between(t0, t1);
  w.times.train_s = seconds_between(t1, t2);
  w.times.bank_fit_s = seconds_between(t2, t3);
  w.times.threshold_s = seconds_between(t3, t4);
  w.times.corner_gen_s = seconds_between(t4, t5);
  w.times.total_s = seconds_between(t0, t5);
  return w;
}

namespace {

std::pair<std::uint64_t, std::uint64_t> hash_of(const tensor& t) {
  const strong_hash h = strong_hash::of_bytes(
      t.data(), static_cast<std::size_t>(t.numel()) * sizeof(float));
  return {h.hi, h.lo};
}

/// The stream's clean source: the test split in a seeded order.
dataset shuffled_source(const world& w, rng& gen) {
  std::vector<std::int64_t> idx(static_cast<std::size_t>(w.data.test.size()));
  for (std::size_t i = 0; i < idx.size(); ++i) {
    idx[i] = static_cast<std::int64_t>(i);
  }
  gen.shuffle_indices(idx.size(), [&](std::size_t a, std::size_t b) {
    std::swap(idx[a], idx[b]);
  });
  return w.data.test.subset(idx);
}

stream_config walk_config(rng& gen, float walk_scale) {
  stream_config sc;
  const auto sign = [&gen] { return gen.bernoulli(0.5) ? 1.0f : -1.0f; };
  sc.drift.brightness_bias = sign() * static_cast<float>(gen.uniform(1e-5, 5e-5));
  sc.drift.rotation_deg = sign() * static_cast<float>(gen.uniform(1e-3, 4e-3));
  sc.walk_stddev.brightness_bias = 0.004f * walk_scale;
  sc.walk_stddev.contrast_gain = 0.004f * walk_scale;
  sc.walk_stddev.rotation_deg = 0.3f * walk_scale;
  sc.walk_stddev.translate_x = 0.05f * walk_scale;
  sc.walk_stddev.translate_y = 0.05f * walk_scale;
  sc.max_brightness = 0.4f;
  sc.max_rotation = 30.0f;
  sc.max_translation = 4.0f;
  sc.min_contrast = 0.6f;
  sc.max_contrast = 1.6f;
  sc.seed = gen.next_u64();
  return sc;
}

}  // namespace

frame_stream make_live_stream(const world& w, std::uint64_t seed,
                              std::int64_t frames) {
  rng gen{seed ^ 0x11BE57ULL};
  const dataset source = shuffled_source(w, gen);
  environment_stream env{source, walk_config(gen, 1.0f)};
  frame_stream s;
  s.pool.reserve(static_cast<std::size_t>(frames));
  for (std::int64_t k = 0; k < frames; ++k) {
    s.pool.push_back(env.next().image);
    s.pool_hash.push_back(hash_of(s.pool.back()));
    s.order.push_back(static_cast<std::int32_t>(k));
  }
  return s;
}

frame_stream make_static_stream(const world& w, std::uint64_t seed,
                                std::int64_t frames) {
  rng gen{seed ^ 0x57A71CULL};
  const dataset source = shuffled_source(w, gen);
  // A slow walk: consecutive scenes differ, but only a little.
  environment_stream env{source, walk_config(gen, 0.25f)};
  frame_stream s;
  constexpr int k_recurring = 8;
  const auto add_scene = [&] {
    s.pool.push_back(env.next().image);
    s.pool_hash.push_back(hash_of(s.pool.back()));
    return static_cast<std::int32_t>(s.pool.size() - 1);
  };
  for (int r = 0; r < k_recurring; ++r) (void)add_scene();
  while (s.size() < frames) {
    const std::int32_t scene =
        gen.bernoulli(1.0 / 8.0)
            ? static_cast<std::int32_t>(gen.uniform_int(0, k_recurring - 1))
            : add_scene();
    const int hold = gen.uniform_int(6, 10);
    for (int h = 0; h < hold && s.size() < frames; ++h) {
      s.order.push_back(scene);
    }
  }
  return s;
}

double repeat_share(const frame_stream& s, std::int64_t frames) {
  std::set<std::pair<std::uint64_t, std::uint64_t>> seen;
  std::int64_t repeats = 0;
  for (std::int64_t k = 0; k < frames; ++k) {
    const auto& h = s.pool_hash[static_cast<std::size_t>(s.pool_index(k))];
    if (!seen.insert(h).second) ++repeats;
  }
  return frames > 0 ? static_cast<double>(repeats) / static_cast<double>(frames)
                    : 0.0;
}

std::uint64_t stream_digest(const frame_stream& s, std::int64_t frames) {
  std::uint64_t d = 1469598103934665603ULL;
  for (std::int64_t k = 0; k < frames; ++k) {
    const auto& h = s.pool_hash[static_cast<std::size_t>(s.pool_index(k))];
    d = (d ^ h.first) * 1099511628211ULL;
    d = (d ^ h.second) * 1099511628211ULL;
  }
  return d;
}

}  // namespace dvb
