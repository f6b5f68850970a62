// Failure injection: corrupted or mismatched artifacts must fail loudly
// (serialize_error), never silently load garbage into a deployed detector.
// Validator banks are `.dvsnap` snapshots (docs/SNAPSHOTS.md); model
// params and corner suites still use util/serialize.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <fstream>

#include "core/deep_validator.h"
#include "core/validator_bank.h"
#include "pipeline/corner_suite.h"
#include "test_util.h"
#include "util/flat_snapshot.h"
#include "util/serialize.h"

namespace dv {
namespace {

using dv::testing::shared_tiny_world;

std::string temp_path(const char* name) {
  return ::testing::TempDir() + "/" + name;
}

void truncate_file(const std::string& path, std::size_t keep_bytes) {
  std::ifstream in{path, std::ios::binary};
  std::string content{std::istreambuf_iterator<char>{in},
                      std::istreambuf_iterator<char>{}};
  content.resize(std::min(keep_bytes, content.size()));
  std::ofstream out{path, std::ios::binary | std::ios::trunc};
  out << content;
}

void flip_byte(const std::string& path, std::size_t offset) {
  std::fstream f{path, std::ios::binary | std::ios::in | std::ios::out};
  f.seekg(static_cast<std::streamoff>(offset));
  char c{};
  f.get(c);
  f.seekp(static_cast<std::streamoff>(offset));
  f.put(static_cast<char>(c ^ 0x5a));
}

deep_validator make_fitted_validator() {
  const auto& world = shared_tiny_world();
  deep_validator dv;
  deep_validator_config cfg;
  cfg.max_train_per_class = 25;
  dv.fit(*world.model, world.train, cfg);
  return dv;
}

/// Both snapshot readers — the zero-copy bank view and the materialized
/// builder — must refuse `path` with serialize_error.
void expect_both_loaders_reject(const std::string& path) {
  EXPECT_THROW(
      (void)validator_bank_view::from_snapshot(snapshot_view::open(path)),
      serialize_error);
  EXPECT_THROW((void)deep_validator::load_snapshot(path), serialize_error);
}

bool same_doubles(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         (a.empty() || std::memcmp(a.data(), b.data(),
                                   a.size() * sizeof(double)) == 0);
}

TEST(FailureInjection, ValidatorWrongMagicRejected) {
  const std::string path = temp_path("fi_magic.dvsnap");
  make_fitted_validator().save_snapshot(path);
  flip_byte(path, 0);  // first byte of the header magic
  expect_both_loaders_reject(path);
  std::remove(path.c_str());
}

TEST(FailureInjection, TruncatedValidatorRejected) {
  const std::string path = temp_path("fi_trunc.dvsnap");
  make_fitted_validator().save_snapshot(path);
  truncate_file(path, 200);
  expect_both_loaders_reject(path);
  std::remove(path.c_str());
}

TEST(FailureInjection, MissingValidatorFileRejected) {
  expect_both_loaders_reject(temp_path("does_not_exist.dvsnap"));
}

TEST(FailureInjection, TruncatedModelParamsRejected) {
  const auto& world = shared_tiny_world();
  const std::string path = temp_path("fi_model.bin");
  world.model->save_params(path);
  truncate_file(path, 100);
  auto fresh = dv::testing::make_tiny_model(1);
  EXPECT_THROW(fresh->load_params(path), serialize_error);
  std::remove(path.c_str());
}

TEST(FailureInjection, CorruptedSuiteLengthFieldRejected) {
  const std::string path = temp_path("fi_suite.bin");
  corner_suite suite;
  suite.seeds.images = tensor{{1, 1, 2, 2}};
  suite.seeds.labels = {0};
  suite.seeds.num_classes = 10;
  suite.save(path);
  // Flip a byte inside the header region (after the magic string) — either
  // the read fails structurally or downstream length checks trip.
  flip_byte(path, 30);
  EXPECT_THROW((void)corner_suite::load(path), serialize_error);
  std::remove(path.c_str());
}

TEST(FailureInjection, ValidatorSurvivesRoundTripAfterSave) {
  // Control case: an untouched snapshot loads through both readers and
  // scores bitwise identically to the fitted bank.
  const auto& world = shared_tiny_world();
  const std::string path = temp_path("fi_ok.dvsnap");
  deep_validator dv = make_fitted_validator();
  dv.set_threshold(1.25);
  dv.save_snapshot(path);
  const auto bank =
      validator_bank_view::from_snapshot(snapshot_view::open(path));
  const deep_validator loaded = deep_validator::load_snapshot(path);
  EXPECT_EQ(bank.threshold(), 1.25);
  EXPECT_EQ(loaded.threshold(), 1.25);
  EXPECT_EQ(loaded.validated_layers(), dv.validated_layers());
  const tensor img = world.test.images.slice_rows(0, 3);
  const auto expected = dv.evaluate(*world.model, img);
  for (const auto& got : {bank.evaluate(*world.model, img),
                          loaded.evaluate(*world.model, img)}) {
    EXPECT_EQ(got.predictions, expected.predictions);
    EXPECT_TRUE(same_doubles(got.joint, expected.joint));
    ASSERT_EQ(got.per_layer.size(), expected.per_layer.size());
    for (std::size_t l = 0; l < got.per_layer.size(); ++l) {
      EXPECT_TRUE(same_doubles(got.per_layer[l], expected.per_layer[l]));
    }
  }
  std::remove(path.c_str());
}

}  // namespace
}  // namespace dv
