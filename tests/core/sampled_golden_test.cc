// Golden regression for SAMPLED inference: the default config
// aggregates full neighbourhoods and never samples, so the other
// goldens leave the alias-sampler path and its RNG draw order unpinned.
// This test streams the 1211-record drift soak
// (tests/data/golden/drift_*.csv) through two paths that both sample:
//
//   * core::Gem::Infer over its overlay (OverlayCtx forward, touched
//     MAC rows growing with every record, detector fit on sampled
//     training embeddings through the base path), and
//   * a mutable embed::BiSageEmbedder::EmbedNew (BaseCtx forward over
//     a graph that grows in place),
//
// and pins both bit-exactly per kernel backend, for three shapes:
//
//   * sampled_scores: 2 layers, inference_fanouts = {6, 4};
//   * sampled_l3_scores: 3 layers, {6, 4, 3}. With two layers the MAC
//     nodes at layer 1 are the stream's last consumers, so only a
//     deeper model shows whether they advance it by the right draws;
//   * sampled_l3_uniform_scores: the same with uniform sampling (the
//     use_edge_weights ablation), which draws once per sample, not
//     twice.
//
// Regenerate after an intentional numerics change:
//
//   GEM_REGEN_GOLDEN=1 GEM_KERNELS=scalar ./sampled_golden_test
//   GEM_REGEN_GOLDEN=1 GEM_KERNELS=avx2   ./sampled_golden_test
//
// which rewrites tests/data/golden/sampled*_scores.<backend>.golden
// (the input CSVs belong to drift_golden_test and are only read here).

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/gem.h"
#include "embed/bisage.h"
#include "math/kernels.h"
#include "rf/record_io.h"

#ifndef GEM_TEST_DATA_DIR
#error "sampled_golden_test needs GEM_TEST_DATA_DIR (set in CMakeLists)"
#endif

namespace gem::core {
namespace {

std::string GoldenDir() {
  return std::string(GEM_TEST_DATA_DIR) + "/golden";
}

struct SampledCase {
  const char* fixture;
  std::vector<int> fanouts;
  bool use_edge_weights;
};

/// The golden suites' deterministic single-threaded shape, with the
/// training fanouts reused at inference time.
embed::BiSageConfig SampledBiSageConfig(const SampledCase& c) {
  embed::BiSageConfig config;
  config.dimension = 16;
  config.epochs = 2;
  config.seed = 5;
  config.num_threads = 1;
  config.deterministic = true;
  config.num_layers = static_cast<int>(c.fanouts.size());
  config.fanouts = c.fanouts;
  config.inference_fanouts = c.fanouts;
  config.use_edge_weights = c.use_edge_weights;
  return config;
}

class SampledGoldenTest : public ::testing::TestWithParam<SampledCase> {};

TEST_P(SampledGoldenTest, SampledInferenceMatchesCommittedGolden) {
  const SampledCase& c = GetParam();
  const std::string golden_path =
      GoldenDir() + "/" + c.fixture + "." +
      math::kernels::BackendName(math::kernels::ActiveBackend()) +
      ".golden";
  const bool regen = std::getenv("GEM_REGEN_GOLDEN") != nullptr;

  const auto train = rf::LoadRecordsCsv(GoldenDir() + "/drift_train.csv");
  ASSERT_TRUE(train.ok()) << train.status().ToString();
  const auto test = rf::LoadRecordsCsv(GoldenDir() + "/drift_test.csv");
  ASSERT_TRUE(test.ok()) << test.status().ToString();
  ASSERT_GE(test.value().size(), 1000u);

  GemConfig config;
  config.bisage = SampledBiSageConfig(c);
  Gem gem(config);
  ASSERT_TRUE(gem.Train(train.value()).ok());

  embed::BiSageEmbedder embedder(SampledBiSageConfig(c));
  ASSERT_TRUE(embedder.Fit(train.value()).ok());

  std::vector<std::string> actual;
  actual.reserve(test.value().size());
  for (const rf::ScanRecord& record : test.value()) {
    const InferenceResult result = gem.Infer(record);
    // The mutable path's embedding, folded in a fixed order: one ULP
    // anywhere in it moves the sum's bits.
    double sum = 0.0;
    const StatusOr<math::Vec> embedded = embedder.EmbedNew(record);
    if (embedded.ok()) {
      for (const double v : embedded.value()) sum += v;
    }
    char buf[128];
    std::snprintf(buf, sizeof(buf), "%a %d %d %a", result.score,
                  static_cast<int>(result.decision),
                  result.model_updated ? 1 : 0, sum);
    actual.push_back(buf);
  }

  if (regen) {
    std::ofstream out(golden_path, std::ios::trunc);
    ASSERT_TRUE(out.good()) << "cannot write " << golden_path;
    for (const std::string& line : actual) out << line << '\n';
    ASSERT_TRUE(out.good());
    GTEST_SKIP() << "regenerated " << golden_path << " (" << actual.size()
                 << " results) — commit the new fixture";
  }

  std::ifstream in(golden_path);
  ASSERT_TRUE(in.good())
      << golden_path << " missing — run with GEM_REGEN_GOLDEN=1";
  std::vector<std::string> expected;
  std::string line;
  while (std::getline(in, line)) {
    if (!line.empty()) expected.push_back(line);
  }

  ASSERT_EQ(actual.size(), expected.size());
  for (size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(actual[i], expected[i])
        << "record " << i
        << " drifted (format: score decision updated embedding_sum); if "
        << "the numerics change is intentional, regenerate with "
        << "GEM_REGEN_GOLDEN=1 and commit";
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, SampledGoldenTest,
    ::testing::Values(SampledCase{"sampled_scores", {6, 4}, true},
                      SampledCase{"sampled_l3_scores", {6, 4, 3}, true},
                      SampledCase{"sampled_l3_uniform_scores", {6, 4, 3},
                                  false}),
    [](const ::testing::TestParamInfo<SampledCase>& info) {
      return std::string(info.param.fixture);
    });

}  // namespace
}  // namespace gem::core
