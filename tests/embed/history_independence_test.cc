// Per-request embedding cost must not depend on a fence's history.
//
// Record nodes carry zero layer-0 features, so a MAC's layer-1
// aggregate over its record neighbours is exactly zero and the forward
// pass skips it. These tests pin the two halves of that contract:
//
//   * the number of neighbour rows one embed aggregates stays the same
//     after thousands of records sharing the probe's MACs join the
//     graph (and the probe's embedding stays bit-identical), on both
//     the mutable and the overlay path, in full-neighbourhood and in
//     sampled mode;
//   * stored record rows are never read: a model whose record rows are
//     overwritten with non-zero values embeds and scores identically
//     to the genuine model.

#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/gem.h"
#include "embed/bisage.h"
#include "math/rng.h"
#include "obs/metrics.h"
#include "tests/common/test_records.h"

namespace gem::embed {
namespace {

using testing::MakeTwoClusters;
using testing::NoisyRecord;

constexpr int kAppended = 5000;

BiSageConfig FastConfig() {
  BiSageConfig config;
  config.dimension = 16;
  config.epochs = 2;
  config.seed = 3;
  return config;
}

const std::vector<std::string> kStrong{"a0", "a1", "a2", "a3", "a4"};
const std::vector<std::string> kWeak{"s0", "s1", "b0"};

rf::ScanRecord Probe() {
  rf::ScanRecord probe;
  for (const std::string& mac : kStrong) {
    probe.readings.push_back(rf::Reading{mac, -52.0, rf::Band::k2_4GHz});
  }
  probe.readings.push_back(rf::Reading{"s0", -84.0, rf::Band::k2_4GHz});
  return probe;
}

uint64_t AggregatedRowsTotal() {
  return obs::MetricsRegistry::Get()
      .GetCounter("gem_bisage_aggregated_rows_total")
      .value();
}

class HistoryIndependenceTest
    : public ::testing::TestWithParam<std::vector<int>> {
 protected:
  BiSageConfig Config() const {
    BiSageConfig config = FastConfig();
    config.inference_fanouts = GetParam();
    return config;
  }
};

TEST_P(HistoryIndependenceTest, MutablePathAggregatesConstantRows) {
  graph::BipartiteGraph graph;
  for (const rf::ScanRecord& record : MakeTwoClusters(20, 11).records) {
    graph.AddRecord(record);
  }
  BiSage model(Config());
  ASSERT_TRUE(model.Train(graph).ok());
  const int d = model.config().dimension;

  BiSage::InferScratch scratch;
  const graph::NodeId probe = graph.AddRecord(Probe());
  math::Vec before(d);
  const uint64_t total_before = AggregatedRowsTotal();
  model.EmbedForward(graph, probe, scratch, before.data());
  const long rows_before = scratch.aggregated_rows();
  EXPECT_GT(rows_before, 0);
  EXPECT_EQ(AggregatedRowsTotal() - total_before,
            static_cast<uint64_t>(rows_before));

  math::Rng rng(17);
  for (int i = 0; i < kAppended; ++i) {
    graph.AddRecord(NoisyRecord(kStrong, kWeak, rng));
  }

  math::Vec after(d);
  model.EmbedForward(graph, probe, scratch, after.data());
  EXPECT_EQ(scratch.aggregated_rows(), rows_before);
  EXPECT_EQ(after, before);

  // A fresh copy of the probe, appended after the history, costs the
  // same as the original did on the young graph.
  const graph::NodeId late = graph.AddRecord(Probe());
  model.EmbedForward(graph, late, scratch, after.data());
  EXPECT_EQ(scratch.aggregated_rows(), rows_before);
}

TEST_P(HistoryIndependenceTest, OverlayPathAggregatesConstantRows) {
  graph::BipartiteGraph base;
  for (const rf::ScanRecord& record : MakeTwoClusters(20, 12).records) {
    base.AddRecord(record);
  }
  BiSage model(Config());
  ASSERT_TRUE(model.Train(base).ok());
  const int d = model.config().dimension;

  graph::GraphDelta delta;
  NodeTableDelta tables;
  const graph::OverlayGraphView view(base, delta);
  BiSage::InferScratch scratch;
  const graph::NodeId probe = delta.AddRecord(base, Probe());
  math::Vec before(d);
  model.EmbedForward(view, tables, probe, scratch, before.data());
  const long rows_before = scratch.aggregated_rows();
  EXPECT_GT(rows_before, 0);

  math::Rng rng(18);
  for (int i = 0; i < kAppended; ++i) {
    delta.AddRecord(base, NoisyRecord(kStrong, kWeak, rng));
  }

  math::Vec after(d);
  model.EmbedForward(view, tables, probe, scratch, after.data());
  EXPECT_EQ(scratch.aggregated_rows(), rows_before);
  EXPECT_EQ(after, before);

  const graph::NodeId late = delta.AddRecord(base, Probe());
  model.EmbedForward(view, tables, late, scratch, after.data());
  EXPECT_EQ(scratch.aggregated_rows(), rows_before);
}

INSTANTIATE_TEST_SUITE_P(FullAndSampled, HistoryIndependenceTest,
                         ::testing::Values(std::vector<int>{0, 0},
                                           std::vector<int>{6, 4}));

/// Rebuilds `gem` with every record node's stored layer-0 row replaced
/// by non-zero values; graph, weights, MAC rows and detector are the
/// genuine model's.
core::Gem WithNonZeroRecordRows(const core::Gem& gem) {
  const graph::BipartiteGraph& graph = gem.embedder().graph();
  std::vector<graph::NodeType> types;
  std::vector<std::vector<graph::Neighbor>> adjacency;
  for (graph::NodeId id = 0; id < graph.num_nodes(); ++id) {
    types.push_back(graph.type(id));
    adjacency.push_back(graph.neighbors(id));
  }
  std::vector<std::pair<std::string, graph::NodeId>> macs(
      graph.mac_index().begin(), graph.mac_index().end());
  auto rebuilt = graph::BipartiteGraph::FromParts(
      gem.config().edge_weight, std::move(types), std::move(adjacency),
      std::move(macs));
  EXPECT_TRUE(rebuilt.ok());

  BiSage::TrainedState state = gem.embedder().model().ExportTrained();
  state.h_table.Materialize();
  state.l_table.Materialize();
  int overwritten = 0;
  for (graph::NodeId id = 0; id < graph.num_nodes(); ++id) {
    if (graph.type(id) != graph::NodeType::kRecord) continue;
    for (int k = 0; k < state.h_table.cols(); ++k) {
      state.h_table.At(id, k) = 0.25 + 0.01 * k;
      state.l_table.At(id, k) = -0.5 + 0.02 * k;
    }
    ++overwritten;
  }
  EXPECT_GT(overwritten, 0);

  BiSageEmbedder embedder(gem.config().bisage, gem.config().edge_weight);
  EXPECT_TRUE(embedder
                  .RestoreFitted(std::move(rebuilt).value(),
                                 gem.embedder().train_nodes(),
                                 std::move(state))
                  .ok());
  auto tampered = core::Gem::FromParts(gem.config(), std::move(embedder),
                                       gem.detector());
  EXPECT_TRUE(tampered.ok());
  return std::move(tampered).value();
}

TEST(StoredRecordRowsTest, NonZeroRecordRowsScoreIdentically) {
  const auto data = MakeTwoClusters(20, 13);
  core::GemConfig config;
  config.bisage = FastConfig();
  core::Gem genuine(config);
  ASSERT_TRUE(genuine.Train(data.records).ok());
  const core::Gem tampered = WithNonZeroRecordRows(genuine);

  for (const graph::NodeId node : genuine.embedder().train_nodes()) {
    EXPECT_EQ(
        genuine.embedder().model().PrimaryEmbedding(genuine.embedder().graph(),
                                                     node),
        tampered.embedder().model().PrimaryEmbedding(
            tampered.embedder().graph(), node));
  }

  const auto stream = MakeTwoClusters(60, 14);
  core::GemOverlay genuine_overlay;
  core::GemOverlay tampered_overlay;
  int absorbed = 0;
  for (const rf::ScanRecord& record : stream.records) {
    const core::InferenceResult a = genuine.Infer(record, genuine_overlay);
    const core::InferenceResult b = tampered.Infer(record, tampered_overlay);
    EXPECT_EQ(a.score, b.score);
    EXPECT_EQ(a.decision, b.decision);
    EXPECT_EQ(a.model_updated, b.model_updated);
    absorbed += a.model_updated ? 1 : 0;
  }
  EXPECT_GT(absorbed, 0) << "stream never exercised self-enhancement";
}

}  // namespace
}  // namespace gem::embed
