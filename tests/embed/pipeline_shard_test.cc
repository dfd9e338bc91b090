// Shard-level tests of the staged parallel-training pipeline
// (DESIGN.md §8): deterministic mode must be bit-identical at every
// thread count, default mode run-to-run deterministic at a fixed
// count, and shard-boundary edge cases (shard count > record count,
// single-pair shards, short last shards) must neither crash nor change
// the deterministic numerics.
#include <gtest/gtest.h>

#include <cstdlib>
#include <vector>

#include "embed/bisage.h"
#include "graph/bipartite_graph.h"
#include "tests/common/test_records.h"

namespace gem::embed {
namespace {

using testing::MakeTwoClusters;

int EnvThreads() {
  if (const char* env = std::getenv("GEM_THREADS")) {
    const int parsed = std::atoi(env);
    if (parsed >= 1) return parsed;
  }
  return 4;
}

BiSageConfig FastConfig() {
  BiSageConfig config;
  config.dimension = 16;
  config.epochs = 2;
  config.seed = 9;
  return config;
}

graph::BipartiteGraph BuildGraph(const std::vector<rf::ScanRecord>& records) {
  graph::BipartiteGraph graph;
  for (const auto& record : records) graph.AddRecord(record);
  return graph;
}

void ExpectBitIdentical(const math::Matrix& a, const math::Matrix& b,
                        const char* what) {
  ASSERT_EQ(a.rows(), b.rows()) << what;
  ASSERT_EQ(a.cols(), b.cols()) << what;
  for (int r = 0; r < a.rows(); ++r) {
    for (int c = 0; c < a.cols(); ++c) {
      ASSERT_EQ(a.At(r, c), b.At(r, c))
          << what << " differs at (" << r << "," << c << ")";
    }
  }
}

void ExpectSameTrainedState(const BiSage::TrainedState& a,
                            const BiSage::TrainedState& b) {
  ExpectBitIdentical(a.h_table, b.h_table, "h_table");
  ExpectBitIdentical(a.l_table, b.l_table, "l_table");
  ASSERT_EQ(a.w_h.size(), b.w_h.size());
  ASSERT_EQ(a.w_l.size(), b.w_l.size());
  for (size_t k = 0; k < a.w_h.size(); ++k) {
    ExpectBitIdentical(a.w_h[k], b.w_h[k], "w_h");
    ExpectBitIdentical(a.w_l[k], b.w_l[k], "w_l");
  }
  EXPECT_EQ(a.last_epoch_loss, b.last_epoch_loss);
}

BiSage::TrainedState TrainOnce(BiSageConfig config,
                               const graph::BipartiteGraph& graph) {
  BiSage model(config);
  EXPECT_TRUE(model.Train(graph).ok());
  return model.ExportTrained();
}

// The parallel-vs-sequential differential: deterministic training at
// 1/2/8/GEM_THREADS threads must produce bit-identical weights — the
// sequential single-thread run is the reference the parallel builds
// are compared against.
TEST(PipelineShardTest, DeterministicBitIdenticalAcrossThreadCounts) {
  const auto data = MakeTwoClusters(12, 21);
  const auto graph = BuildGraph(data.records);
  BiSageConfig config = FastConfig();
  config.deterministic = true;

  config.num_threads = 1;
  const auto reference = TrainOnce(config, graph);
  for (const int threads : {2, 8, EnvThreads()}) {
    config.num_threads = threads;
    const auto state = TrainOnce(config, graph);
    ExpectSameTrainedState(reference, state);
  }
}

// Default (non-deterministic) mode pins a weaker but still hard
// contract: the same config trains to the same bits run over run.
TEST(PipelineShardTest, DefaultModeRunToRunDeterministic) {
  const auto data = MakeTwoClusters(12, 22);
  const auto graph = BuildGraph(data.records);
  for (const int threads : {1, 2, EnvThreads()}) {
    BiSageConfig config = FastConfig();
    config.num_threads = threads;
    const auto first = TrainOnce(config, graph);
    const auto second = TrainOnce(config, graph);
    ExpectSameTrainedState(first, second);
  }
}

// Shard count > record count: 8 workers over a 2-record graph leaves
// most shard slots idle every wave. Training must still converge to
// the same bits as the single-thread deterministic run.
TEST(PipelineShardTest, MoreShardsThanRecords) {
  const auto data = MakeTwoClusters(1, 24);  // 2 records total
  const auto graph = BuildGraph(data.records);
  BiSageConfig config = FastConfig();
  config.num_threads = 8;
  BiSage model(config);
  ASSERT_TRUE(model.Train(graph).ok());

  config.deterministic = true;
  config.num_threads = 1;
  const auto reference = TrainOnce(config, graph);
  config.num_threads = 8;
  const auto wide = TrainOnce(config, graph);
  ExpectSameTrainedState(reference, wide);
}

// Single-pair shards (batch_pairs = 1) are the finest legal shard
// size: every wave is num_threads shards of one pair each.
TEST(PipelineShardTest, SinglePairShards) {
  const auto data = MakeTwoClusters(6, 25);
  const auto graph = BuildGraph(data.records);
  BiSageConfig config = FastConfig();
  config.batch_pairs = 1;
  for (const int threads : {1, 8}) {
    config.num_threads = threads;
    BiSage model(config);
    ASSERT_TRUE(model.Train(graph).ok());
    EXPECT_TRUE(model.trained());
  }
  config.deterministic = true;
  config.num_threads = 1;
  const auto reference = TrainOnce(config, graph);
  config.num_threads = 8;
  ExpectSameTrainedState(reference, TrainOnce(config, graph));
}

// A single-record graph has no record-to-record pairs via one MAC hop?
// It does: walks alternate record -> MAC -> record, and with one
// record the walk bounces between the record and its MACs, still
// emitting pairs. The pipeline must handle the resulting short,
// ragged shard list.
TEST(PipelineShardTest, SingleRecordGraph) {
  const auto data = MakeTwoClusters(1, 26);
  graph::BipartiteGraph graph;
  graph.AddRecord(data.records.front());
  for (const int threads : {1, 8}) {
    BiSageConfig config = FastConfig();
    config.num_threads = threads;
    BiSage model(config);
    ASSERT_TRUE(model.Train(graph).ok()) << "threads=" << threads;
    EXPECT_TRUE(model.trained());
  }
}

// Oversized batch_pairs (bigger than the whole pair list) makes every
// epoch a single short shard — the empty-tail edge of the wave
// scheduler.
TEST(PipelineShardTest, BatchLargerThanPairList) {
  const auto data = MakeTwoClusters(2, 27);
  const auto graph = BuildGraph(data.records);
  BiSageConfig config = FastConfig();
  config.batch_pairs = 1 << 20;
  for (const int threads : {1, 4}) {
    config.num_threads = threads;
    BiSage model(config);
    ASSERT_TRUE(model.Train(graph).ok()) << "threads=" << threads;
  }
}

}  // namespace
}  // namespace gem::embed
