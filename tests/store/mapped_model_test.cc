// MappedModel + mapped FenceCache serving tests: the zero-copy load
// path must be indistinguishable from the copy load at the API
// boundary — bit-identical Infer scores over the same stream — while
// eviction (munmap) must never invalidate a pinned holder's borrowed
// views, and overlay flush must round-trip online updates through the
// snapshot file. This suite runs under ASan/UBSan in CI (a stale view
// over an unmapped page is exactly what ASan exists to catch).

#include "store/mapped_model.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/gem.h"
#include "core/overlay.h"
#include "rf/dataset.h"
#include "store/fence_cache.h"
#include "store/snapshot_v2.h"
#include "tests/common/test_snapshots.h"

namespace gem::store {
namespace {

std::string TempPath(const std::string& name) {
  return std::string(::testing::TempDir()) + "/" + name;
}

rf::Dataset SmallDataset(int user = 2, uint64_t seed = 77) {
  rf::DatasetOptions options;
  options.train_duration_s = 180.0;
  options.test_segments = 2;
  options.test_segment_duration_s = 60.0;
  options.seed = seed;
  return rf::GenerateScenarioDataset(rf::HomePreset(user), options);
}

core::GemConfig FastConfig() {
  core::GemConfig config;
  config.bisage.dimension = 8;
  config.bisage.epochs = 1;
  return config;
}

core::Gem TrainedGem(const rf::Dataset& data) {
  core::Gem gem(FastConfig());
  EXPECT_TRUE(gem.Train(data.train).ok());
  return gem;
}

TEST(MappedModelOptionsTest, ValidateRejectsNegativeBudget) {
  MappedModelOptions options;
  EXPECT_TRUE(options.Validate().ok());
  options.max_file_bytes = -1;
  EXPECT_EQ(options.Validate().code(), StatusCode::kInvalidArgument);
}

TEST(MappedModelTest, MissingFileIsNotFound) {
  EXPECT_EQ(MappedModel::Open(TempPath("no_such_model.snap")).code(),
            StatusCode::kNotFound);
}

TEST(MappedModelTest, RejectsV1Snapshots) {
  const std::string path = TempPath("mapped_v1.snap");
  testing::WriteV1Snapshot(path);
  const StatusOr<MappedModel> mapped = MappedModel::Open(path);
  EXPECT_EQ(mapped.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(mapped.status().message().find("v1"), std::string::npos)
      << mapped.status().ToString();
}

TEST(MappedModelTest, RejectsOverBudgetFiles) {
  const rf::Dataset data = SmallDataset();
  core::Gem gem = TrainedGem(data);
  const std::string path = TempPath("mapped_budget.snap");
  ASSERT_TRUE(SaveSnapshotV2(path, gem).ok());
  MappedModelOptions options;
  options.max_file_bytes = 16;  // far below any real snapshot
  EXPECT_EQ(MappedModel::Open(path, options).code(),
            StatusCode::kInvalidArgument);
}

// The acceptance bar of the zero-copy path: mapped and copy-loaded
// models must serve BIT-identical results over the same stream.
TEST(MappedModelTest, MappedLoadMatchesCopyLoadBitExactly) {
  const rf::Dataset data = SmallDataset();
  core::Gem trained = TrainedGem(data);
  const std::string path = TempPath("mapped_identity.snap");
  ASSERT_TRUE(SaveSnapshotV2(path, trained).ok());

  StatusOr<core::Gem> copied = LoadSnapshotAuto(path);
  ASSERT_TRUE(copied.ok()) << copied.status().ToString();
  StatusOr<MappedModel> mapped = MappedModel::Open(path);
  ASSERT_TRUE(mapped.ok()) << mapped.status().ToString();
  EXPECT_GT(mapped->file_bytes(), 0u);

  core::GemOverlay copy_overlay;
  core::GemOverlay map_overlay;
  for (size_t i = 0; i < data.test.size(); ++i) {
    const core::InferenceResult a =
        copied->Infer(data.test[i], copy_overlay);
    const core::InferenceResult b =
        mapped->gem().Infer(data.test[i], map_overlay);
    ASSERT_EQ(a.score, b.score) << "record " << i;
    ASSERT_EQ(a.decision, b.decision) << "record " << i;
    ASSERT_EQ(a.model_updated, b.model_updated) << "record " << i;
  }
}

// A mapped Gem moved out of its loader (the Fence transfer) keeps
// serving as long as the caller holds the backing alongside it.
TEST(MappedModelTest, TakenGemServesUnderHeldBacking) {
  const rf::Dataset data = SmallDataset();
  core::Gem trained = TrainedGem(data);
  const std::string path = TempPath("mapped_take.snap");
  ASSERT_TRUE(SaveSnapshotV2(path, trained).ok());

  StatusOr<MappedModel> mapped = MappedModel::Open(path);
  ASSERT_TRUE(mapped.ok());
  std::shared_ptr<MmapFile> backing = mapped->backing();
  core::Gem gem = std::move(*mapped).TakeGem();

  core::GemOverlay overlay;
  core::GemOverlay reference_overlay;
  core::Gem reference = TrainedGem(data);
  for (const rf::ScanRecord& record : data.test) {
    const core::InferenceResult a = reference.Infer(record,
                                                    reference_overlay);
    const core::InferenceResult b = gem.Infer(record, overlay);
    ASSERT_EQ(a.score, b.score);
  }
}

// Eviction under traffic: capacity-1 cache, fence A pinned while B's
// load evicts it. A's holder must keep serving correct results off its
// borrowed views — the shared backing keeps the mapping alive past the
// cache's munmap-equivalent drop.
TEST(FenceCacheMappedTest, EvictionKeepsPinnedBorrowedViewsAlive) {
  const rf::Dataset data_a = SmallDataset(2, 77);
  const rf::Dataset data_b = SmallDataset(0, 31);
  core::Gem gem_a = TrainedGem(data_a);
  core::Gem gem_b = TrainedGem(data_b);
  const std::string path_a = TempPath("mapped_evict_a.snap");
  const std::string path_b = TempPath("mapped_evict_b.snap");
  ASSERT_TRUE(SaveSnapshotV2(path_a, gem_a).ok());
  ASSERT_TRUE(SaveSnapshotV2(path_b, gem_b).ok());

  FenceCacheOptions options;
  options.capacity = 1;
  FenceCache cache(options);
  ASSERT_TRUE(cache.Register("a", path_a).ok());
  ASSERT_TRUE(cache.Register("b", path_b).ok());

  StatusOr<std::shared_ptr<serve::Fence>> fence_a = cache.Acquire("a");
  ASSERT_TRUE(fence_a.ok()) << fence_a.status().ToString();
  ASSERT_TRUE((*fence_a)->backing != nullptr);  // mapped, not copied

  // Reference results computed against the still-resident model.
  std::vector<double> expected;
  {
    core::GemOverlay probe;
    core::Gem reference = TrainedGem(data_a);
    for (const rf::ScanRecord& record : data_a.test) {
      expected.push_back(reference.Infer(record, probe).score);
    }
  }

  // Loading B evicts A from the cache (capacity 1) while we hold it.
  StatusOr<std::shared_ptr<serve::Fence>> fence_b = cache.Acquire("b");
  ASSERT_TRUE(fence_b.ok());
  EXPECT_EQ(cache.resident(), 1u);

  // The pinned holder serves the full stream off the evicted mapping.
  for (size_t i = 0; i < data_a.test.size(); ++i) {
    const core::InferenceResult result =
        (*fence_a)->gem.Infer(data_a.test[i], (*fence_a)->overlay);
    ASSERT_EQ(result.score, expected[i]) << "record " << i;
  }
}

// Overlay flush round-trip: traffic absorbed into a fence's overlay
// must survive evict -> reload, and the reloaded (compacted) model
// must continue the stream exactly where base+overlay left off.
TEST(FenceCacheMappedTest, FlushOnEvictPersistsOverlayBitExactly) {
  const rf::Dataset data = SmallDataset();
  core::Gem trained = TrainedGem(data);
  const std::string path = TempPath("mapped_flush.snap");
  const std::string decoy = TempPath("mapped_flush_decoy.snap");
  ASSERT_TRUE(SaveSnapshotV2(path, trained).ok());
  ASSERT_TRUE(SaveSnapshotV2(decoy, trained).ok());

  // Reference: one continuously-served model over the whole stream.
  std::vector<core::InferenceResult> expected;
  {
    core::Gem reference = TrainedGem(data);
    core::GemOverlay overlay;
    for (const rf::ScanRecord& record : data.test) {
      expected.push_back(reference.Infer(record, overlay));
    }
  }

  FenceCacheOptions options;
  options.capacity = 1;
  FenceCache cache(options);
  ASSERT_TRUE(cache.Register("home", path).ok());
  ASSERT_TRUE(cache.Register("decoy", decoy).ok());

  const size_t split_at = data.test.size() / 2;
  {
    StatusOr<std::shared_ptr<serve::Fence>> fence = cache.Acquire("home");
    ASSERT_TRUE(fence.ok());
    for (size_t i = 0; i < split_at; ++i) {
      const core::InferenceResult result =
          (*fence)->gem.Infer(data.test[i], (*fence)->overlay);
      ASSERT_EQ(result.score, expected[i].score) << "record " << i;
    }
    // Pin released here: the cache holds the last reference.
  }

  // Evict "home" (capacity 1): the non-empty overlay is compacted and
  // the snapshot file atomically rewritten.
  ASSERT_TRUE(cache.Acquire("decoy").ok());

  // Reload serves the flushed model: the second half of the stream
  // continues bit-exactly.
  StatusOr<std::shared_ptr<serve::Fence>> reloaded = cache.Acquire("home");
  ASSERT_TRUE(reloaded.ok());
  EXPECT_GT((*reloaded)->generation, 1u);
  for (size_t i = split_at; i < data.test.size(); ++i) {
    const core::InferenceResult result =
        (*reloaded)->gem.Infer(data.test[i], (*reloaded)->overlay);
    ASSERT_EQ(result.score, expected[i].score) << "record " << i;
    ASSERT_EQ(result.decision, expected[i].decision) << "record " << i;
    ASSERT_EQ(result.model_updated, expected[i].model_updated)
        << "record " << i;
  }
}

// Explicit Flush(): persists without waiting for eviction, and a
// subsequent Acquire serves the compacted model.
TEST(FenceCacheMappedTest, ExplicitFlushCompactsAndReloads) {
  const rf::Dataset data = SmallDataset();
  core::Gem trained = TrainedGem(data);
  const std::string path = TempPath("mapped_explicit_flush.snap");
  ASSERT_TRUE(SaveSnapshotV2(path, trained).ok());

  FenceCache cache;
  ASSERT_TRUE(cache.Register("home", path).ok());
  EXPECT_EQ(cache.Flush("nope").code(), StatusCode::kNotFound);
  EXPECT_TRUE(cache.Flush("home").ok());  // cold: no-op

  {
    StatusOr<std::shared_ptr<serve::Fence>> fence = cache.Acquire("home");
    ASSERT_TRUE(fence.ok());
    for (size_t i = 0; i < data.test.size() / 2; ++i) {
      (void)(*fence)->gem.Infer(data.test[i], (*fence)->overlay);
    }
  }
  ASSERT_TRUE(cache.Flush("home").ok());
  EXPECT_EQ(cache.resident(), 0u);  // flush drops residency

  StatusOr<std::shared_ptr<serve::Fence>> reloaded = cache.Acquire("home");
  ASSERT_TRUE(reloaded.ok());
  EXPECT_TRUE((*reloaded)->overlay.empty());
}

// overlay_limits: once the resident overlay outgrows the configured
// bounds, the next unpinned Acquire compacts + reloads, so overlays
// stay small no matter how long a fence stays hot.
TEST(FenceCacheMappedTest, CompactionDueTriggersReloadOnAcquire) {
  const rf::Dataset data = SmallDataset();
  core::Gem trained = TrainedGem(data);
  const std::string path = TempPath("mapped_limits.snap");
  ASSERT_TRUE(SaveSnapshotV2(path, trained).ok());

  FenceCacheOptions options;
  options.overlay_limits.max_new_nodes = 1;
  FenceCache cache(options);
  ASSERT_TRUE(cache.Register("home", path).ok());

  uint64_t first_generation = 0;
  {
    StatusOr<std::shared_ptr<serve::Fence>> fence = cache.Acquire("home");
    ASSERT_TRUE(fence.ok());
    first_generation = (*fence)->generation;
    (void)(*fence)->gem.Infer(data.test.front(), (*fence)->overlay);
    ASSERT_TRUE((*fence)->overlay.compaction_due());
  }
  StatusOr<std::shared_ptr<serve::Fence>> compacted = cache.Acquire("home");
  ASSERT_TRUE(compacted.ok());
  EXPECT_GT((*compacted)->generation, first_generation);
  EXPECT_TRUE((*compacted)->overlay.empty());
}

}  // namespace
}  // namespace gem::store
