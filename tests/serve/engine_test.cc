#include "serve/engine.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/gem.h"
#include "rf/dataset.h"
#include "serve/fence_registry.h"
#include "store/snapshot_v2.h"

namespace gem::serve {
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

/// Trains once per process and snapshots; tests clone fences by
/// loading the snapshot (core::Gem itself is move-only).
class ServeTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    dataset_ = new rf::Dataset(SmallDataset());
    core::Gem gem(FastConfig());
    ASSERT_TRUE(gem.Train(dataset_->train).ok());
    snapshot_path_ = new std::string(TempPath("engine_test_model.gem"));
    ASSERT_TRUE(store::SaveSnapshotV2(*snapshot_path_, gem).ok());
  }

  static void TearDownTestSuite() {
    delete dataset_;
    delete snapshot_path_;
    dataset_ = nullptr;
    snapshot_path_ = nullptr;
  }

  static core::Gem LoadModel() {
    auto gem = store::LoadSnapshotAuto(*snapshot_path_);
    EXPECT_TRUE(gem.ok()) << gem.status().ToString();
    return std::move(gem).value();
  }

  static rf::Dataset* dataset_;
  static std::string* snapshot_path_;
};

rf::Dataset* ServeTest::dataset_ = nullptr;
std::string* ServeTest::snapshot_path_ = nullptr;

TEST_F(ServeTest, RegistryInstallFindUnload) {
  FenceRegistry registry;
  EXPECT_EQ(registry.size(), 0u);
  EXPECT_EQ(registry.Find("home_a"), nullptr);

  auto generation = registry.Install("home_a", LoadModel());
  ASSERT_TRUE(generation.ok());
  EXPECT_EQ(generation.value(), 1u);
  EXPECT_EQ(registry.size(), 1u);

  const std::shared_ptr<Fence> fence = registry.Find("home_a");
  ASSERT_NE(fence, nullptr);
  EXPECT_EQ(fence->id, "home_a");
  EXPECT_EQ(fence->generation, 1u);

  // Reinstall = live reload: generation bumps, old handle still valid.
  generation = registry.Install("home_a", LoadModel());
  ASSERT_TRUE(generation.ok());
  EXPECT_EQ(generation.value(), 2u);
  EXPECT_EQ(fence->generation, 1u);  // the pre-reload handle
  EXPECT_EQ(registry.Find("home_a")->generation, 2u);

  EXPECT_TRUE(registry.Unload("home_a").ok());
  EXPECT_EQ(registry.Find("home_a"), nullptr);
  EXPECT_EQ(registry.Unload("home_a").code(), StatusCode::kNotFound);
}

TEST_F(ServeTest, RegistryRejectsUntrainedAndEmptyId) {
  FenceRegistry registry;
  EXPECT_EQ(registry.Install("x", core::Gem(FastConfig())).status().code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(registry.Install("", LoadModel()).status().code(),
            StatusCode::kInvalidArgument);
}

TEST_F(ServeTest, RegistryFenceIdsSorted) {
  FenceRegistry registry;
  for (const char* id : {"zeta", "alpha", "mid"}) {
    ASSERT_TRUE(registry.Install(id, LoadModel()).ok());
  }
  EXPECT_EQ(registry.FenceIds(),
            (std::vector<std::string>{"alpha", "mid", "zeta"}));
}

TEST_F(ServeTest, UnknownFenceIsNotFound) {
  FenceRegistry registry;
  Engine engine(&registry);
  ServeRequest request;
  request.fence_id = "nope";
  request.record = dataset_->test.front();
  const ServeResponse response = engine.InferBlocking(std::move(request));
  EXPECT_EQ(response.status.code(), StatusCode::kNotFound);
}

TEST_F(ServeTest, ServesMatchDirectInference) {
  FenceRegistry registry;
  ASSERT_TRUE(registry.Install("home", LoadModel()).ok());
  core::Gem reference = LoadModel();

  Engine engine(&registry, EngineOptions{/*num_threads=*/1});
  for (size_t i = 0; i < 20 && i < dataset_->test.size(); ++i) {
    ServeRequest request;
    request.fence_id = "home";
    request.record = dataset_->test[i];
    const ServeResponse response = engine.InferBlocking(std::move(request));
    ASSERT_TRUE(response.status.ok());
    const core::InferenceResult expected = reference.Infer(dataset_->test[i]);
    EXPECT_DOUBLE_EQ(response.result.score, expected.score);
    EXPECT_EQ(response.result.decision, expected.decision);
    EXPECT_EQ(response.fence_generation, 1u);
  }
}

// The acceptance scenario: >= 4 fences served concurrently, each
// fence's stream racing the self-enhancement updates it triggers, with
// a live reload happening mid-traffic. Run under TSan in CI.
TEST_F(ServeTest, ConcurrentFencesWithRacingUpdatesAndReload) {
  constexpr int kFences = 4;
  FenceRegistry registry;
  for (int i = 0; i < kFences; ++i) {
    ASSERT_TRUE(
        registry.Install("home_" + std::to_string(i), LoadModel()).ok());
  }

  Engine engine(&registry, EngineOptions{/*num_threads=*/4});
  std::atomic<int> issued{0};
  std::atomic<int> ok_count{0};
  std::atomic<int> reloaded_generation_seen{0};
  std::atomic<bool> reloaded{false};
  std::vector<std::thread> clients;
  clients.reserve(kFences);
  for (int f = 0; f < kFences; ++f) {
    clients.emplace_back([&, f] {
      const std::string fence_id = "home_" + std::to_string(f);
      // Stream passes over the test records until the reload has
      // landed, then one more full pass: the reload always happens
      // mid-traffic and later home_0 requests always follow it,
      // however fast a pass is.
      bool last_pass = false;
      while (!last_pass) {
        last_pass = reloaded.load();
        for (const rf::ScanRecord& record : dataset_->test) {
          ServeRequest request;
          request.fence_id = fence_id;
          request.record = record;
          issued.fetch_add(1);
          ServeResponse response = engine.InferBlocking(request);
          while (response.status.code() == StatusCode::kUnavailable) {
            std::this_thread::yield();
            response = engine.InferBlocking(request);
          }
          ASSERT_TRUE(response.status.ok()) << response.status.ToString();
          ok_count.fetch_add(1);
          if (response.fence_generation > 1) {
            reloaded_generation_seen.fetch_add(1);
          }
        }
      }
    });
  }

  // Live reload fence 0 while the clients are hammering it.
  while (ok_count.load() < kFences) std::this_thread::yield();
  const auto generation =
      registry.InstallFromSnapshot("home_0", *snapshot_path_);
  reloaded.store(true);
  ASSERT_TRUE(generation.ok());
  EXPECT_EQ(generation.value(), 2u);

  for (std::thread& client : clients) client.join();
  engine.Shutdown();
  EXPECT_EQ(ok_count.load(), issued.load());
  EXPECT_GE(ok_count.load(),
            kFences * static_cast<int>(dataset_->test.size()));
  // The last home_0 pass starts after the reload, so it must observe
  // generation 2.
  EXPECT_GT(reloaded_generation_seen.load(), 0);
}

// A snapshot written by the store's writer installs through the
// registry and serves exactly what the in-memory model it came from
// serves: same scores bit for bit, same decisions, same absorptions.
TEST_F(ServeTest, InstallFromSnapshotServesSavedModelBitExactly) {
  core::Gem gem(FastConfig());
  ASSERT_TRUE(gem.Train(dataset_->train).ok());
  const std::string path = TempPath("engine_test_install.gem");
  ASSERT_TRUE(store::SaveSnapshotV2(path, gem).ok());

  FenceRegistry registry;
  const auto generation = registry.InstallFromSnapshot("home", path);
  ASSERT_TRUE(generation.ok()) << generation.status().ToString();
  EXPECT_EQ(generation.value(), 1u);
  const std::shared_ptr<Fence> fence = registry.Find("home");
  ASSERT_NE(fence, nullptr);

  const auto bits = [](double v) {
    uint64_t out;
    std::memcpy(&out, &v, sizeof(out));
    return out;
  };
  core::GemOverlay overlay;
  int absorbed = 0;
  for (const rf::ScanRecord& record : dataset_->test) {
    const core::InferenceResult expected = gem.Infer(record, overlay);
    const core::InferenceResult served =
        fence->gem.Infer(record, fence->overlay);
    ASSERT_EQ(bits(served.score), bits(expected.score));
    ASSERT_EQ(served.decision, expected.decision);
    ASSERT_EQ(served.model_updated, expected.model_updated);
    absorbed += expected.model_updated ? 1 : 0;
  }
  // Self-enhancement ran, so the detector state round-tripped too.
  EXPECT_GT(absorbed, 0);
}

TEST_F(ServeTest, BackpressureRejectsWhenQueueFull) {
  FenceRegistry registry;
  ASSERT_TRUE(registry.Install("home", LoadModel()).ok());

  EngineOptions options;
  options.num_threads = 1;
  options.max_queue_depth = 2;
  Engine engine(&registry, options);

  // Stall the single worker by holding the fence's model mutex, then
  // saturate: 1 in-flight + 2 queued, everything after is shed.
  const std::shared_ptr<Fence> fence = registry.Find("home");
  std::atomic<int> completed{0};
  std::vector<Status> verdicts;
  {
    std::unique_lock stall(fence->mutex);
    // Wait until the worker has dequeued the first job (queue drains to
    // 0) so the subsequent submits deterministically fill the queue.
    ServeRequest first;
    first.fence_id = "home";
    first.record = dataset_->test.front();
    ASSERT_TRUE(engine
                    .Submit(first,
                            [&](ServeResponse) { completed.fetch_add(1); })
                    .ok());
    while (engine.queue_depth() != 0) std::this_thread::yield();

    for (int i = 0; i < 6; ++i) {
      ServeRequest request;
      request.fence_id = "home";
      request.record = dataset_->test.front();
      verdicts.push_back(engine.Submit(
          request, [&](ServeResponse) { completed.fetch_add(1); }));
    }
    int rejected = 0;
    for (const Status& verdict : verdicts) {
      if (verdict.code() == StatusCode::kUnavailable) ++rejected;
    }
    EXPECT_EQ(rejected, 4);  // queue holds 2, the rest bounce
  }
  engine.Shutdown();  // drains the 3 admitted jobs
  EXPECT_EQ(completed.load(), 3);
}

TEST_F(ServeTest, SubmitAfterShutdownFailsWithoutCallback) {
  FenceRegistry registry;
  ASSERT_TRUE(registry.Install("home", LoadModel()).ok());
  Engine engine(&registry);
  engine.Shutdown();
  engine.Shutdown();  // idempotent

  ServeRequest request;
  request.fence_id = "home";
  request.record = dataset_->test.front();
  bool callback_ran = false;
  const Status status = engine.Submit(
      std::move(request), [&](ServeResponse) { callback_ran = true; });
  EXPECT_EQ(status.code(), StatusCode::kFailedPrecondition);
  EXPECT_FALSE(callback_ran);
}

TEST_F(ServeTest, UnloadDuringTrafficFinishesInFlight) {
  FenceRegistry registry;
  ASSERT_TRUE(registry.Install("home", LoadModel()).ok());
  Engine engine(&registry, EngineOptions{/*num_threads=*/2});

  std::atomic<int> ok_or_notfound{0};
  std::vector<std::thread> clients;
  for (int t = 0; t < 2; ++t) {
    clients.emplace_back([&] {
      for (int i = 0; i < 50; ++i) {
        ServeRequest request;
        request.fence_id = "home";
        request.record = dataset_->test[i % dataset_->test.size()];
        ServeResponse response = engine.InferBlocking(request);
        while (response.status.code() == StatusCode::kUnavailable) {
          std::this_thread::yield();
          response = engine.InferBlocking(request);
        }
        // Every request either serves against the model it resolved or
        // cleanly reports the fence as gone — nothing crashes or hangs.
        ASSERT_TRUE(response.status.ok() ||
                    response.status.code() == StatusCode::kNotFound);
        ok_or_notfound.fetch_add(1);
      }
    });
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(2));
  EXPECT_TRUE(registry.Unload("home").ok());
  for (std::thread& client : clients) client.join();
  engine.Shutdown();
  EXPECT_EQ(ok_or_notfound.load(), 100);
}

TEST_F(ServeTest, InferBatchMatchesSequentialServes) {
  FenceRegistry registry;
  ASSERT_TRUE(registry.Install("batch", LoadModel()).ok());
  ASSERT_TRUE(registry.Install("serial", LoadModel()).ok());
  Engine engine(&registry, EngineOptions{2, 16});

  const std::vector<rf::ScanRecord> records(dataset_->test.begin(),
                                            dataset_->test.end());
  const BatchServeResponse batch = engine.InferBatch("batch", records);
  ASSERT_TRUE(batch.status.ok()) << batch.status.ToString();
  ASSERT_EQ(batch.results.size(), records.size());
  EXPECT_EQ(batch.fence_generation, 1u);

  // One-at-a-time serving against an identically seeded fence must see
  // the same scores: the batch path is an optimization, not a
  // semantics change.
  for (size_t i = 0; i < records.size(); ++i) {
    ServeRequest request;
    request.fence_id = "serial";
    request.record = records[i];
    const ServeResponse one = engine.InferBlocking(std::move(request));
    ASSERT_TRUE(one.status.ok());
    EXPECT_EQ(batch.results[i].score, one.result.score) << "record " << i;
    EXPECT_EQ(batch.results[i].decision, one.result.decision);
  }
  engine.Shutdown();
}

TEST_F(ServeTest, InferBatchReportsMissingFenceAndShutdown) {
  FenceRegistry registry;
  Engine engine(&registry, EngineOptions{1, 4});
  const std::vector<rf::ScanRecord> records(2);

  const BatchServeResponse missing = engine.InferBatch("ghost", records);
  EXPECT_EQ(missing.status.code(), StatusCode::kNotFound);
  EXPECT_TRUE(missing.results.empty());

  engine.Shutdown();
  const BatchServeResponse down = engine.InferBatch("ghost", records);
  EXPECT_EQ(down.status.code(), StatusCode::kFailedPrecondition);
}

TEST_F(ServeTest, ConcurrentBatchesAgainstOneFenceStaySerialized) {
  FenceRegistry registry;
  ASSERT_TRUE(registry.Install("home", LoadModel()).ok());
  Engine engine(&registry, EngineOptions{4, 64});

  const std::vector<rf::ScanRecord> records(dataset_->test.begin(),
                                            dataset_->test.begin() + 16);
  std::atomic<int> ok_count{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < 4; ++c) {
    clients.emplace_back([&] {
      const BatchServeResponse response = engine.InferBatch("home", records);
      if (response.status.ok() && response.results.size() == records.size()) {
        ok_count.fetch_add(1);
      }
    });
  }
  for (std::thread& client : clients) client.join();
  EXPECT_EQ(ok_count.load(), 4);
  engine.Shutdown();
}

}  // namespace
}  // namespace gem::serve
