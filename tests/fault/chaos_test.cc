// Chaos layer over gem::serve: seeded failpoint schedules drive a
// multi-fence engine and the tests assert system-level invariants —
// no crash, no stuck request, a definite Status for every request,
// and an old fence generation that keeps serving across failed live
// reloads. Schedules are seeded (prob=P@SEED) so every run, including
// the TSan CI run, replays the same injection pattern. This binary
// only exists in builds configured with -DGEM_ENABLE_FAILPOINTS=ON.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/gem.h"
#include "fault/failpoint.h"
#include "obs/metrics.h"
#include "rf/dataset.h"
#include "serve/engine.h"
#include "serve/fence_registry.h"
#include "store/snapshot_v2.h"

namespace gem::serve {
namespace {

std::string TempPath(const std::string& name) {
  return std::string(::testing::TempDir()) + "/" + name;
}

rf::Dataset SmallDataset() {
  rf::DatasetOptions options;
  options.train_duration_s = 180.0;
  options.test_segments = 2;
  options.test_segment_duration_s = 60.0;
  options.seed = 77;
  return rf::GenerateScenarioDataset(rf::HomePreset(2), options);
}

core::GemConfig FastConfig() {
  core::GemConfig config;
  config.bisage.dimension = 8;
  config.bisage.epochs = 1;
  return config;
}

uint64_t ReloadFailures(const char* phase) {
  return obs::MetricsRegistry::Get()
      .GetCounter("gem_serve_reload_failures_total", {{"phase", phase}})
      .value();
}

uint64_t SnapshotRetries() {
  return obs::MetricsRegistry::Get()
      .GetCounter("gem_store_load_retries_total")
      .value();
}

uint64_t DeadlineExceededCount() {
  return obs::MetricsRegistry::Get()
      .GetCounter("gem_serve_responses_total",
                  {{"result", "deadline_exceeded"}})
      .value();
}

store::RetryOptions FastRetry(int attempts) {
  store::RetryOptions retry;
  retry.max_attempts = attempts;
  retry.initial_backoff = std::chrono::milliseconds(1);
  return retry;
}

/// Trains once per process and snapshots; tests clone fences by
/// loading the snapshot. Every test starts and ends with a clean
/// failpoint registry so schedules cannot leak across tests.
class ChaosTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    dataset_ = new rf::Dataset(SmallDataset());
    core::Gem gem(FastConfig());
    ASSERT_TRUE(gem.Train(dataset_->train).ok());
    snapshot_path_ = new std::string(TempPath("chaos_test_model.gem"));
    ASSERT_TRUE(store::SaveSnapshotV2(*snapshot_path_, gem).ok());
  }

  static void TearDownTestSuite() {
    delete dataset_;
    delete snapshot_path_;
    dataset_ = nullptr;
    snapshot_path_ = nullptr;
  }

  void SetUp() override { fault::Reset(); }
  void TearDown() override { fault::Reset(); }

  static core::Gem LoadModel() {
    auto gem = store::LoadSnapshotAuto(*snapshot_path_);
    EXPECT_TRUE(gem.ok()) << gem.status().ToString();
    return std::move(gem).value();
  }

  static rf::Dataset* dataset_;
  static std::string* snapshot_path_;
};

rf::Dataset* ChaosTest::dataset_ = nullptr;
std::string* ChaosTest::snapshot_path_ = nullptr;

// The headline invariant run: 4 fences, 4 workers, 4 client threads,
// with seeded admission and execution faults firing throughout. Every
// request must come back with a definite Status from the known set,
// the totals must add up, and the engine must shut down cleanly — for
// every seed.
TEST_F(ChaosTest, SeededChaosEveryRequestGetsADefiniteAnswer) {
  constexpr int kFences = 4;
  constexpr int kRequestsPerClient = 50;
  for (const int seed : {11, 23, 47}) {
    fault::Reset();
    ASSERT_TRUE(fault::Configure(
                    "serve.engine.admit=prob=0.08@" + std::to_string(seed) +
                    "/unavailable;"
                    "serve.engine.process=prob=0.12@" +
                    std::to_string(seed + 100) + "/unavailable/delay=1")
                    .ok());

    FenceRegistry registry;
    for (int f = 0; f < kFences; ++f) {
      ASSERT_TRUE(
          registry.Install("home_" + std::to_string(f), LoadModel()).ok());
    }
    EngineOptions options;
    options.num_threads = 4;
    options.max_queue_depth = 32;
    Engine engine(&registry, options);

    std::atomic<int> ok_count{0};
    std::atomic<int> unavailable_count{0};
    std::atomic<int> unexpected_count{0};
    std::vector<std::thread> clients;
    clients.reserve(kFences);
    for (int f = 0; f < kFences; ++f) {
      clients.emplace_back([&, f] {
        const std::string fence_id = "home_" + std::to_string(f);
        for (int i = 0; i < kRequestsPerClient; ++i) {
          ServeRequest request;
          request.fence_id = fence_id;
          request.record =
              dataset_->test[i % dataset_->test.size()];
          const ServeResponse response = engine.InferBlocking(request);
          if (response.status.ok()) {
            ok_count.fetch_add(1);
          } else if (response.status.code() == StatusCode::kUnavailable) {
            unavailable_count.fetch_add(1);
          } else {
            unexpected_count.fetch_add(1);
          }
        }
      });
    }
    for (std::thread& client : clients) client.join();
    engine.Shutdown();

    // Definite answers, nothing lost, nothing outside the fault model.
    EXPECT_EQ(unexpected_count.load(), 0) << "seed " << seed;
    EXPECT_EQ(ok_count.load() + unavailable_count.load(),
              kFences * kRequestsPerClient)
        << "seed " << seed;
    // At ~20% combined injection over 200 requests both outcomes are
    // statistically certain to appear.
    EXPECT_GT(ok_count.load(), 0) << "seed " << seed;
    EXPECT_GT(unavailable_count.load(), 0) << "seed " << seed;
    EXPECT_EQ(engine.queue_depth(), 0u) << "seed " << seed;
  }
}

// The acceptance scenario: a live reload whose snapshot load fails for
// good must leave the previously installed generation serving, visible
// both through gem_serve_reload_failures_total and through a
// successful post-failure request against generation 1.
TEST_F(ChaosTest, FailedReloadKeepsOldGenerationServing) {
  FenceRegistry registry;
  ASSERT_TRUE(registry.Install("home", LoadModel()).ok());
  Engine engine(&registry, EngineOptions{/*num_threads=*/2});

  const uint64_t failures_before = ReloadFailures("reload");
  const uint64_t retries_before = SnapshotRetries();
  ASSERT_TRUE(
      fault::Configure("store.mmap.map=always/unavailable").ok());
  const auto reload =
      registry.InstallFromSnapshot("home", *snapshot_path_, FastRetry(2));
  EXPECT_EQ(reload.code(), StatusCode::kUnavailable);
  EXPECT_EQ(ReloadFailures("reload") - failures_before, 1u);
  // 2 attempts = 1 retry before giving up.
  EXPECT_EQ(SnapshotRetries() - retries_before, 1u);

  // Generation 1 is untouched and still answers traffic.
  const std::shared_ptr<Fence> fence = registry.Find("home");
  ASSERT_NE(fence, nullptr);
  EXPECT_EQ(fence->generation, 1u);
  ServeRequest request;
  request.fence_id = "home";
  request.record = dataset_->test.front();
  const ServeResponse response = engine.InferBlocking(std::move(request));
  ASSERT_TRUE(response.status.ok()) << response.status.ToString();
  EXPECT_EQ(response.fence_generation, 1u);

  // Clearing the schedule lets the same reload succeed: generation 2.
  fault::Reset();
  const auto healed =
      registry.InstallFromSnapshot("home", *snapshot_path_, FastRetry(2));
  ASSERT_TRUE(healed.ok()) << healed.status().ToString();
  EXPECT_EQ(healed.value(), 2u);
  engine.Shutdown();
}

TEST_F(ChaosTest, InitialInstallFailureIsLabeledInitial) {
  FenceRegistry registry;
  const uint64_t failures_before = ReloadFailures("initial");
  ASSERT_TRUE(
      fault::Configure("store.mmap.open=always/unavailable").ok());
  const auto install =
      registry.InstallFromSnapshot("fresh", *snapshot_path_, FastRetry(1));
  EXPECT_EQ(install.code(), StatusCode::kUnavailable);
  EXPECT_EQ(ReloadFailures("initial") - failures_before, 1u);
  EXPECT_EQ(registry.Find("fresh"), nullptr);
}

TEST_F(ChaosTest, RegistryReloadInjectionDegradesGracefully) {
  FenceRegistry registry;
  ASSERT_TRUE(registry.Install("home", LoadModel()).ok());
  const uint64_t failures_before = ReloadFailures("reload");
  ASSERT_TRUE(fault::Configure("serve.registry.reload=once/internal").ok());
  const auto reload =
      registry.InstallFromSnapshot("home", *snapshot_path_, FastRetry(1));
  EXPECT_EQ(reload.code(), StatusCode::kInternal);
  EXPECT_EQ(ReloadFailures("reload") - failures_before, 1u);
  EXPECT_EQ(registry.Find("home")->generation, 1u);
}

TEST_F(ChaosTest, TransientSnapshotFailureRetriesToSuccess) {
  ASSERT_TRUE(
      fault::Configure("store.mmap.map=once/unavailable").ok());
  const uint64_t retries_before = SnapshotRetries();
  const auto gem =
      store::LoadSnapshotAutoWithRetry(*snapshot_path_, FastRetry(3));
  ASSERT_TRUE(gem.ok()) << gem.status().ToString();
  EXPECT_EQ(fault::HitCount("store.mmap.map"), 2u);
  EXPECT_EQ(SnapshotRetries() - retries_before, 1u);
}

TEST_F(ChaosTest, RetryGivesUpAfterMaxAttempts) {
  ASSERT_TRUE(
      fault::Configure("store.mmap.map=always/unavailable").ok());
  const auto gem =
      store::LoadSnapshotAutoWithRetry(*snapshot_path_, FastRetry(3));
  EXPECT_EQ(gem.code(), StatusCode::kUnavailable);
  EXPECT_EQ(fault::HitCount("store.mmap.map"), 3u);
}

TEST_F(ChaosTest, TerminalCodesAreNotRetried) {
  // An injected validation failure is corruption: retrying cannot help
  // and must not happen.
  ASSERT_TRUE(
      fault::Configure("store.snapshot.validate=always/data_loss").ok());
  const uint64_t retries_before = SnapshotRetries();
  const auto gem =
      store::LoadSnapshotAutoWithRetry(*snapshot_path_, FastRetry(3));
  EXPECT_EQ(gem.code(), StatusCode::kDataLoss);
  EXPECT_EQ(fault::HitCount("store.snapshot.validate"), 1u);
  EXPECT_EQ(SnapshotRetries() - retries_before, 0u);
}

TEST_F(ChaosTest, SaveRenameInjectionLeavesNoArtifacts) {
  const std::string path = TempPath("chaos_rename_victim.gem");
  // TempDir persists across runs; start from a clean slate.
  std::remove(path.c_str());
  std::remove((path + ".tmp").c_str());
  core::Gem gem = LoadModel();
  ASSERT_TRUE(fault::Configure("store.snapshot.rename=once/internal").ok());
  EXPECT_EQ(store::SaveSnapshotV2(path, gem).code(), StatusCode::kInternal);
  // Neither a torn final file nor a leftover temp file.
  EXPECT_FALSE(std::ifstream(path).good());
  EXPECT_FALSE(std::ifstream(path + ".tmp").good());
  // With the failpoint exhausted the same save completes and loads.
  ASSERT_TRUE(store::SaveSnapshotV2(path, gem).ok());
  EXPECT_TRUE(store::LoadSnapshotAuto(path).ok());
  EXPECT_FALSE(std::ifstream(path + ".tmp").good());
}

TEST_F(ChaosTest, WorkerInjectionAnswersWithInjectedStatus) {
  FenceRegistry registry;
  ASSERT_TRUE(registry.Install("home", LoadModel()).ok());
  Engine engine(&registry, EngineOptions{/*num_threads=*/1});
  ASSERT_TRUE(fault::Configure("serve.engine.process=once/internal").ok());

  ServeRequest request;
  request.fence_id = "home";
  request.record = dataset_->test.front();
  EXPECT_EQ(engine.InferBlocking(request).status.code(),
            StatusCode::kInternal);
  // The schedule is exhausted: the identical request now serves.
  EXPECT_TRUE(engine.InferBlocking(request).status.ok());
  engine.Shutdown();
}

// --- Deadlines ------------------------------------------------------

TEST_F(ChaosTest, DeadlineExpiresInQueueBehindSlowWork) {
  FenceRegistry registry;
  ASSERT_TRUE(registry.Install("home", LoadModel()).ok());
  Engine engine(&registry, EngineOptions{/*num_threads=*/1});
  const std::shared_ptr<Fence> fence = registry.Find("home");
  ASSERT_NE(fence, nullptr);

  const uint64_t exceeded_before = DeadlineExceededCount();
  std::promise<ServeResponse> first_done;
  std::promise<ServeResponse> second_done;
  {
    // Stall the single worker on the fence mutex so the second request
    // ages past its deadline while still queued.
    std::unique_lock stall(fence->mutex);
    ServeRequest first;
    first.fence_id = "home";
    first.record = dataset_->test.front();
    ASSERT_TRUE(engine
                    .Submit(first,
                            [&](ServeResponse r) {
                              first_done.set_value(std::move(r));
                            })
                    .ok());
    while (engine.queue_depth() != 0) std::this_thread::yield();

    ServeRequest second;
    second.fence_id = "home";
    second.record = dataset_->test.front();
    second.deadline = std::chrono::milliseconds(10);
    ASSERT_TRUE(engine
                    .Submit(second,
                            [&](ServeResponse r) {
                              second_done.set_value(std::move(r));
                            })
                    .ok());
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  // First request had no deadline: it serves once the stall lifts.
  EXPECT_TRUE(first_done.get_future().get().status.ok());
  const ServeResponse expired = second_done.get_future().get();
  EXPECT_EQ(expired.status.code(), StatusCode::kDeadlineExceeded);
  EXPECT_NE(expired.status.message().find("in queue"), std::string::npos);
  EXPECT_GE(DeadlineExceededCount() - exceeded_before, 1u);
  engine.Shutdown();
}

TEST_F(ChaosTest, DeadlineExpiresWaitingForBusyFence) {
  FenceRegistry registry;
  ASSERT_TRUE(registry.Install("home", LoadModel()).ok());
  Engine engine(&registry, EngineOptions{/*num_threads=*/1});
  const std::shared_ptr<Fence> fence = registry.Find("home");
  ASSERT_NE(fence, nullptr);

  std::promise<ServeResponse> done;
  {
    // The worker dequeues immediately (queue-side check passes) and
    // then outwaits its deadline blocked on the fence mutex.
    std::unique_lock stall(fence->mutex);
    ServeRequest request;
    request.fence_id = "home";
    request.record = dataset_->test.front();
    request.deadline = std::chrono::milliseconds(20);
    ASSERT_TRUE(engine
                    .Submit(request,
                            [&](ServeResponse r) {
                              done.set_value(std::move(r));
                            })
                    .ok());
    std::this_thread::sleep_for(std::chrono::milliseconds(60));
  }
  const ServeResponse expired = done.get_future().get();
  EXPECT_EQ(expired.status.code(), StatusCode::kDeadlineExceeded);
  EXPECT_NE(expired.status.message().find("waiting for fence"),
            std::string::npos);
  engine.Shutdown();
}

TEST_F(ChaosTest, EngineDefaultDeadlineApplies) {
  FenceRegistry registry;
  ASSERT_TRUE(registry.Install("home", LoadModel()).ok());
  EngineOptions options;
  options.num_threads = 1;
  options.default_deadline = std::chrono::milliseconds(15);
  Engine engine(&registry, options);
  const std::shared_ptr<Fence> fence = registry.Find("home");

  std::promise<ServeResponse> done;
  {
    std::unique_lock stall(fence->mutex);
    ServeRequest request;  // no per-request deadline
    request.fence_id = "home";
    request.record = dataset_->test.front();
    ASSERT_TRUE(engine
                    .Submit(request,
                            [&](ServeResponse r) {
                              done.set_value(std::move(r));
                            })
                    .ok());
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  EXPECT_EQ(done.get_future().get().status.code(),
            StatusCode::kDeadlineExceeded);
  engine.Shutdown();
}

TEST_F(ChaosTest, NegativeDeadlineIsRejectedAtSubmit) {
  FenceRegistry registry;
  ASSERT_TRUE(registry.Install("home", LoadModel()).ok());
  Engine engine(&registry, EngineOptions{/*num_threads=*/1});
  ServeRequest request;
  request.fence_id = "home";
  request.record = dataset_->test.front();
  request.deadline = std::chrono::milliseconds(-1);
  bool callback_ran = false;
  EXPECT_EQ(engine
                .Submit(std::move(request),
                        [&](ServeResponse) { callback_ran = true; })
                .code(),
            StatusCode::kInvalidArgument);
  EXPECT_FALSE(callback_ran);
  engine.Shutdown();
}

// A reload storm with a flaky snapshot source: clients hammer the
// fence throughout and every lookup must resolve — a failed reload is
// invisible to traffic except through metrics.
TEST_F(ChaosTest, ReloadStormNeverInterruptsServing) {
  // Every Fence construction bumps gem_registry_generations_live and
  // every destruction decrements it; across a storm of reloads (each
  // success replaces a generation) the gauge must return EXACTLY to
  // its pre-test value once the registry dies — a residue would mean a
  // generation leaked past the storm (held forever, or double-counted).
  const double generations_before =
      Fence::GenerationsLiveGauge().value();
  {
  FenceRegistry registry;
  ASSERT_TRUE(registry.Install("home", LoadModel()).ok());
  Engine engine(&registry, EngineOptions{/*num_threads=*/2});
  ASSERT_TRUE(
      fault::Configure("store.mmap.map=prob=0.5@5/unavailable").ok());

  const uint64_t failures_before = ReloadFailures("reload");
  std::atomic<bool> stop{false};
  std::atomic<int> served{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < 2; ++c) {
    clients.emplace_back([&] {
      while (!stop.load()) {
        ServeRequest request;
        request.fence_id = "home";
        request.record = dataset_->test[served.load() %
                                        dataset_->test.size()];
        const ServeResponse response = engine.InferBlocking(request);
        // kUnavailable can only mean queue backpressure here; the
        // fence itself must always resolve.
        ASSERT_TRUE(response.status.ok() ||
                    response.status.code() == StatusCode::kUnavailable)
            << response.status.ToString();
        if (response.status.ok()) served.fetch_add(1);
      }
    });
  }

  int reload_failures = 0;
  int reload_successes = 0;
  for (int i = 0; i < 8; ++i) {
    const auto reload =
        registry.InstallFromSnapshot("home", *snapshot_path_, FastRetry(1));
    if (reload.ok()) {
      ++reload_successes;
    } else {
      ++reload_failures;
    }
    // The fence is ALWAYS resolvable, whatever the reload outcome.
    ASSERT_NE(registry.Find("home"), nullptr);
  }
  // The reload storm outpaces the clients; let traffic prove the fence
  // stayed serviceable before stopping (the ctest TIMEOUT bounds this).
  while (served.load() < 20) std::this_thread::yield();
  stop.store(true);
  for (std::thread& client : clients) client.join();
  engine.Shutdown();

  EXPECT_EQ(reload_failures + reload_successes, 8);
  EXPECT_EQ(ReloadFailures("reload") - failures_before,
            static_cast<uint64_t>(reload_failures));
  EXPECT_EQ(registry.Find("home")->generation,
            static_cast<uint64_t>(1 + reload_successes));
  EXPECT_GT(served.load(), 0);
  // While the registry lives it holds exactly one generation of "home"
  // (replaced generations died with their last in-flight holder).
  EXPECT_EQ(Fence::GenerationsLiveGauge().value(),
            generations_before + 1.0);
  }
  EXPECT_EQ(Fence::GenerationsLiveGauge().value(), generations_before);
}

}  // namespace
}  // namespace gem::serve
