// fleet_churn: an open loop with Poisson arrivals at a fixed offered
// rate over a Zipf mix of kChurnFences fences. The fences live in a
// store::FenceCache (mapped v2 snapshots, flush on evict) far smaller
// than the working set, behind FenceRegistry::AttachStore and an
// Engine. Latency runs from each request's intended send time, so
// queueing behind cold loads and evict-flush write-back shows.
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <filesystem>
#include <map>
#include <mutex>
#include <thread>

#include "checks.h"
#include "inputs.h"
#include "layers.h"
#include "obs/metrics.h"
#include "serve/engine.h"
#include "serve/fence_registry.h"
#include "store/fence_cache.h"
#include "store/snapshot_v2.h"
#include "workloads.h"

namespace perfbench {
namespace {

namespace fs = std::filesystem;
using Clock = std::chrono::steady_clock;
using gem::rf::ScanRecord;

constexpr int kEngineThreads = 2;  // plus the generator thread
/// Requests of the untimed serial pass, served through a cache of
/// kCheckCapacity fences so that it evicts, flushes and reloads.
constexpr int kCheckRequests = 300;
constexpr int kCheckCapacity = 4;
constexpr size_t kTimelineEvents = size_t{1} << 16;

std::string FenceId(int fence) { return "fence-" + std::to_string(fence); }

std::string FencePath(const std::string& dir, int fence) {
  return dir + "/" + FenceId(fence) + ".gem";
}

/// Puts the fence directory in its starting state: one hard link per
/// fence to its home's base snapshot. A flush replaces a fence's file
/// by rename, so the base files are never written.
bool ResetFenceDir(const std::string& dir,
                   const std::vector<std::string>& base_paths,
                   Checks& checks) {
  std::error_code error;
  fs::remove_all(dir, error);
  fs::create_directories(dir, error);
  for (int fence = 0; fence < kChurnFences && !error; ++fence) {
    fs::create_hard_link(base_paths[fence % base_paths.size()],
                         FencePath(dir, fence), error);
  }
  return checks.Expect(!error, "fleet_churn: fence directory: " +
                                   error.message());
}

/// One round's serving stack. Members are destroyed engine first, so
/// workers stop before the registry and the cache (whose destructor
/// flushes the resident fences) go.
struct Fleet {
  std::shared_ptr<gem::store::FenceCache> cache;
  std::unique_ptr<gem::serve::FenceRegistry> registry;
  std::unique_ptr<gem::serve::Engine> engine;
};

Fleet OpenFleet(const std::string& dir, int capacity, int engine_threads) {
  Fleet fleet;
  gem::store::FenceCacheOptions cache_options;
  cache_options.capacity = static_cast<size_t>(capacity);
  fleet.cache = std::make_shared<gem::store::FenceCache>(cache_options);
  for (int fence = 0; fence < kChurnFences; ++fence) {
    (void)fleet.cache->Register(FenceId(fence), FencePath(dir, fence));
  }
  fleet.registry = std::make_unique<gem::serve::FenceRegistry>();
  fleet.registry->AttachStore(fleet.cache);
  if (engine_threads > 0) {
    gem::serve::EngineOptions engine_options;
    engine_options.num_threads = engine_threads;
    engine_options.max_queue_depth = 2 * kChurnRequests;
    fleet.engine = std::make_unique<gem::serve::Engine>(fleet.registry.get(),
                                                        engine_options);
  }
  return fleet;
}

/// Sends the schedule on time, whatever the engine's state, and times
/// each request from its intended send time to its completion.
Round OpenLoopRound(gem::serve::Engine& engine, const ChurnInputs& inputs,
                    Results& results,
                    uint64_t& failed) {
  const size_t n = inputs.schedule.size();
  Round round;
  round.op_ms.assign(n, 0.0);
  results.assign(n, {});
  round.lag_ms.assign(n, 0.0);
  std::vector<char> ok(n, 0);
  std::mutex mutex;
  std::condition_variable all_done;
  size_t done = 0;
  Clock::time_point last_done;
  auto finish = [&](size_t i, Clock::time_point due,
                    gem::serve::ServeResponse response) {
    const Clock::time_point now = Clock::now();
    round.op_ms[i] = std::chrono::duration<double, std::milli>(now - due).count();
    results[i] = response.result;
    ok[i] = response.status.ok();
    std::lock_guard lock(mutex);
    last_done = std::max(last_done, now);
    if (++done == n) all_done.notify_one();
  };

  const double cpu_start = ProcessCpuSeconds();
  const Clock::time_point start = Clock::now() + std::chrono::milliseconds(2);
  for (size_t i = 0; i < n; ++i) {
    const ChurnRequest& request = inputs.schedule[i];
    const Clock::time_point due =
        start + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(request.send_s));
    std::this_thread::sleep_until(due);
    round.lag_ms[i] =
        std::chrono::duration<double, std::milli>(Clock::now() - due).count();
    const gem::Status submitted = engine.Submit(
        {FenceId(request.fence), inputs.record(request), {}},
        [&finish, i, due](gem::serve::ServeResponse response) {
          finish(i, due, std::move(response));
        });
    if (!submitted.ok()) {
      gem::serve::ServeResponse refused;
      refused.status = submitted;
      finish(i, due, std::move(refused));
    }
  }
  {
    std::unique_lock lock(mutex);
    all_done.wait(lock, [&] { return done == n; });
  }
  round.cpu_s = ProcessCpuSeconds() - cpu_start;
  round.wall_s = std::chrono::duration<double>(
                     last_done - (start + std::chrono::duration_cast<
                                              Clock::duration>(
                                              std::chrono::duration<double>(
                                                  inputs.schedule[0].send_s))))
                     .count();
  // A failed or refused request misses every latency limit.
  for (size_t i = 0; i < n; ++i) {
    if (!ok[i]) {
      ++failed;
      round.op_ms[i] = round.wall_s * 1e3;
    }
  }
  return round;
}

/// The schedule served serially by direct, individually timed calls:
/// FenceCache::Acquire, then Observe / Detect / Update.
Results DirectRound(const std::string& dir, const ChurnInputs& inputs,
                    DirectSamples& samples, uint64_t& failed) {
  Fleet fleet = OpenFleet(dir, kChurnCapacity, 0);
  std::map<int, ShadowDelta> shadows;
  Results results;
  for (const ChurnRequest& request : inputs.schedule) {
    auto fence = AcquireTimed(*fleet.cache, FenceId(request.fence), samples);
    if (!fence.ok()) {
      ++failed;
      results.emplace_back();
      continue;
    }
    results.push_back(ServeDirect(**fence, inputs.record(request),
                                  shadows[request.fence], samples));
  }
  return results;
}

uint64_t Counter(const char* name) {
  return gem::obs::MetricsRegistry::Get().GetCounter(name).value();
}

/// Untimed serial pass over a prefix of the schedule through a small
/// cache, against never-evicted in-memory models fed the same per-fence
/// order; then every fence file must load.
void CheckWriteBack(const std::string& dir,
                    const std::vector<std::string>& base_paths,
                    const ChurnInputs& inputs, Checks& checks) {
  if (!ResetFenceDir(dir, base_paths, checks)) return;
  std::vector<gem::core::Gem> bases;
  for (const std::string& path : base_paths) {
    auto gem = gem::store::LoadSnapshotAuto(path);
    if (!checks.Expect(gem.ok(), "fleet_churn: base " + path + " does not "
                                                             "load")) {
      return;
    }
    bases.push_back(std::move(gem).value());
  }
  std::map<int, gem::core::GemOverlay> overlays;
  Results expected, served;
  const uint64_t evictions = Counter("gem_store_cache_evictions_total");
  const uint64_t flushes = Counter("gem_store_overlay_flushes_total");
  const uint64_t loads = Counter("gem_store_cache_misses_total");
  {
    Fleet fleet = OpenFleet(dir, kCheckCapacity, 1);
    for (int i = 0; i < kCheckRequests; ++i) {
      const ChurnRequest& request = inputs.schedule[i];
      const ScanRecord& record = inputs.record(request);
      gem::serve::ServeResponse response =
          fleet.engine->InferBlocking({FenceId(request.fence), record, {}});
      checks.Expect(response.status.ok(), "fleet_churn: serial pass request "
                                          "failed: " +
                                              response.status.ToString());
      served.push_back(response.result);
      expected.push_back(bases[request.fence % bases.size()].Infer(
          record, overlays[request.fence]));
    }
    CheckSameResults(checks,
                     "fleet_churn evict/flush/cold-load cycle vs never-evicted "
                     "in-memory models",
                     expected, served);
    checks.Expect(Counter("gem_store_cache_evictions_total") > evictions &&
                      Counter("gem_store_overlay_flushes_total") > flushes &&
                      // More cold loads than fences served: a reload.
                      Counter("gem_store_cache_misses_total") - loads >
                          overlays.size(),
                  "fleet_churn: the serial pass forced no evict -> flush -> "
                  "cold-load cycle");
    checks.Expect(fleet.cache->FlushAll().ok(), "fleet_churn: FlushAll failed");
  }
  for (int fence = 0; fence < kChurnFences; ++fence) {
    CheckSnapshotLoads(checks, FencePath(dir, fence));
  }
}

}  // namespace

WorkloadResult RunFleetChurn(const RunOptions& options) {
  WorkloadResult out;
  StageTotals setup_spans;
  if (options.trace) StartTimeline(kTimelineEvents);
  const ChurnInputs inputs = MakeChurnInputs(options.seed, options.offered_rate);
  VerifyFingerprint(options, Fingerprint(inputs));
  std::vector<std::string> base_paths;
  fs::create_directories(options.scratch_dir + "/base");
  for (size_t slot = 0; slot < inputs.train.size(); ++slot) {
    gem::core::GemConfig config;
    config.bisage.num_threads = kTrainThreads;
    gem::core::Gem gem(config);
    base_paths.push_back(options.scratch_dir + "/base/home" +
                         std::to_string(kChurnHomes[slot]) + ".gem");
    if (!out.checks.Expect(gem.Train(inputs.train[slot]).ok(),
                           "fleet_churn: training failed") ||
        !out.checks.Expect(
            gem::store::SaveSnapshotV2(base_paths.back(), gem).ok(),
            "fleet_churn: snapshot save failed")) {
      return out;
    }
  }
  if (options.trace) {
    setup_spans.Collect();
    StopTimeline();
  }
  const std::string dir = options.scratch_dir + "/fences";
  if (!ResetFenceDir(dir, base_paths, out.checks)) return out;
  const double setup_s = SinceProcessStart();
  std::printf("fleet_churn: %d fences over %zu homes, cache %d, Zipf %.1f, "
              "%zu requests at %.0f/s (%d engine threads), set-up %.3f s\n",
              kChurnFences, inputs.train.size(), kChurnCapacity, kChurnZipf,
              inputs.schedule.size(), options.offered_rate, kEngineThreads,
              setup_s);

  std::vector<Round> untraced, traced;
  DirectSamples direct;
  StageTotals spans;
  Results results;
  const int rounds = RoundCount(options, kChurnRoundSeconds, 3);
  while (static_cast<int>(untraced.size()) < rounds) {
    if (options.trace) {
      // The replay goes first, so that the untraced and the traced
      // open-loop rounds compared below both run on a warmed-up process.
      if (!ResetFenceDir(dir, base_paths, out.checks)) return out;
      StartTimeline(kTimelineEvents);
      const uint64_t written_before = WrittenBytes();
      DirectRound(dir, inputs, direct, out.failed);
      direct.bytes_written += WrittenBytes() - written_before;
      ++direct.rounds;
      spans.Collect();
      StopTimeline();
      out.attempted += inputs.schedule.size();
    }
    for (const bool traced_round : {false, true}) {
      if (traced_round && !options.trace) break;
      if (!ResetFenceDir(dir, base_paths, out.checks)) return out;
      Fleet fleet = OpenFleet(dir, kChurnCapacity, kEngineThreads);
      if (traced_round) StartTimeline(kTimelineEvents);
      const Round round =
          OpenLoopRound(*fleet.engine, inputs, results, out.failed);
      out.attempted += inputs.schedule.size();
      if (traced_round) {
        fleet.engine.reset();
        spans.Collect();
        StopTimeline();
        traced.push_back(round);
        continue;
      }
      untraced.push_back(round);
      std::printf("  round %zu: p50 %.3f ms, generator lag mean %.3f ms "
                  "max %.3f ms\n",
                  untraced.size(), Quantile(round.op_ms, 0.5), Mean(round.lag_ms),
                  Quantile(round.lag_ms, 1.0));
    }
  }

  std::vector<ScanRecord> served_records;
  for (const ChurnRequest& request : inputs.schedule) {
    served_records.push_back(inputs.record(request));
  }
  const double accuracy =
      CheckAccuracy(out.checks, "fleet_churn", results, served_records);
  std::printf("fleet_churn: accuracy %.4f against the simulator's labels\n",
              accuracy);
  CheckWriteBack(dir, base_paths, inputs, out.checks);

  if (options.trace) {
    LayerReport report;
    report.SetTraining(setup_spans);
    direct.Report(report);
    report.SetServing(spans);
    report.serve_generator_lag_ms = MeanLag(untraced);
    report.obs_trace_overhead_pct = TraceOverheadPct(untraced, traced);
    out.metrics = report.ToMetrics();
  } else {
    std::string note;
    out.metrics = EndToEndMetrics(untraced, setup_s, &note);
    std::printf("fleet_churn: %s\n", note.c_str());
  }
  return out;
}

}  // namespace perfbench
