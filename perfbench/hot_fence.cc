// hot_fence: a closed loop with one client. One fence is installed in a
// serve::FenceRegistry and one device sends it kHotRequests distinct
// scans in time order through serve::Engine::InferBlocking, starting
// from a fresh overlay each round. Every request appends to the
// overlay's graph delta, so per-request cost grows with the history.
#include <cstdio>

#include "checks.h"
#include "inputs.h"
#include "layers.h"
#include "serve/engine.h"
#include "serve/fence_registry.h"
#include "store/snapshot_v2.h"
#include "workloads.h"

namespace perfbench {
namespace {

using gem::rf::ScanRecord;

const char kFenceId[] = "hot";
/// Timeline events per recording thread: one traced round puts about
/// nine spans per request on the engine worker.
constexpr size_t kTimelineEvents = size_t{1} << 16;

/// Replaces the fence with a fresh copy of the trained model, so the
/// round starts from an empty overlay. (FenceRegistry::InstallFromSnapshot
/// reads v1 snapshots only, so the v2 file is loaded here.) With
/// `timed`, the snapshot load is a store.cold_load_ms sample.
bool InstallFresh(gem::serve::FenceRegistry& registry,
                  const std::string& snapshot, Checks& checks,
                  DirectSamples* timed = nullptr) {
  const double start = Now();
  auto gem = gem::store::LoadSnapshotAuto(snapshot);
  if (timed != nullptr) {
    timed->cold_load_ms.push_back((Now() - start) * 1e3);
    ++timed->misses;
  }
  if (!checks.Expect(gem.ok(), "hot_fence: snapshot load failed: " +
                                   gem.status().ToString())) {
    return false;
  }
  const auto installed = registry.Install(kFenceId, std::move(gem).value());
  return checks.Expect(installed.ok(), "hot_fence: install failed: " +
                                           installed.status().ToString());
}

Round EngineRound(gem::serve::Engine& engine,
                  const std::vector<ScanRecord>& stream, Results& results,
                  uint64_t& failed) {
  Round round;
  round.op_ms.reserve(stream.size());
  round.op_cpu_ms.reserve(stream.size());
  round.lag_ms.reserve(stream.size());
  results.clear();
  const double start = Now();
  double completed = start;
  for (const ScanRecord& record : stream) {
    const double cpu = ProcessCpuSeconds();
    const double sent = Now();
    round.lag_ms.push_back((sent - completed) * 1e3);
    gem::serve::ServeResponse response =
        engine.InferBlocking({kFenceId, record, {}});
    completed = Now();
    round.op_ms.push_back((completed - sent) * 1e3);
    round.op_cpu_ms.push_back((ProcessCpuSeconds() - cpu) * 1e3);
    if (!response.status.ok()) ++failed;
    results.push_back(response.result);
  }
  round.wall_s = Now() - start;
  return round;
}

/// The stream served by direct, individually timed calls:
/// FenceRegistry::Resolve (a registry hit), then Observe / Detect /
/// Update. The fence is then written back to `flushed` as an eviction
/// would, to time the flush of a long-lived overlay.
Results DirectRound(gem::serve::FenceRegistry& registry,
                    const std::vector<ScanRecord>& stream,
                    const std::string& flushed, DirectSamples& samples,
                    Checks& checks, uint64_t& failed) {
  Results results;
  ShadowDelta shadow;
  for (const ScanRecord& record : stream) {
    const double start = Now();
    auto fence = registry.Resolve(kFenceId);
    samples.acquire_hit_us.push_back((Now() - start) * 1e6);
    ++samples.hits;
    if (!fence.ok()) {
      ++failed;
      results.emplace_back();
      continue;
    }
    results.push_back(ServeDirect(**fence, record, shadow, samples));
  }
  const uint64_t written = WrittenBytes();
  const gem::Status saved =
      WriteBackTimed(*registry.Find(kFenceId), flushed, samples);
  samples.bytes_written += WrittenBytes() - written;
  checks.Expect(saved.ok(), "hot_fence: write-back failed: " +
                                saved.ToString());
  return results;
}

}  // namespace

WorkloadResult RunHotFence(const RunOptions& options) {
  WorkloadResult out;
  StageTotals setup_spans;
  if (options.trace) StartTimeline(kTimelineEvents);
  const HotFenceInputs inputs = MakeHotFenceInputs(options.seed);
  VerifyFingerprint(options, Fingerprint(inputs));
  gem::core::GemConfig config;
  config.bisage.num_threads = kTrainThreads;
  gem::core::Gem gem(config);
  const std::string snapshot = options.scratch_dir + "/hot.gem";
  const std::string flushed = options.scratch_dir + "/hot_flushed.gem";
  if (!out.checks.Expect(gem.Train(inputs.train).ok(), "hot_fence: training "
                                                       "failed") ||
      !out.checks.Expect(gem::store::SaveSnapshotV2(snapshot, gem).ok(),
                         "hot_fence: snapshot save failed")) {
    return out;
  }
  if (options.trace) {
    setup_spans.Collect();
    StopTimeline();
  }
  gem::serve::FenceRegistry registry;
  gem::serve::EngineOptions engine_options;
  engine_options.num_threads = 1;
  engine_options.max_queue_depth = 4;
  gem::serve::Engine engine(&registry, engine_options);
  const double setup_s = SinceProcessStart();
  std::printf("hot_fence: %zu-scan stream on HomePreset(%d), %zu training "
              "scans, set-up %.3f s\n",
              inputs.stream.size(), kHotHome, inputs.train.size(), setup_s);

  // The reference the engine must reproduce bit for bit: a direct
  // Infer loop on the in-memory model over a private overlay.
  const Results reference = InferAll(gem, inputs.stream);

  std::vector<Round> untraced, traced;
  DirectSamples direct;
  StageTotals spans;
  Results results;
  const int rounds = RoundCount(options, kHotRoundSeconds, 3);
  while (static_cast<int>(untraced.size()) < rounds) {
    if (options.trace) {
      // The replay goes first, so that the untraced and the traced
      // engine rounds compared below both run on a warmed-up process.
      StartTimeline(kTimelineEvents);
      if (!InstallFresh(registry, snapshot, out.checks, &direct)) return out;
      const Results direct_results =
          DirectRound(registry, inputs.stream, flushed, direct, out.checks,
                      out.failed);
      ++direct.rounds;
      spans.Collect();
      StopTimeline();
      CheckSameResults(out.checks, "hot_fence layer-by-layer replay vs "
                                   "reference",
                       reference, direct_results);
      out.attempted += inputs.stream.size();
    }
    if (!InstallFresh(registry, snapshot, out.checks)) return out;
    untraced.push_back(EngineRound(engine, inputs.stream, results, out.failed));
    CheckSameResults(out.checks, "hot_fence engine vs direct Gem::Infer",
                     reference, results);
    std::printf("  round %zu: %.3f s, mean %.3f ms per request\n",
                untraced.size(), untraced.back().wall_s,
                Mean(untraced.back().op_ms));
    out.attempted += inputs.stream.size();
    if (!options.trace) continue;

    if (!InstallFresh(registry, snapshot, out.checks)) return out;
    StartTimeline(kTimelineEvents);
    traced.push_back(EngineRound(engine, inputs.stream, results, out.failed));
    spans.Collect();
    StopTimeline();
    CheckSameResults(out.checks, "hot_fence traced engine vs reference",
                     reference, results);
  }
  // A fence trained on the full walk must close half of the gap between
  // answering "inside" to every scan and a perfect detector.
  const double f = CheckFScore(out.checks, "hot_fence", reference,
                               inputs.stream, 0.5);
  std::printf("hot_fence: F-score %.4f against the simulator's labels\n", f);

  if (options.trace) {
    LayerReport report;
    report.SetTraining(setup_spans);
    direct.Report(report);
    report.SetServing(spans);
    report.serve_generator_lag_ms = MeanLag(untraced);
    report.obs_trace_overhead_pct = TraceOverheadPct(untraced, traced);
    out.metrics = report.ToMetrics();
    if (spans.dropped() > 0) {
      std::printf("hot_fence: timeline dropped %llu events\n",
                  static_cast<unsigned long long>(spans.dropped()));
    }
  } else {
    std::string note;
    out.metrics = EndToEndMetrics(untraced, setup_s, &note);
    std::printf("hot_fence: %s\n", note.c_str());
  }
  return out;
}

}  // namespace perfbench
