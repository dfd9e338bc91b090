// enrol: a closed loop, run sequentially. For kEnrolSeedsPerHome walks
// of each Table II home it runs core::Gem::Train at a fixed training
// thread count and writes the model with store::SaveSnapshotV2. BiSAGE
// training (embed, math kernels, base::ThreadPool) is nearly all of it.
#include <cstdio>
#include <filesystem>

#include "checks.h"
#include "inputs.h"
#include "layers.h"
#include "serve/engine.h"
#include "serve/fence_registry.h"
#include "store/fence_cache.h"
#include "store/snapshot_v2.h"
#include "workloads.h"

namespace perfbench {
namespace {

/// Timeline events per recording thread. Each Gem starts its own pool,
/// and the timeline keeps every thread's buffer, so this stays small;
/// the main thread's share of one fit is about a thousand events and is
/// collected after every enrolment.
constexpr size_t kTimelineEvents = size_t{1} << 13;

std::string UnitId(size_t unit) { return "unit" + std::to_string(unit); }

std::string UnitPath(const std::string& dir, size_t unit) {
  return dir + "/" + UnitId(unit) + ".gem";
}

/// Fits and saves every unit once; an operation is one fit plus its
/// save, timed (wall and process CPU) on its own. After each operation,
/// untimed, the fitted model scores its unit's held-out stream into
/// `scores` and is dropped. With `direct` (the traced run), the save is
/// also timed apart, the timeline is collected after each unit, and the
/// held-out stream is scored by direct, timed calls into each layer.
Round EnrolRound(const std::vector<EnrolUnit>& units, const std::string& dir,
                 std::vector<Results>& scores, uint64_t& failed,
                 StageTotals* spans, DirectSamples* direct) {
  Round round;
  scores.assign(units.size(), {});
  for (size_t u = 0; u < units.size(); ++u) {
    const double cpu_start = ProcessCpuSeconds();
    const double begin = Now();
    gem::core::GemConfig config;
    config.bisage.num_threads = kTrainThreads;
    gem::core::Gem gem(config);
    const bool trained = gem.Train(units[u].train).ok();
    const double saving = Now();
    const bool saved =
        trained && gem::store::SaveSnapshotV2(UnitPath(dir, u), gem).ok();
    const double end = Now();
    round.op_cpu_ms.push_back((ProcessCpuSeconds() - cpu_start) * 1e3);
    round.wall_s += end - begin;
    round.op_ms.push_back((end - begin) * 1e3);
    if (!saved) ++failed;
    if (direct == nullptr) {
      if (trained) scores[u] = InferAll(gem, units[u].holdout);
      continue;
    }
    direct->flush_ms.push_back((end - saving) * 1e3);
    ++direct->flushes;
    spans->Collect();
    if (!trained) continue;
    gem::serve::Fence fence(UnitId(u), 0, std::move(gem));
    ShadowDelta shadow;
    for (const gem::rf::ScanRecord& record : units[u].holdout) {
      scores[u].push_back(ServeDirect(fence, record, shadow, *direct));
    }
  }
  return round;
}

/// Puts the enrolled fences into service once, for the traced run's
/// view of the store and serve layers on freshly written snapshots:
/// each is registered in a FenceCache, cold-loaded and then hit by
/// timed Acquires, and sent its first held-out scan through an Engine;
/// FlushAll then writes the absorbed scans back. Returns the client's
/// gap between a response and its next request, per request.
std::vector<double> GoLive(const std::vector<EnrolUnit>& units,
                           const std::string& dir, DirectSamples& direct,
                           Checks& checks) {
  gem::store::FenceCacheOptions cache_options;
  cache_options.capacity = units.size();
  auto cache = std::make_shared<gem::store::FenceCache>(cache_options);
  gem::serve::FenceRegistry registry;
  registry.AttachStore(cache);
  gem::serve::EngineOptions engine_options;
  engine_options.num_threads = 1;
  gem::serve::Engine engine(&registry, engine_options);
  for (size_t u = 0; u < units.size(); ++u) {
    checks.Expect(cache->Register(UnitId(u), UnitPath(dir, u)).ok(),
                  "enrol: register " + UnitId(u) + " failed");
    for (int pass = 0; pass < 2; ++pass) {  // a cold load, then a hit
      checks.Expect(AcquireTimed(*cache, UnitId(u), direct).ok(),
                    "enrol: acquire " + UnitId(u) + " failed");
    }
  }
  std::vector<double> gap_ms;
  double completed = Now();
  for (size_t u = 0; u < units.size(); ++u) {
    const double sent = Now();
    gap_ms.push_back((sent - completed) * 1e3);
    const gem::serve::ServeResponse response =
        engine.InferBlocking({UnitId(u), units[u].holdout.front(), {}});
    completed = Now();
    checks.Expect(response.status.ok(), "enrol: first request to " +
                                            UnitId(u) + " failed: " +
                                            response.status.ToString());
  }
  engine.Shutdown();
  checks.Expect(cache->FlushAll().ok(), "enrol: FlushAll failed");
  TimeDirtyWalk(direct);
  return gap_ms;
}

}  // namespace

WorkloadResult RunEnrol(const RunOptions& options) {
  WorkloadResult out;
  const std::vector<EnrolUnit> units = MakeEnrolInputs(options.seed);
  VerifyFingerprint(options, Fingerprint(units));
  const std::string dir = options.scratch_dir + "/enrol";
  std::filesystem::create_directories(dir);
  const double setup_s = SinceProcessStart();
  std::printf("enrol: %zu enrolments per round (%d homes x %d walks of "
              "%.0f s), %d training threads, set-up %.3f s\n",
              units.size(), kEnrolHomes, kEnrolSeedsPerHome, kEnrolWalkSeconds,
              kTrainThreads, setup_s);

  std::vector<Round> untraced, traced;
  std::vector<Results> scores;
  StageTotals spans;
  DirectSamples direct;
  const int rounds = RoundCount(options, kEnrolRoundSeconds, 2);
  while (static_cast<int>(untraced.size()) < rounds) {
    untraced.push_back(
        EnrolRound(units, dir, scores, out.failed, nullptr, nullptr));
    std::printf("  round %zu: %.3f s, p50 %.3f ms per enrolment\n",
                untraced.size(), untraced.back().wall_s,
                Quantile(untraced.back().op_ms, 0.5));
    out.attempted += units.size();
    if (!options.trace) continue;

    StartTimeline(kTimelineEvents);
    const uint64_t written_before = WrittenBytes();
    traced.push_back(
        EnrolRound(units, dir, scores, out.failed, &spans, &direct));
    direct.bytes_written += WrittenBytes() - written_before;
    ++direct.rounds;
    spans.Collect();
    StopTimeline();
    out.attempted += units.size();
  }

  // Every saved snapshot, opened mapped, must score the held-out stream
  // exactly as the model that wrote it did. Each home must beat the
  // constant answer "inside": a four-minute walk leaves parts of the
  // larger homes unseen, so no margin is asked for; a mis-trained or
  // mis-loaded model lands at or below the constant answer.
  std::vector<Results> home_results(kEnrolHomes);
  std::vector<std::vector<gem::rf::ScanRecord>> home_records(kEnrolHomes);
  for (size_t u = 0; u < units.size(); ++u) {
    CheckMappedScores(out.checks, UnitPath(dir, u), scores[u],
                      units[u].holdout);
    Results& into = home_results[units[u].home];
    into.insert(into.end(), scores[u].begin(), scores[u].end());
    auto& records = home_records[units[u].home];
    records.insert(records.end(), units[u].holdout.begin(),
                   units[u].holdout.end());
  }
  std::printf("enrol: per-home F-score");
  for (int home = 0; home < kEnrolHomes; ++home) {
    std::printf(" %.3f", CheckFScore(out.checks,
                                     "enrol home " + std::to_string(home),
                                     home_results[home], home_records[home], 0.0));
  }
  std::printf("\n");

  if (options.trace) {
    StartTimeline(kTimelineEvents);
    const std::vector<double> gap_ms = GoLive(units, dir, direct, out.checks);
    spans.Collect();
    StopTimeline();
    LayerReport report;
    report.SetTraining(spans);
    direct.Report(report);
    report.SetServing(spans);
    report.serve_generator_lag_ms = Mean(gap_ms);
    report.obs_trace_overhead_pct = TraceOverheadPct(untraced, traced);
    out.metrics = report.ToMetrics();
  } else {
    std::string note;
    out.metrics = EndToEndMetrics(untraced, setup_s, &note);
    std::printf("enrol: %s\n", note.c_str());
  }
  return out;
}

}  // namespace perfbench
