#include "common.h"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <numeric>

#include "obs/attribution.h"
#include "obs/timeline.h"

namespace perfbench {
namespace {

const double kProcessStart = Now();

/// The first number after `key` on the matching line of a
/// /proc/self file, or 0 when absent.
double ProcField(const char* file, const std::string& key) {
  std::ifstream in(file);
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind(key, 0) == 0) {
      return std::strtod(line.c_str() + key.size(), nullptr);
    }
  }
  return 0.0;
}

}  // namespace

double Now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double SinceProcessStart() { return Now() - kProcessStart; }

double ProcessCpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

double PeakRssMb() { return ProcField("/proc/self/status", "VmHWM:") / 1024.0; }

uint64_t WrittenBytes() {
  return static_cast<uint64_t>(ProcField("/proc/self/io", "wchar:"));
}

void VerifyFingerprint(const RunOptions& options, uint64_t fingerprint) {
  char hex[17];
  std::snprintf(hex, sizeof(hex), "%016llx",
                static_cast<unsigned long long>(fingerprint));
  if (options.expected_fingerprint.empty()) {
    std::printf("input fingerprint %s (none recorded for seed %llu)\n", hex,
                static_cast<unsigned long long>(options.seed));
    return;
  }
  if (options.expected_fingerprint == hex) return;
  std::fprintf(stderr,
               "perfbench: the %s inputs for seed %llu hash to %s, but %s is "
               "recorded in perfbench/fingerprints.json. The simulator's "
               "output changed, so this run would not measure the recorded "
               "workload. If the change is intended, record the hash anew "
               "with:\n  python3 perfbench/run.py --record-fingerprints "
               "--workload %s --seed %llu\n",
               options.workload.c_str(),
               static_cast<unsigned long long>(options.seed), hex,
               options.expected_fingerprint.c_str(), options.workload.c_str(),
               static_cast<unsigned long long>(options.seed));
  std::exit(3);
}

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = q * static_cast<double>(values.size());
  size_t at = static_cast<size_t>(rank);
  if (at > 0 && static_cast<double>(at) == rank) --at;
  return values[std::min(at, values.size() - 1)];
}

double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  return std::accumulate(values.begin(), values.end(), 0.0) /
         static_cast<double>(values.size());
}

double TailQuantile(size_t n) {
  for (const double q : {0.999, 0.995, 0.99, 0.98, 0.95, 0.90, 0.75}) {
    if (static_cast<double>(n) * (1.0 - q) >= 10.0 - 1e-9) return q;
  }
  return 0.5;
}

std::vector<double> BestPerOp(const std::vector<Round>& rounds, bool cpu) {
  auto samples = [cpu](const Round& round) -> const std::vector<double>& {
    return cpu ? round.op_cpu_ms : round.op_ms;
  };
  std::vector<double> best(samples(rounds.front()));
  for (const Round& round : rounds) {
    for (size_t i = 0; i < best.size(); ++i) {
      best[i] = std::min(best[i], samples(round)[i]);
    }
  }
  return best;
}

double TraceOverheadPct(const std::vector<Round>& untraced,
                        const std::vector<Round>& traced) {
  return 100.0 * (Mean(BestPerOp(traced)) / Mean(BestPerOp(untraced)) - 1.0);
}

std::vector<Metric> EndToEndMetrics(const std::vector<Round>& rounds,
                                    double setup_s, std::string* note) {
  const std::vector<double> best = BestPerOp(rounds);
  const size_t n = best.size();
  const double ops = static_cast<double>(n);
  double ops_per_s = 0.0, cpu_ms_per_op = 0.0;
  if (rounds.front().op_cpu_ms.empty()) {
    double best_wall = rounds.front().wall_s;
    double best_cpu = rounds.front().cpu_s;
    for (const Round& round : rounds) {
      best_wall = std::min(best_wall, round.wall_s);
      best_cpu = std::min(best_cpu, round.cpu_s);
    }
    ops_per_s = ops / best_wall;
    cpu_ms_per_op = best_cpu * 1e3 / ops;
  } else {
    ops_per_s = 1e3 / Mean(best);
    cpu_ms_per_op = Mean(BestPerOp(rounds, true));
  }
  const double tail_q = TailQuantile(n);
  char line[256];
  std::snprintf(line, sizeof(line),
                "op_tail_ms %.6g (not gated) is p%g over %zu operations "
                "(each the fastest of %zu rounds; %zu samples in all)",
                Quantile(best, tail_q), tail_q * 100.0, n, rounds.size(),
                n * rounds.size());
  *note = line;
  return {
      {"setup_s", "s", setup_s},
      {"ops_per_s", "ops/s", ops_per_s},
      {"op_p50_ms", "ms", Quantile(best, 0.5)},
      {"cpu_ms_per_op", "ms", cpu_ms_per_op},
      {"peak_rss_mb", "MiB", PeakRssMb()},
  };
}

bool Checks::Expect(bool ok, const std::string& what) {
  if (!ok) failures_.push_back(what);
  return ok;
}

void StageTotals::Collect() {
  dropped_ += gem::obs::Timeline::DroppedEvents();
  const gem::obs::AttributionReport report =
      gem::obs::BuildAttribution(gem::obs::Timeline::Snapshot());
  gem::obs::Timeline::Clear();
  for (const gem::obs::StageCost& cost : report.by_stage) {
    Total& total = totals_[cost.stage];
    total.count += cost.count;
    total.inclusive_s += cost.inclusive_seconds;
  }
}

uint64_t StageTotals::count(const std::string& stage) const {
  const auto it = totals_.find(stage);
  return it == totals_.end() ? 0 : it->second.count;
}

double StageTotals::inclusive_s(const std::string& stage) const {
  const auto it = totals_.find(stage);
  return it == totals_.end() ? 0.0 : it->second.inclusive_s;
}

double StageTotals::mean_ms(const std::string& stage) const {
  const uint64_t n = count(stage);
  return n == 0 ? 0.0 : inclusive_s(stage) * 1e3 / static_cast<double>(n);
}

void StartTimeline(size_t events_per_thread) {
  gem::obs::TimelineOptions options;
  options.events_per_thread = events_per_thread;
  gem::obs::Timeline::Enable(options);
}

void StopTimeline() { gem::obs::Timeline::Disable(); }

int RoundCount(const RunOptions& options, double round_s, int traced_units) {
  const double units = options.trace ? traced_units : 1;
  const int fit = static_cast<int>(options.seconds / (round_s * units));
  return std::max(options.trace ? 1 : 3, fit);
}

}  // namespace perfbench
