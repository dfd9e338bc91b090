// Shared plumbing of the end-to-end benchmark: options, clocks,
// process counters, round statistics and the metric list each workload
// returns. See perfbench/README.md for what is measured and why.
#ifndef PERFBENCH_COMMON_H_
#define PERFBENCH_COMMON_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

/// What one invocation runs. `seconds` is the timed budget: workloads
/// repeat whole rounds of the same operations until it is spent.
struct RunOptions {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Directory for snapshots and fence files; created by the caller,
  /// removed after the run.
  std::string scratch_dir;
  /// Open-loop offered rate of fleet_churn (requests per second).
  double offered_rate = 0.0;
  /// Recorded input fingerprint for this workload and seed (hex), or
  /// empty when none is recorded.
  std::string expected_fingerprint;
};

/// Stops the process (exit code 3) when `fingerprint` differs from the
/// one recorded for the run's workload and seed.
void VerifyFingerprint(const RunOptions& options, uint64_t fingerprint);

/// Seconds on the steady clock.
double Now();
/// Seconds since this process started (static initialisation).
double SinceProcessStart();
/// getrusage(RUSAGE_SELF) user + system seconds.
double ProcessCpuSeconds();
/// VmHWM of this process in MiB.
double PeakRssMb();
/// Bytes this process handed to write(2) and friends (/proc/self/io
/// wchar): what snapshot writes cost, page cache or not.
uint64_t WrittenBytes();

struct Metric {
  std::string name;
  std::string unit;
  double value = 0.0;
};

/// One repetition of a workload's fixed operation list from a fresh
/// state: op_ms[i] is the latency of operation i. A closed loop also
/// records the process CPU time of each operation in op_cpu_ms.
struct Round {
  std::vector<double> op_ms;
  std::vector<double> op_cpu_ms;
  /// How late each operation was sent: in an open loop, after its
  /// intended send time; in a closed loop, after the previous one
  /// completed (the client's own gap).
  std::vector<double> lag_ms;
  double wall_s = 0.0;
  double cpu_s = 0.0;
};

/// Each operation's fastest latency (or, with `cpu`, its smallest CPU
/// time) over `rounds`.
std::vector<double> BestPerOp(const std::vector<Round>& rounds,
                              bool cpu = false);

/// How much slower the traced rounds ran than the untraced ones, in
/// percent of the untraced mean per-operation best.
double TraceOverheadPct(const std::vector<Round>& untraced,
                        const std::vector<Round>& traced);

/// Nearest-rank quantile (q in [0, 1]) of an unsorted sample.
double Quantile(std::vector<double> values, double q);
double Mean(const std::vector<double>& values);

/// The percentile op_tail_ms reports for `n` operations: the highest of
/// 99.9, 99.5, 99, 98, 95, 90, 75 with at least ten operations beyond
/// it (50 when even 75 has fewer).
double TailQuantile(size_t n);

/// The end-to-end metrics from the rounds of one run. Each
/// operation's latency is its fastest over the rounds (so a slow
/// stretch of the host has to cover every round to show); p50 and the
/// tail are taken over those per-operation bests. A closed loop's
/// throughput and CPU cost follow from the same per-operation bests
/// (one client: ops/s = ops / sum of latencies); an open loop's come
/// from its best round, timed from the first intended send to the last
/// completion. The tail is not among the returned metrics: it moved by
/// more than the largest bound between two sets of runs of the same
/// code (README.md), so `note` receives it, with its percentile and the
/// sample counts, for the run's log.
std::vector<Metric> EndToEndMetrics(const std::vector<Round>& rounds,
                                    double setup_s, std::string* note);

/// Collects the failures of a workload's correctness checks.
class Checks {
 public:
  /// Records `what` as failed unless `ok`; returns `ok`.
  bool Expect(bool ok, const std::string& what);
  bool ok() const { return failures_.empty(); }
  const std::vector<std::string>& failures() const { return failures_; }

 private:
  std::vector<std::string> failures_;
};

/// What a workload hands back to main.
struct WorkloadResult {
  Checks checks;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<Metric> metrics;
};

/// Per-stage span totals accumulated over timeline recordings, keyed
/// by span name (inclusive time; async queue waits included).
class StageTotals {
 public:
  /// Adds what the timeline recorded so far, then clears it; callers
  /// collect before a thread's buffer fills.
  void Collect();
  uint64_t count(const std::string& stage) const;
  double inclusive_s(const std::string& stage) const;
  /// Mean inclusive milliseconds per span (0 without spans).
  double mean_ms(const std::string& stage) const;
  /// Events the timeline dropped because a buffer was full.
  uint64_t dropped() const { return dropped_; }

 private:
  struct Total {
    uint64_t count = 0;
    double inclusive_s = 0.0;
  };
  std::map<std::string, Total> totals_;
  uint64_t dropped_ = 0;
};

/// Turns the timeline on or off. Recording is unsampled. A thread's
/// buffer is sized when the thread first records and is kept for the
/// life of the process, even after the thread ends.
void StartTimeline(size_t events_per_thread);
void StopTimeline();

/// How many times a run repeats its round: as many rounds of nominal
/// length `round_s` as fit in `options.seconds` (a traced iteration is
/// `traced_units` rounds long), but at least three untraced or one
/// traced. It depends on the budget only, never on how fast the host
/// happens to run, so runs with the same budget do the same work.
int RoundCount(const RunOptions& options, double round_s, int traced_units);

}  // namespace perfbench

#endif  // PERFBENCH_COMMON_H_
