// Workload inputs, generated by the RF simulator from the run's seed,
// and the fingerprint that pins them (perfbench/fingerprints.json).
#ifndef PERFBENCH_INPUTS_H_
#define PERFBENCH_INPUTS_H_

#include <cstdint>
#include <vector>

#include "rf/types.h"

namespace perfbench {

/// Training threads of every Gem::Train the benchmark runs.
inline constexpr int kTrainThreads = 2;

// ----- hot_fence: one fence, one device, a long time-ordered stream --
/// Table II home serving the hot fence (~50 m^2, 33 MACs).
inline constexpr int kHotHome = 2;
/// Distinct scans per round; per-request cost grows with this history.
/// Just under 3000, so op_tail_ms is p99 with 30 requests beyond it
/// (TailQuantile) rather than p99.5 with 15.
inline constexpr int kHotRequests = 2990;
/// Nominal length of one round on the reference host (README.md); sets
/// how many rounds a run of a given length makes.
inline constexpr double kHotRoundSeconds = 5.0;

// ----- fleet_churn: Zipf fleet over a bounded fence cache ------------
inline constexpr int kChurnHomes[] = {0, 2, 3, 5, 7, 9};
inline constexpr int kChurnFences = 512;
/// Cache capacity: the LRU misses about two requests in three, so the
/// median request is a miss (cold load plus evict-flush), away from the
/// hit/miss boundary where p50 would jump between the two modes.
inline constexpr int kChurnCapacity = 16;
inline constexpr double kChurnZipf = 1.0;
/// Open-loop offered rate, requests per second: under a third of the
/// rate the engine sustains on this workload (README.md). At half, the
/// tail doubled whenever the host slowed by a fifth.
inline constexpr double kChurnOfferedRate = 110.0;
/// Requests per round: just under 1000, so op_tail_ms is p98 with 20
/// requests beyond it (TailQuantile) rather than p99 with 10.
inline constexpr int kChurnRequests = 995;
/// Scans per home stream; a fence walks its home's stream from its own
/// offset, so fences of one home see different, overlapping scans.
inline constexpr int kChurnStreamScans = 600;
/// Perimeter walk each home's fences are trained on.
inline constexpr double kChurnWalkSeconds = 240.0;
/// The schedule's length plus the drain and the round's set-up.
inline constexpr double kChurnRoundSeconds =
    kChurnRequests / kChurnOfferedRate + 0.5;

// ----- enrol: fit + save of one fence per (home, seed) ---------------
inline constexpr int kEnrolHomes = 10;
inline constexpr int kEnrolSeedsPerHome = 4;
/// Perimeter walk per enrolment (120 scans at one scan per 2 s).
inline constexpr double kEnrolWalkSeconds = 240.0;
inline constexpr double kEnrolRoundSeconds = 8.0;

struct HotFenceInputs {
  std::vector<gem::rf::ScanRecord> train;
  std::vector<gem::rf::ScanRecord> stream;
};

struct ChurnRequest {
  int fence = 0;
  /// Index into the fence's home stream.
  int scan = 0;
  /// Intended send time, seconds after the round starts.
  double send_s = 0.0;
};

struct ChurnInputs {
  /// Per home slot (fence f uses slot f % size): training walk and the
  /// scan stream its fences are served from.
  std::vector<std::vector<gem::rf::ScanRecord>> train;
  std::vector<std::vector<gem::rf::ScanRecord>> stream;
  std::vector<ChurnRequest> schedule;

  const gem::rf::ScanRecord& record(const ChurnRequest& request) const {
    return stream[static_cast<size_t>(request.fence) % stream.size()]
                 [static_cast<size_t>(request.scan)];
  }
};

struct EnrolUnit {
  int home = 0;
  std::vector<gem::rf::ScanRecord> train;
  /// Labelled scans the saved model must score like the fitted one.
  std::vector<gem::rf::ScanRecord> holdout;
};

HotFenceInputs MakeHotFenceInputs(uint64_t seed);
/// Poisson arrivals at `rate` requests per second.
ChurnInputs MakeChurnInputs(uint64_t seed, double rate);
std::vector<EnrolUnit> MakeEnrolInputs(uint64_t seed);

/// FNV-1a over every generated field the program or the checks read:
/// MACs, RSS (0.01 dB), band, timestamp (ms), floor and the label, plus
/// the churn schedule (fence, scan, send time in microseconds).
uint64_t Fingerprint(const HotFenceInputs& inputs);
uint64_t Fingerprint(const ChurnInputs& inputs);
uint64_t Fingerprint(const std::vector<EnrolUnit>& units);

}  // namespace perfbench

#endif  // PERFBENCH_INPUTS_H_
