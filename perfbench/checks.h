// Correctness checks of the benchmark. Each compares the program's
// outputs with a reference computed apart from the timed path, or with
// the simulator's ground truth, and records a failure in a Checks log.
// SelfTest feeds every check a doctored input to show it can fail.
#ifndef PERFBENCH_CHECKS_H_
#define PERFBENCH_CHECKS_H_

#include <string>
#include <vector>

#include "common.h"
#include "core/gem.h"
#include "rf/types.h"

namespace perfbench {

using Results = std::vector<gem::core::InferenceResult>;

/// Same length, same decisions and bit-identical scores.
bool CheckSameResults(Checks& checks, const std::string& what,
                      const Results& expected, const Results& got);

/// F-score of the "inside" decisions against the simulator's labels
/// must close at least `gap_share` of the gap between the constant
/// answer "inside" (F = 2p / (1 + p) for an inside share p) and a
/// perfect detector. Returns the F-score.
double CheckFScore(Checks& checks, const std::string& what,
                   const Results& results,
                   const std::vector<gem::rf::ScanRecord>& records,
                   double gap_share);

/// Accuracy against the labels must make at most half the mistakes of
/// the better constant answer. Returns the accuracy.
double CheckAccuracy(Checks& checks, const std::string& what,
                     const Results& results,
                     const std::vector<gem::rf::ScanRecord>& records);

/// The snapshot at `path` loads through store::LoadSnapshotAuto.
bool CheckSnapshotLoads(Checks& checks, const std::string& path);

/// The snapshot at `path`, opened mapped, scores `stream` (from a fresh
/// overlay) bit-identically to `expected`, the in-memory model's
/// results on the same stream.
bool CheckMappedScores(Checks& checks, const std::string& path,
                       const Results& expected,
                       const std::vector<gem::rf::ScanRecord>& stream);

/// `Infer` over `stream` from a fresh private overlay.
Results InferAll(const gem::core::Gem& gem,
                 const std::vector<gem::rf::ScanRecord>& stream);

/// Shows each check rejecting a doctored input (a flipped score, a
/// corrupted snapshot byte, swapped labels) and accepting the genuine
/// one. Returns the process exit code.
int SelfTest(const std::string& scratch_dir);

}  // namespace perfbench

#endif  // PERFBENCH_CHECKS_H_
