#include "checks.h"

#include <bit>
#include <cstdio>
#include <fstream>
#include <iterator>

#include "rf/dataset.h"
#include "rf/scenario.h"
#include "store/mapped_model.h"
#include "store/snapshot_v2.h"

namespace perfbench {
namespace {

using gem::core::Decision;
using gem::rf::ScanRecord;

struct Confusion {
  double tp = 0, fp = 0, fn = 0, tn = 0;
};

Confusion Count(const Results& results, const std::vector<ScanRecord>& records) {
  Confusion c;
  for (size_t i = 0; i < results.size() && i < records.size(); ++i) {
    const bool said_inside = results[i].decision == Decision::kInside;
    const bool inside = records[i].inside;
    (said_inside ? (inside ? c.tp : c.fp) : (inside ? c.fn : c.tn)) += 1;
  }
  return c;
}

std::string Format(const char* format, double a, double b) {
  char line[160];
  std::snprintf(line, sizeof(line), format, a, b);
  return line;
}

}  // namespace

bool CheckSameResults(Checks& checks, const std::string& what,
                      const Results& expected, const Results& got) {
  if (expected.size() != got.size()) {
    return checks.Expect(false, what + ": " + std::to_string(got.size()) +
                                    " results, expected " +
                                    std::to_string(expected.size()));
  }
  for (size_t i = 0; i < expected.size(); ++i) {
    if (expected[i].decision != got[i].decision ||
        std::bit_cast<uint64_t>(expected[i].score) !=
            std::bit_cast<uint64_t>(got[i].score)) {
      return checks.Expect(false, what + ": result " + std::to_string(i) +
                                      " differs from the reference");
    }
  }
  return true;
}

double CheckFScore(Checks& checks, const std::string& what,
                   const Results& results,
                   const std::vector<ScanRecord>& records,
                   double gap_share) {
  const Confusion c = Count(results, records);
  const double f = 2 * c.tp / std::max(1.0, 2 * c.tp + c.fp + c.fn);
  const double p = (c.tp + c.fn) / std::max(1.0, c.tp + c.fp + c.fn + c.tn);
  const double constant_f = 2 * p / (1 + p);
  const double floor = constant_f + gap_share * (1 - constant_f);
  checks.Expect(f >= floor,
                what + Format(": F-score %.3f below floor %.3f", f, floor));
  return f;
}

double CheckAccuracy(Checks& checks, const std::string& what,
                     const Results& results,
                     const std::vector<ScanRecord>& records) {
  const Confusion c = Count(results, records);
  const double n = std::max(1.0, c.tp + c.fp + c.fn + c.tn);
  const double accuracy = (c.tp + c.tn) / n;
  const double majority = std::max(c.tp + c.fn, c.fp + c.tn) / n;
  const double floor = (1 + majority) / 2;
  checks.Expect(accuracy >= floor, what + Format(": accuracy %.3f below "
                                                 "floor %.3f",
                                                 accuracy, floor));
  return accuracy;
}

bool CheckSnapshotLoads(Checks& checks, const std::string& path) {
  const auto loaded = gem::store::LoadSnapshotAuto(path);
  return checks.Expect(loaded.ok(), "snapshot " + path + " does not load: " +
                                        loaded.status().ToString());
}

Results InferAll(const gem::core::Gem& gem,
                 const std::vector<ScanRecord>& stream) {
  gem::core::GemOverlay overlay;
  Results results;
  results.reserve(stream.size());
  for (const ScanRecord& record : stream) {
    results.push_back(gem.Infer(record, overlay));
  }
  return results;
}

bool CheckMappedScores(Checks& checks, const std::string& path,
                       const Results& expected,
                       const std::vector<ScanRecord>& stream) {
  auto mapped = gem::store::MappedModel::Open(path);
  if (!checks.Expect(mapped.ok(), "snapshot " + path + " does not open "
                                      "mapped: " +
                                      mapped.status().ToString())) {
    return false;
  }
  return CheckSameResults(checks, "mapped " + path, expected,
                          InferAll(mapped->gem(), stream));
}

int SelfTest(const std::string& scratch_dir) {
  int failures = 0;
  auto expect_rejected = [&](const char* name, const Checks& genuine,
                             const Checks& doctored) {
    const bool ok = genuine.ok() && !doctored.ok();
    std::printf("selftest %-28s genuine %s, doctored %s -> %s\n", name,
                genuine.ok() ? "accepted" : "REJECTED",
                doctored.ok() ? "ACCEPTED" : "rejected",
                ok ? "ok" : "FAIL");
    if (!doctored.ok()) {
      std::printf("  doctored input reported: %s\n",
                  doctored.failures().front().c_str());
    }
    if (!ok) ++failures;
  };

  // A small real model and a labelled stream.
  gem::rf::DatasetOptions options;
  options.seed = 5;
  options.train_duration_s = 240.0;
  options.test_segments = 4;
  const gem::rf::Dataset data =
      gem::rf::GenerateScenarioDataset(gem::rf::HomePreset(2), options);
  gem::core::Gem gem;
  if (!gem.Train(data.train).ok()) {
    std::printf("selftest: training failed\n");
    return 1;
  }
  const Results genuine = InferAll(gem, data.test);

  {  // A flipped score.
    Results flipped = genuine;
    flipped[flipped.size() / 2].score = std::bit_cast<double>(
        std::bit_cast<uint64_t>(flipped[flipped.size() / 2].score) ^ 1);
    Checks good, bad;
    CheckSameResults(good, "scores", genuine, InferAll(gem, data.test));
    CheckSameResults(bad, "scores", genuine, flipped);
    expect_rejected("flipped score", good, bad);
  }
  {  // Swapped labels, against both accuracy floors.
    std::vector<gem::rf::ScanRecord> swapped = data.test;
    for (auto& record : swapped) record.inside = !record.inside;
    Checks good_f, bad_f, good_a, bad_a;
    CheckFScore(good_f, "F", genuine, data.test, 0.0);
    CheckFScore(bad_f, "F", genuine, swapped, 0.0);
    expect_rejected("swapped labels (F-score)", good_f, bad_f);
    CheckAccuracy(good_a, "accuracy", genuine, data.test);
    CheckAccuracy(bad_a, "accuracy", genuine, swapped);
    expect_rejected("swapped labels (accuracy)", good_a, bad_a);
  }
  {  // A corrupted snapshot byte.
    const std::string path = scratch_dir + "/selftest.gem";
    const std::string corrupt = scratch_dir + "/selftest_corrupt.gem";
    if (!gem::store::SaveSnapshotV2(path, gem).ok()) {
      std::printf("selftest: snapshot save failed\n");
      return 1;
    }
    std::string bytes;
    {
      std::ifstream in(path, std::ios::binary);
      bytes.assign(std::istreambuf_iterator<char>(in), {});
    }
    bytes[bytes.size() / 2] = static_cast<char>(bytes[bytes.size() / 2] ^ 0x40);
    std::ofstream(corrupt, std::ios::binary) << bytes;
    Checks good_load, bad_load, good_mapped, bad_mapped;
    CheckSnapshotLoads(good_load, path);
    CheckSnapshotLoads(bad_load, corrupt);
    expect_rejected("corrupted byte (load)", good_load, bad_load);
    CheckMappedScores(good_mapped, path, genuine, data.test);
    CheckMappedScores(bad_mapped, corrupt, genuine, data.test);
    expect_rejected("corrupted byte (mapped)", good_mapped, bad_mapped);
  }
  std::printf("selftest %s\n", failures == 0 ? "passed" : "FAILED");
  return failures == 0 ? 0 : 1;
}

}  // namespace perfbench
