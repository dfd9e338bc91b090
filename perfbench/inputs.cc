#include "inputs.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <numeric>

#include "math/rng.h"
#include "rf/dataset.h"
#include "rf/scenario.h"

namespace perfbench {
namespace {

using gem::math::Rng;
using gem::rf::ScanRecord;

constexpr int kChurnHomeCount =
    static_cast<int>(sizeof(kChurnHomes) / sizeof(kChurnHomes[0]));

/// Options for a test stream of about `scans` scans at one per 3 s,
/// alternating 150 s inside and outside the premises.
gem::rf::DatasetOptions StreamOptions(uint64_t seed, int scans) {
  gem::rf::DatasetOptions options;
  options.seed = seed;
  options.test_segment_duration_s = 150.0;
  options.test_scan_interval_s = 3.0;
  options.test_segments = scans / 50 + 1;
  return options;
}

class Fnv {
 public:
  void Bytes(const void* data, size_t n) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (size_t i = 0; i < n; ++i) {
      hash_ = (hash_ ^ p[i]) * 1099511628211ULL;
    }
  }
  void Int(int64_t v) { Bytes(&v, sizeof(v)); }
  void Records(const std::vector<ScanRecord>& records) {
    Int(static_cast<int64_t>(records.size()));
    for (const ScanRecord& r : records) {
      Int(static_cast<int64_t>(r.readings.size()));
      for (const auto& reading : r.readings) {
        Bytes(reading.mac.data(), reading.mac.size());
        Int(std::llround(reading.rss_dbm * 100.0));
        Int(static_cast<int64_t>(reading.band));
      }
      Int(std::llround(r.timestamp_s * 1000.0));
      Int(r.floor);
      Int(r.inside ? 1 : 0);
    }
  }
  uint64_t value() const { return hash_; }

 private:
  uint64_t hash_ = 1469598103934665603ULL;
};

}  // namespace

HotFenceInputs MakeHotFenceInputs(uint64_t seed) {
  gem::rf::Dataset data = gem::rf::GenerateScenarioDataset(
      gem::rf::HomePreset(kHotHome),
      StreamOptions(Rng::StreamSeed(seed, 1), kHotRequests));
  data.test.resize(kHotRequests);
  return {std::move(data.train), std::move(data.test)};
}

ChurnInputs MakeChurnInputs(uint64_t seed, double rate) {
  ChurnInputs inputs;
  for (int slot = 0; slot < kChurnHomeCount; ++slot) {
    gem::rf::DatasetOptions options =
        StreamOptions(Rng::StreamSeed(seed, 10 + slot), kChurnStreamScans);
    options.train_duration_s = kChurnWalkSeconds;
    gem::rf::Dataset data = gem::rf::GenerateScenarioDataset(
        gem::rf::HomePreset(kChurnHomes[slot]), options);
    data.test.resize(kChurnStreamScans);
    inputs.train.push_back(std::move(data.train));
    inputs.stream.push_back(std::move(data.test));
  }

  // Stratified Poisson/Zipf: every seed serves each fence its Zipf share
  // of the requests (largest-remainder rounding; fence f has rank f)
  // and uses the same multiset of exponential gaps (the quantiles at
  // (k + 0.5) / n). The seed orders both and picks the scans, so seeds
  // differ in the order of arrivals, not in how much work they bring.
  Rng rng(Rng::StreamSeed(seed, 2));
  std::vector<double> share(kChurnFences);
  for (int fence = 0; fence < kChurnFences; ++fence) {
    share[fence] = 1.0 / std::pow(fence + 1.0, kChurnZipf);
  }
  const double mass = std::accumulate(share.begin(), share.end(), 0.0);
  std::vector<int> count(kChurnFences);
  std::vector<std::pair<double, int>> remainders;
  int assigned = 0;
  for (int fence = 0; fence < kChurnFences; ++fence) {
    const double quota = kChurnRequests * share[fence] / mass;
    count[fence] = static_cast<int>(quota);
    assigned += count[fence];
    remainders.push_back({count[fence] - quota, fence});
  }
  std::sort(remainders.begin(), remainders.end());
  for (int k = 0; assigned < kChurnRequests; ++k, ++assigned) {
    ++count[remainders[k].second];
  }
  std::vector<int> fences;
  for (int fence = 0; fence < kChurnFences; ++fence) {
    fences.insert(fences.end(), count[fence], fence);
  }
  rng.Shuffle(fences);
  std::vector<double> gaps(kChurnRequests);
  for (int k = 0; k < kChurnRequests; ++k) {
    gaps[k] = -std::log(1.0 - (k + 0.5) / kChurnRequests) / rate;
  }
  rng.Shuffle(gaps);
  std::vector<int> next_scan(kChurnFences);
  for (int& offset : next_scan) offset = rng.UniformInt(kChurnStreamScans);

  double t = 0.0;
  for (int i = 0; i < kChurnRequests; ++i) {
    const int fence = fences[i];
    inputs.schedule.push_back({fence, next_scan[fence], t});
    next_scan[fence] = (next_scan[fence] + 1) % kChurnStreamScans;
    t += gaps[i];
  }
  return inputs;
}

std::vector<EnrolUnit> MakeEnrolInputs(uint64_t seed) {
  std::vector<EnrolUnit> units;
  for (int home = 0; home < kEnrolHomes; ++home) {
    for (int k = 0; k < kEnrolSeedsPerHome; ++k) {
      gem::rf::DatasetOptions options;
      options.seed = Rng::StreamSeed(seed, 100 + home * kEnrolSeedsPerHome + k);
      options.train_duration_s = kEnrolWalkSeconds;
      options.test_segments = 2;
      options.test_segment_duration_s = 90.0;
      options.test_scan_interval_s = 3.0;
      gem::rf::Dataset data = gem::rf::GenerateScenarioDataset(
          gem::rf::HomePreset(home), options);
      units.push_back({home, std::move(data.train), std::move(data.test)});
    }
  }
  return units;
}

uint64_t Fingerprint(const HotFenceInputs& inputs) {
  Fnv fnv;
  fnv.Records(inputs.train);
  fnv.Records(inputs.stream);
  return fnv.value();
}

uint64_t Fingerprint(const ChurnInputs& inputs) {
  Fnv fnv;
  for (const auto& train : inputs.train) fnv.Records(train);
  for (const auto& stream : inputs.stream) fnv.Records(stream);
  for (const ChurnRequest& request : inputs.schedule) {
    fnv.Int(request.fence);
    fnv.Int(request.scan);
    fnv.Int(std::llround(request.send_s * 1e6));
  }
  return fnv.value();
}

uint64_t Fingerprint(const std::vector<EnrolUnit>& units) {
  Fnv fnv;
  for (const EnrolUnit& unit : units) {
    fnv.Int(unit.home);
    fnv.Records(unit.train);
    fnv.Records(unit.holdout);
  }
  return fnv.value();
}

}  // namespace perfbench
