// gem_perfbench: the end-to-end benchmark binary. perfbench/run.py
// builds it and passes the run's arguments through:
//
//   gem_perfbench --workload {hot_fence,fleet_churn,enrol} --seed N
//                 --seconds S --trace {0,1} --scratch DIR
//                 [--fingerprint HEX] [--rate R]
//   gem_perfbench --selftest --scratch DIR
//   gem_perfbench --print_fingerprints --workload W --seeds A-B
//
// The last line of a run's output is one JSON object: correct,
// attempted, failed and the metrics (end-to-end without --trace,
// per-layer with it).
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "checks.h"
#include "common.h"
#include "inputs.h"
#include "workloads.h"

namespace {

using namespace perfbench;  // NOLINT(build/namespaces) benchmark binary

int Usage(const char* why) {
  std::fprintf(stderr, "gem_perfbench: %s\n", why);
  return 2;
}

uint64_t InputFingerprint(const std::string& workload, uint64_t seed) {
  if (workload == "hot_fence") return Fingerprint(MakeHotFenceInputs(seed));
  if (workload == "fleet_churn") {
    return Fingerprint(MakeChurnInputs(seed, kChurnOfferedRate));
  }
  return Fingerprint(MakeEnrolInputs(seed));
}

void PrintResult(const WorkloadResult& result) {
  bool correct = result.checks.ok();
  for (const std::string& failure : result.checks.failures()) {
    std::printf("CHECK FAILED: %s\n", failure.c_str());
  }
  std::string metrics;
  for (const Metric& metric : result.metrics) {
    double value = metric.value;
    if (!std::isfinite(value)) {
      std::printf("CHECK FAILED: metric %s is not finite\n",
                  metric.name.c_str());
      correct = false;
      value = 0.0;
    }
    char entry[256];
    std::snprintf(entry, sizeof(entry),
                  "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  metrics.empty() ? "" : ", ", metric.name.c_str(), value,
                  metric.unit.c_str());
    metrics += entry;
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {%s}}\n",
              correct ? "true" : "false",
              static_cast<unsigned long long>(result.attempted),
              static_cast<unsigned long long>(result.failed), metrics.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  RunOptions options;
  options.offered_rate = kChurnOfferedRate;
  bool selftest = false;
  bool print_fingerprints = false;
  uint64_t first_seed = 0, last_seed = 0;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--selftest") {
      selftest = true;
      continue;
    }
    if (flag == "--print_fingerprints") {
      print_fingerprints = true;
      continue;
    }
    if (i + 1 >= argc) return Usage(("missing value for " + flag).c_str());
    const char* value = argv[++i];
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      options.seconds = std::strtod(value, nullptr);
    } else if (flag == "--trace") {
      options.trace = std::strcmp(value, "0") != 0;
    } else if (flag == "--scratch") {
      options.scratch_dir = value;
    } else if (flag == "--fingerprint") {
      options.expected_fingerprint = value;
    } else if (flag == "--rate") {
      options.offered_rate = std::strtod(value, nullptr);
    } else if (flag == "--seeds") {
      char* end = nullptr;
      first_seed = std::strtoull(value, &end, 10);
      last_seed = *end == '-' ? std::strtoull(end + 1, nullptr, 10) : first_seed;
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
  }

  if (selftest) {
    if (options.scratch_dir.empty()) return Usage("--selftest needs --scratch");
    return SelfTest(options.scratch_dir);
  }
  if (options.workload != "hot_fence" && options.workload != "fleet_churn" &&
      options.workload != "enrol") {
    return Usage("--workload must be hot_fence, fleet_churn or enrol");
  }
  if (print_fingerprints) {
    for (uint64_t seed = first_seed; seed <= last_seed; ++seed) {
      std::printf("%s %llu %016llx\n", options.workload.c_str(),
                  static_cast<unsigned long long>(seed),
                  static_cast<unsigned long long>(
                      InputFingerprint(options.workload, seed)));
    }
    return 0;
  }
  if (options.scratch_dir.empty()) return Usage("--scratch is required");
  if (!(options.seconds > 0) || !(options.offered_rate > 0)) {
    return Usage("--seconds and --rate must be positive");
  }

  WorkloadResult result;
  if (options.workload == "hot_fence") {
    result = RunHotFence(options);
  } else if (options.workload == "fleet_churn") {
    result = RunFleetChurn(options);
  } else {
    result = RunEnrol(options);
  }
  PrintResult(result);
  return 0;
}
