// Per-layer measurement of the traced run: the metric list every
// workload prints with --trace 1, and the direct, individually timed
// calls into each layer that the traced replay makes.
#ifndef PERFBENCH_LAYERS_H_
#define PERFBENCH_LAYERS_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common.h"
#include "core/geofence.h"
#include "graph/graph_delta.h"
#include "serve/fence.h"
#include "store/fence_cache.h"

namespace perfbench {

/// Every per-layer metric; a layer a workload does not exercise stays 0.
struct LayerReport {
  double graph_append_us = 0, graph_overlay_nodes = 0, graph_touched_rows = 0,
         graph_touched_row_degree = 0;
  double core_observe_ms = 0, core_detect_us = 0, core_update_us = 0,
         core_compact_ms = 0;
  double detect_absorbed = 0;
  double store_cold_load_ms = 0, store_acquire_hit_us = 0, store_flush_ms = 0,
         store_dirty_walk_ms = 0,
         store_cold_loads = 0, store_hits = 0, store_evictions = 0,
         store_flushes = 0, store_hit_ratio = 0, store_bytes_written_mb = 0,
         store_private_dirty_mb = 0;
  double serve_queue_wait_ms = 0, serve_lookup_ms = 0,
         serve_generator_lag_ms = 0;
  double embed_fit_s = 0, embed_walks_s = 0, embed_gradient_s = 0,
         embed_reduce_s = 0;
  double base_pool_queue_wait_ms = 0;
  double obs_trace_overhead_pct = 0;

  std::vector<Metric> ToMetrics() const;
  /// embed.* and base.* from the spans of the Gem::Train calls recorded
  /// in `spans` (per fit; gradient time is summed over threads).
  void SetTraining(const StageTotals& spans);
  /// core.compact_ms and serve.queue_wait_ms / serve.lookup_ms from the
  /// spans of the traced serving, plus the process's private dirty
  /// memory now (store::PrivateDirtyBytes).
  void SetServing(const StageTotals& spans);
};

/// Mean lag_ms over every operation of `rounds`.
double MeanLag(const std::vector<Round>& rounds);

/// Samples of the direct replay of serving requests.
struct DirectSamples {
  std::vector<double> append_us, observe_ms, detect_us, update_us;
  double overlay_nodes = 0, touched_rows = 0, touched_row_degree = 0;
  uint64_t requests = 0;
  uint64_t absorbed = 0;
  // Store layer (fleet_churn): Acquire split by what it did.
  std::vector<double> acquire_hit_us, cold_load_ms, flush_ms, dirty_walk_ms;
  uint64_t hits = 0, misses = 0, evictions = 0, flushes = 0;
  uint64_t bytes_written = 0;
  /// Replays these samples cover; counts are reported per replay.
  int rounds = 0;

  /// Moves the serving-layer means and per-replay counts into `report`.
  void Report(LayerReport& report) const;
};

/// A GraphDelta fed the same records as one fence id's overlay, over
/// the same base, so graph appends can be timed on their own. Reset
/// when the fence is reloaded (a new generation has a new base).
struct ShadowDelta {
  uint64_t generation = 0;
  gem::graph::GraphDelta delta;
};

/// One request by direct calls to each layer under the fence mutex:
/// Observe, Detect and (for a confident inside) Update, each timed,
/// as Gem::Infer composes them; then the same append on `shadow`.
gem::core::InferenceResult ServeDirect(gem::serve::Fence& fence,
                                       const gem::rf::ScanRecord& record,
                                       ShadowDelta& shadow,
                                       DirectSamples& samples);

/// Times one store::PrivateDirtyBytes() call, the /proc walk that
/// FenceCache makes after every flush, into samples.dirty_walk_ms.
/// Called where the program has just made that walk, so it runs at the
/// same mapping count.
void TimeDirtyWalk(DirectSamples& samples);

/// Folds the fence's overlay into its base and writes the result to
/// `path`, as FenceCache does when it flushes an evicted fence: the
/// fold and the write are one store.flush_ms sample (the fold is also
/// the gem.compact span), followed by a timed walk as the cache makes.
gem::Status WriteBackTimed(gem::serve::Fence& fence, const std::string& path,
                           DirectSamples& samples);

/// FenceCache::Acquire, timed and classified (hit, cold load, flush of
/// an evicted fence) from the cache's own counters. Serial use only.
gem::StatusOr<std::shared_ptr<gem::serve::Fence>> AcquireTimed(
    gem::store::FenceCache& cache, const std::string& fence_id,
    DirectSamples& samples);

}  // namespace perfbench

#endif  // PERFBENCH_LAYERS_H_
