#include "layers.h"

#include <algorithm>
#include <mutex>

#include "obs/metrics.h"
#include "store/meminfo.h"
#include "store/snapshot_v2.h"

namespace perfbench {
namespace {

using gem::core::Decision;
using gem::core::InferenceResult;
using gem::obs::MetricsRegistry;

uint64_t CounterValue(const char* name) {
  return MetricsRegistry::Get().GetCounter(name).value();
}

double ColdLoadSecondsTotal() {
  return MetricsRegistry::Get()
      .GetHistogram("gem_store_cold_load_seconds",
                    gem::obs::LatencyBuckets())
      .sum();
}

}  // namespace

std::vector<Metric> LayerReport::ToMetrics() const {
  return {
      {"graph.append_us", "us", graph_append_us},
      {"graph.overlay_nodes", "count", graph_overlay_nodes},
      {"graph.touched_rows", "count", graph_touched_rows},
      {"graph.touched_row_degree", "count", graph_touched_row_degree},
      {"core.observe_ms", "ms", core_observe_ms},
      {"core.detect_us", "us", core_detect_us},
      {"core.update_us", "us", core_update_us},
      {"core.compact_ms", "ms", core_compact_ms},
      {"detect.absorbed", "count", detect_absorbed},
      {"store.cold_load_ms", "ms", store_cold_load_ms},
      {"store.acquire_hit_us", "us", store_acquire_hit_us},
      {"store.flush_ms", "ms", store_flush_ms},
      {"store.dirty_walk_ms", "ms", store_dirty_walk_ms},
      {"store.cold_loads", "count", store_cold_loads},
      {"store.hits", "count", store_hits},
      {"store.evictions", "count", store_evictions},
      {"store.flushes", "count", store_flushes},
      {"store.hit_ratio", "ratio", store_hit_ratio},
      {"store.bytes_written_mb", "MiB", store_bytes_written_mb},
      {"store.private_dirty_mb", "MiB", store_private_dirty_mb},
      {"serve.queue_wait_ms", "ms", serve_queue_wait_ms},
      {"serve.lookup_ms", "ms", serve_lookup_ms},
      {"serve.generator_lag_ms", "ms", serve_generator_lag_ms},
      {"embed.fit_s", "s", embed_fit_s},
      {"embed.walks_s", "s", embed_walks_s},
      {"embed.gradient_s", "s", embed_gradient_s},
      {"embed.reduce_s", "s", embed_reduce_s},
      {"base.pool_queue_wait_ms", "ms", base_pool_queue_wait_ms},
      {"obs.trace_overhead_pct", "%", obs_trace_overhead_pct},
  };
}

void LayerReport::SetTraining(const StageTotals& spans) {
  const double fits = static_cast<double>(spans.count("bisage.train"));
  if (fits == 0) return;
  embed_fit_s = spans.inclusive_s("bisage.train") / fits;
  embed_walks_s = spans.inclusive_s("bisage.walks") / fits;
  embed_gradient_s = spans.inclusive_s("bisage.gradient") / fits;
  embed_reduce_s = spans.inclusive_s("bisage.reduce") / fits;
  base_pool_queue_wait_ms = spans.mean_ms("pool.queue_wait");
}

void LayerReport::SetServing(const StageTotals& spans) {
  core_compact_ms = spans.mean_ms("gem.compact");
  serve_queue_wait_ms = spans.mean_ms("serve.queue_wait");
  serve_lookup_ms = spans.mean_ms("serve.lookup");
  const auto dirty = gem::store::PrivateDirtyBytes();
  store_private_dirty_mb =
      dirty.ok() ? static_cast<double>(*dirty) / (1024.0 * 1024.0) : 0.0;
}

void DirectSamples::Report(LayerReport& report) const {
  const double n = static_cast<double>(requests);
  const double per_round = 1.0 / std::max(1, rounds);
  report.graph_append_us = Mean(append_us);
  report.graph_overlay_nodes = overlay_nodes / n;
  report.graph_touched_rows = touched_rows / n;
  report.graph_touched_row_degree = touched_row_degree / n;
  report.core_observe_ms = Mean(observe_ms);
  report.core_detect_us = Mean(detect_us);
  report.core_update_us = Mean(update_us);
  report.detect_absorbed = static_cast<double>(absorbed) * per_round;
  report.store_cold_load_ms = Mean(cold_load_ms);
  report.store_acquire_hit_us = Mean(acquire_hit_us);
  report.store_flush_ms = Mean(flush_ms);
  report.store_dirty_walk_ms = Mean(dirty_walk_ms);
  report.store_cold_loads = static_cast<double>(misses) * per_round;
  report.store_hits = static_cast<double>(hits) * per_round;
  report.store_evictions = static_cast<double>(evictions) * per_round;
  report.store_flushes = static_cast<double>(flushes) * per_round;
  report.store_hit_ratio =
      hits + misses == 0 ? 0.0 : static_cast<double>(hits) / (hits + misses);
  report.store_bytes_written_mb =
      static_cast<double>(bytes_written) * per_round / (1024.0 * 1024.0);
}

double MeanLag(const std::vector<Round>& rounds) {
  double sum = 0.0;
  size_t n = 0;
  for (const Round& round : rounds) {
    for (const double lag : round.lag_ms) sum += lag;
    n += round.lag_ms.size();
  }
  return n == 0 ? 0.0 : sum / static_cast<double>(n);
}

InferenceResult ServeDirect(gem::serve::Fence& fence,
                            const gem::rf::ScanRecord& record,
                            ShadowDelta& shadow, DirectSamples& samples) {
  InferenceResult result;
  {
    std::lock_guard lock(fence.mutex);
    const gem::core::Gem& gem = fence.gem;
    double start = Now();
    const auto embedding = gem.Observe(record, fence.overlay);
    samples.observe_ms.push_back((Now() - start) * 1e3);
    if (!embedding.ok()) {
      // No MAC in common with anything seen: outside outright, as
      // Gem::Infer answers it.
      result.decision = Decision::kOutside;
      result.score = 1.0;
    } else {
      start = Now();
      result = gem.Detect(*embedding, fence.overlay);
      samples.detect_us.push_back((Now() - start) * 1e6);
      if (gem.config().online_update && result.decision == Decision::kInside) {
        const long absorbed_before = fence.overlay.absorbed;
        start = Now();
        const auto updated = gem.Update(*embedding, fence.overlay);
        samples.update_us.push_back((Now() - start) * 1e6);
        result.model_updated = updated.ok() && *updated;
        samples.absorbed +=
            static_cast<uint64_t>(fence.overlay.absorbed - absorbed_before);
      }
    }
    const gem::graph::GraphDelta& delta = fence.overlay.embedder.graph;
    samples.overlay_nodes += delta.num_new_nodes();
    samples.touched_rows += static_cast<double>(delta.touched().size());
    if (!delta.touched().empty()) {
      double edges = 0;
      for (const auto& [node, row] : delta.touched()) edges += row.size();
      samples.touched_row_degree +=
          edges / static_cast<double>(delta.touched().size());
    }
  }
  if (shadow.generation != fence.generation) {
    shadow.generation = fence.generation;
    shadow.delta = gem::graph::GraphDelta();
  }
  const double start = Now();
  shadow.delta.AddRecord(fence.gem.embedder().graph(), record);
  samples.append_us.push_back((Now() - start) * 1e6);
  ++samples.requests;
  return result;
}

void TimeDirtyWalk(DirectSamples& samples) {
  const double start = Now();
  (void)gem::store::PrivateDirtyBytes();
  samples.dirty_walk_ms.push_back((Now() - start) * 1e3);
}

gem::Status WriteBackTimed(gem::serve::Fence& fence, const std::string& path,
                           DirectSamples& samples) {
  std::lock_guard lock(fence.mutex);
  const double start = Now();
  auto merged = fence.gem.Compacted(fence.overlay);
  const gem::Status saved = merged.ok()
                                ? gem::store::SaveSnapshotV2(path, *merged)
                                : merged.status();
  samples.flush_ms.push_back((Now() - start) * 1e3);
  ++samples.flushes;
  TimeDirtyWalk(samples);
  return saved;
}

gem::StatusOr<std::shared_ptr<gem::serve::Fence>> AcquireTimed(
    gem::store::FenceCache& cache, const std::string& fence_id,
    DirectSamples& samples) {
  const uint64_t hits = CounterValue("gem_store_cache_hits_total");
  const uint64_t misses = CounterValue("gem_store_cache_misses_total");
  const uint64_t evictions = CounterValue("gem_store_cache_evictions_total");
  const uint64_t flushes = CounterValue("gem_store_overlay_flushes_total");
  const double cold_s = ColdLoadSecondsTotal();
  const double start = Now();
  auto fence = cache.Acquire(fence_id);
  const double wall_s = Now() - start;
  const uint64_t new_hits = CounterValue("gem_store_cache_hits_total") - hits;
  const uint64_t new_misses =
      CounterValue("gem_store_cache_misses_total") - misses;
  const uint64_t new_flushes =
      CounterValue("gem_store_overlay_flushes_total") - flushes;
  const double load_s = ColdLoadSecondsTotal() - cold_s;
  samples.hits += new_hits;
  samples.misses += new_misses;
  samples.evictions +=
      CounterValue("gem_store_cache_evictions_total") - evictions;
  samples.flushes += new_flushes;
  if (new_hits > 0) samples.acquire_hit_us.push_back(wall_s * 1e6);
  if (new_misses > 0) samples.cold_load_ms.push_back(load_s * 1e3);
  if (new_flushes > 0) {
    samples.flush_ms.push_back((wall_s - load_s) * 1e3 /
                               static_cast<double>(new_flushes));
    TimeDirtyWalk(samples);
  }
  return fence;
}

}  // namespace perfbench
