#ifndef GEM_STORE_SNAPSHOT_V2_H_
#define GEM_STORE_SNAPSHOT_V2_H_

#include <chrono>
#include <functional>
#include <string>
#include <string_view>

#include "base/status.h"
#include "base/statusor.h"
#include "core/gem.h"

namespace gem::store {

/// Snapshot I/O (format.h documents the byte layout). A versioned,
/// self-describing binary image of a trained core::Gem: the full
/// GemConfig, the bipartite graph, the BiSAGE node tables and layer
/// weights (plus the init-RNG stream), and the enhanced HBOS
/// detector's histograms / retained samples / normalization anchors /
/// thresholds. A loaded snapshot produces bit-identical Infer() scores
/// to the process that saved it. The load path is built for
/// residency: the file is mmap'd read-only, validated in place
/// (header/table/section CRCs over the mapping, no intermediate
/// buffer), and the bulk numeric state is materialized with one
/// aligned block copy per tensor instead of a per-element parse.

/// Atomically writes `gem` (which must be trained) to `path` via a
/// temp file + rename, so a crash mid-write never leaves a torn
/// snapshot under the final name. Failpoints: `store.snapshot.write`,
/// `store.snapshot.rename`.
Status SaveSnapshotV2(const std::string& path, const core::Gem& gem);

/// Loads a snapshot by copying every tensor out of a transient
/// mapping. kNotFound when missing, kDataLoss on any corruption
/// (truncation, bit flips, misaligned or out-of-bounds sections),
/// kInvalidArgument for any format version other than 2 (a v1 file
/// gets a message saying v1 is no longer readable). Never crashes on
/// hostile bytes. Failpoints: `store.mmap.open`, `store.mmap.map`,
/// `store.snapshot.validate`.
StatusOr<core::Gem> LoadSnapshotAuto(const std::string& path);

/// Bounded exponential-backoff retry for snapshot loads (live reloads
/// in a long-running server hit transient I/O failures; a reload that
/// gives up must not take the previous generation down with it).
struct RetryOptions {
  /// Total attempts, including the first (1 = no retry).
  int max_attempts = 3;
  /// Sleep before attempt 2; doubles (backoff_multiplier) per attempt.
  std::chrono::milliseconds initial_backoff{5};
  double backoff_multiplier = 2.0;

  /// kInvalidArgument unless max_attempts >= 1, initial_backoff >= 0
  /// and backoff_multiplier >= 1.
  Status Validate() const;
};

/// Runs `attempt` under `retry`: only transient codes (kUnavailable,
/// kInternal) are retried — kNotFound, kDataLoss and kInvalidArgument
/// are terminal and return immediately. Each retry increments
/// gem_store_load_retries_total. Returns the last attempt's Status, or
/// kInvalidArgument without calling `attempt` when `retry` does not
/// validate.
Status RetryTransientLoad(const RetryOptions& retry,
                          const std::function<Status()>& attempt);

/// LoadSnapshotAuto under RetryTransientLoad.
StatusOr<core::Gem> LoadSnapshotAutoWithRetry(const std::string& path,
                                              const RetryOptions& retry);

namespace internal {

/// Decodes a complete snapshot image (`bytes` = the whole file) into a
/// Gem. With borrow=false every tensor is copied out of the image.
/// With borrow=true the bulk tensors (embedder tables/weights, detector
/// counts and retained samples) are constructed as borrowed
/// math::Matrix views straight over the image — zero-copy, so `bytes`
/// MUST outlive the returned Gem; store::MappedModel is the public
/// wrapper that ties the two lifetimes together. On a big-endian host
/// borrow requests silently fall back to copies (the wire format is
/// little-endian). `path` is used only to prefix error messages.
StatusOr<core::Gem> GemFromImage(std::string_view bytes,
                                 const std::string& path, bool borrow);

}  // namespace internal

}  // namespace gem::store

#endif  // GEM_STORE_SNAPSHOT_V2_H_
