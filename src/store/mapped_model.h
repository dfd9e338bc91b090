#ifndef GEM_STORE_MAPPED_MODEL_H_
#define GEM_STORE_MAPPED_MODEL_H_

#include <memory>
#include <optional>
#include <string>
#include <utility>

#include "base/status.h"
#include "base/statusor.h"
#include "core/gem.h"
#include "store/mmap_file.h"

namespace gem::store {

/// Options for MappedModel::Open. Zero-initialized defaults are the
/// production configuration; Validate() is called by Open.
struct MappedModelOptions {
  /// Advise the kernel the mapping is accessed randomly
  /// (POSIX_MADV_RANDOM): inference touches scattered table rows, so
  /// aggressive readahead just evicts someone else's pages.
  bool advise_random = true;

  /// Hard cap on the snapshot file size in bytes; 0 = unlimited. A
  /// fleet-wide guard against mapping a runaway (or hostile) file.
  long max_file_bytes = 0;

  Status Validate() const;
};

/// A trained core::Gem whose bulk tensors (embedder tables and layer
/// weights, detector histograms and retained samples) are borrowed
/// math::Matrix views straight over a read-only mmap of a v2 snapshot
/// — the zero-copy cold-load path.
///
/// Lifetime: the Gem's views point into the mapping, so the MmapFile
/// must outlive the Gem. The backing is held as a shared_ptr so a
/// caller that moves the Gem elsewhere (serve::Fence) can carry the
/// mapping along; eviction then becomes "drop the last shared_ptr" ==
/// munmap, and every generation mapping the same inode shares its
/// clean pages.
///
/// Mutation safety: the const read API (Infer/Observe/Detect/Update
/// with an explicit GemOverlay) never writes the base, and the legacy
/// mutating spellings route through the Gem's owned overlay, so a
/// mapped Gem is safe under the whole serving API. Only Train() — a
/// wholesale refit — replaces the borrowed state with owned storage.
class MappedModel {
 public:
  /// Maps the snapshot at `path`, validates it in place, and builds
  /// the view-backed Gem. kNotFound for a missing file, kDataLoss on
  /// corruption, kInvalidArgument for a v1 (or any non-v2) file or an
  /// over-budget file. Failpoints: `store.mmap.open`,
  /// `store.mmap.map`, `store.snapshot.validate`.
  static StatusOr<MappedModel> Open(const std::string& path,
                                    const MappedModelOptions& options = {});

  MappedModel(MappedModel&&) noexcept = default;
  MappedModel& operator=(MappedModel&&) noexcept = default;
  MappedModel(const MappedModel&) = delete;
  MappedModel& operator=(const MappedModel&) = delete;

  const core::Gem& gem() const { return *gem_; }
  core::Gem& gem() { return *gem_; }

  /// The mapping keeping the Gem's borrowed views alive. Hold a copy
  /// for as long as any Gem moved out of this object is in use.
  const std::shared_ptr<MmapFile>& backing() const { return backing_; }

  /// Snapshot file size — the full extent of the mapping. This is
  /// VIRTUAL footprint; the private-dirty cost of a mapped model is
  /// near zero until overlay mutation privatizes pages.
  uint64_t file_bytes() const { return backing_->size(); }

  /// Moves the Gem out (for transfer into a serve::Fence). The caller
  /// must also take a copy of backing() and keep it alive for the
  /// Gem's lifetime.
  core::Gem TakeGem() && { return std::move(*gem_); }

 private:
  MappedModel(std::shared_ptr<MmapFile> backing, core::Gem gem)
      : backing_(std::move(backing)), gem_(std::move(gem)) {}

  // Declaration order is the destruction contract: gem_ (views) is
  // destroyed before backing_ (mapping).
  std::shared_ptr<MmapFile> backing_;
  std::optional<core::Gem> gem_;
};

}  // namespace gem::store

#endif  // GEM_STORE_MAPPED_MODEL_H_
