#include "store/mapped_model.h"

#include <sys/mman.h>

#include "fault/failpoint.h"
#include "obs/metrics.h"
#include "store/snapshot_v2.h"

namespace gem::store {

Status MappedModelOptions::Validate() const {
  if (max_file_bytes < 0) {
    return Status::InvalidArgument(
        "MappedModelOptions.max_file_bytes must be >= 0 (0 = unlimited)");
  }
  return Status::Ok();
}

StatusOr<MappedModel> MappedModel::Open(const std::string& path,
                                        const MappedModelOptions& options) {
  Status status = options.Validate();
  if (!status.ok()) return status;

  StatusOr<MmapFile> map = MmapFile::Open(path);
  if (!map.ok()) return map.status();
  if (options.max_file_bytes > 0 &&
      map->size() > static_cast<size_t>(options.max_file_bytes)) {
    return Status::InvalidArgument(
        path + ": " + std::to_string(map->size()) +
        " bytes exceeds MappedModelOptions.max_file_bytes (" +
        std::to_string(options.max_file_bytes) + ")");
  }
  // Same injection point as LoadSnapshotAuto, so the chaos sweeps
  // cover both load paths with one failpoint name.
  GEM_FAILPOINT("store.snapshot.validate");

  if (options.advise_random && map->size() > 0) {
    // Advisory only: a failure (e.g. on an exotic filesystem) costs
    // readahead efficiency, not correctness.
    (void)posix_madvise(const_cast<void*>(map->data()), map->size(),
                        POSIX_MADV_RANDOM);
  }

  auto backing = std::make_shared<MmapFile>(std::move(map).value());
  StatusOr<core::Gem> gem =
      internal::GemFromImage(backing->bytes(), path, /*borrow=*/true);
  if (!gem.ok()) return gem.status();

  static obs::Counter& opens = obs::MetricsRegistry::Get().GetCounter(
      "gem_store_mapped_opens_total");
  opens.Increment();
  return MappedModel(std::move(backing), std::move(gem).value());
}

}  // namespace gem::store
