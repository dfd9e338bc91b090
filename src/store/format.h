#ifndef GEM_STORE_FORMAT_H_
#define GEM_STORE_FORMAT_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "base/status.h"
#include "base/statusor.h"

namespace gem::store {

/// Snapshot wire format v2, the only format this binary reads or
/// writes (DESIGN.md §7). The file is laid out for residency
/// management:
///
///   [ 0,  8)  magic "GEMSNAP\0"
///   [ 8, 12)  u32 version = 2
///   [12, 16)  u32 section_count
///   [16, 24)  u64 file_size                (truncation check)
///   [24, 32)  u64 table_offset = 64
///   [32, 36)  u32 table_crc                (CRC of the section table)
///   [36, 40)  u32 header_crc               (CRC of bytes [0, 36))
///   [40, 64)  zero padding (header is exactly one cache-line pair)
///   [64, ...) section table: section_count x 32-byte entries
///               u32 tag | u32 flags(0) | u64 offset | u64 length
///             | u32 crc | u32 reserved(0)
///   then the sections, each starting at a 64-byte-aligned offset with
///   zero padding between; file_size is the exact end of the last
///   section.
///
/// Sections are addressed by the offset/length table, not by walking
/// frames, so a loader seeks straight to what it needs. The bulk
/// numeric state (embedder tables, detector histograms and retained
/// samples) lives in raw little-endian f64 sections whose blocks are
/// 64-byte-aligned both in the file and relative to their section:
/// mapped read-only, those bytes ARE the model's backing arrays —
/// materialization is one aligned block copy per tensor, or none for
/// a view-backed store::MappedModel. The small structure-heavy
/// sections (config, graph) use the store/wire.h primitives.
///
/// Version 1 (a stream of tag/size/payload/CRC frames behind the same
/// magic) is no longer readable: every reader rejects it with
/// kInvalidArgument.

inline constexpr uint32_t kSnapshotFormatVersionV2 = 2;
inline constexpr uint64_t kSectionAlignment = 64;
inline constexpr uint64_t kHeaderSize = 64;
inline constexpr uint64_t kTableEntrySize = 32;

/// v2 section tags. 3 and 4 were v1's bulk sections and never appear
/// in a v2 file.
enum SectionTagV2 : uint32_t {
  kConfigTag = 1,
  kGraphTag = 2,
  kEmbedderMetaTag = 5,
  kEmbedderDataTag = 6,
  kDetectorMetaTag = 7,
  kDetectorDataTag = 8,
};

/// One section-table entry, parsed. Offsets/lengths are file-absolute.
struct SectionEntry {
  uint32_t tag = 0;
  uint64_t offset = 0;
  uint64_t length = 0;
  uint32_t crc = 0;
};

/// Parsed + validated v2 header and table over a mapped byte span.
/// Validation covers: magic, version (==2; anything else is
/// kInvalidArgument), header CRC, table CRC, file_size == span size,
/// section_count sanity, per-section 64-byte alignment, monotonic
/// non-overlapping extents inside the file, and (unless
/// skip_payload_crc) every section's payload CRC. Any
/// violation is a clean kDataLoss / kInvalidArgument, never UB — the
/// corruption sweeps flip every header byte and stride the payloads.
StatusOr<std::vector<SectionEntry>> ParseV2(std::string_view bytes,
                                            bool skip_payload_crc = false);

/// Serializes header + table + padded sections into one byte string.
/// `sections` are (tag, payload) in the order they should land on
/// disk; offsets, CRCs and padding are computed here.
std::string SerializeV2(
    const std::vector<std::pair<uint32_t, std::string>>& sections);

/// Rounds n up to the next multiple of kSectionAlignment.
constexpr uint64_t AlignUp(uint64_t n) {
  return (n + kSectionAlignment - 1) & ~(kSectionAlignment - 1);
}

// --- Inspection (gem_cli snapshot inspect) ---------------------------

struct SectionInfo {
  uint32_t tag = 0;
  std::string name;     // "config", "graph", "embedder.data", ...
  uint64_t offset = 0;  // payload start (file-absolute)
  uint64_t length = 0;  // payload bytes
  uint32_t stored_crc = 0;
  bool crc_ok = false;
  bool aligned = false;  // offset % 64 == 0
};

struct SnapshotInfo {
  uint32_t version = 0;
  uint64_t file_size = 0;
  bool layout_ok = false;  // framing/table parsed cleanly end to end
  std::string layout_error;  // empty when layout_ok
  std::vector<SectionInfo> sections;  // sections recovered before error
};

/// Structural dump of a snapshot: header fields, section table, sizes,
/// and per-section CRC status. Deliberately tolerant — a corrupt
/// section is REPORTED (crc_ok = false) rather than aborting the walk,
/// because this is the debugging aid you reach for exactly when a
/// snapshot refuses to load. Only an unreadable file, a non-snapshot
/// file, or a version other than 2 (v1 included) returns an error
/// Status.
StatusOr<SnapshotInfo> InspectSnapshot(const std::string& path);

/// Human-readable name for a section tag ("unknown(tag)" otherwise).
std::string SectionTagName(uint32_t tag);

}  // namespace gem::store

#endif  // GEM_STORE_FORMAT_H_
