#include "store/format.h"

#include <cstring>
#include <fstream>
#include <sstream>
#include <utility>

#include "store/wire.h"

namespace gem::store {
namespace {

constexpr char kMagic[8] = {'G', 'E', 'M', 'S', 'N', 'A', 'P', '\0'};
constexpr uint32_t kMaxSections = 1024;
// header_crc covers bytes [0, 36): magic, version, section_count,
// file_size, table_offset, table_crc. The padding [40, 64) is required
// to be zero instead (so a flipped pad byte still fails cleanly).
constexpr size_t kHeaderCrcSpan = 36;

void PutU32(std::string& out, size_t pos, uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    out[pos + i] = static_cast<char>((v >> (8 * i)) & 0xFF);
  }
}

void PutU64(std::string& out, size_t pos, uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    out[pos + i] = static_cast<char>((v >> (8 * i)) & 0xFF);
  }
}

uint32_t GetU32(std::string_view bytes, size_t pos) {
  uint32_t v = 0;
  for (int i = 3; i >= 0; --i) {
    v = (v << 8) | static_cast<uint8_t>(bytes[pos + i]);
  }
  return v;
}

uint64_t GetU64(std::string_view bytes, size_t pos) {
  uint64_t v = 0;
  for (int i = 7; i >= 0; --i) {
    v = (v << 8) | static_cast<uint8_t>(bytes[pos + i]);
  }
  return v;
}

bool HasMagic(std::string_view bytes) {
  return bytes.size() >= sizeof(kMagic) &&
         std::memcmp(bytes.data(), kMagic, sizeof(kMagic)) == 0;
}

/// Ok when `bytes` (which carry the magic) declare version 2. v1 files
/// get a message of their own: they are well-formed, just no longer
/// readable by this binary.
Status CheckVersion(std::string_view bytes) {
  if (bytes.size() < 12) {
    return Status::DataLoss("truncated snapshot header");
  }
  const uint32_t version = GetU32(bytes, 8);
  if (version == 1) {
    return Status::InvalidArgument(
        "snapshot format v1 is no longer readable; rewrite it as v2 with "
        "`gem_cli snapshot migrate` from a build that still has it");
  }
  if (version != kSnapshotFormatVersionV2) {
    return Status::InvalidArgument(
        "snapshot format version " + std::to_string(version) +
        " is not supported (this binary reads only v2)");
  }
  return Status::Ok();
}

}  // namespace

std::string SerializeV2(
    const std::vector<std::pair<uint32_t, std::string>>& sections) {
  const uint64_t n = sections.size();
  const uint64_t table_end = kHeaderSize + n * kTableEntrySize;

  // Lay the sections out first so the table can carry final offsets.
  std::vector<SectionEntry> entries(n);
  uint64_t cursor = AlignUp(table_end);
  for (uint64_t i = 0; i < n; ++i) {
    entries[i].tag = sections[i].first;
    entries[i].offset = cursor;
    entries[i].length = sections[i].second.size();
    entries[i].crc = Crc32(sections[i].second);
    cursor = i + 1 < n ? AlignUp(cursor + entries[i].length)
                       : cursor + entries[i].length;
  }
  const uint64_t file_size = cursor;

  std::string bytes(file_size, '\0');
  std::memcpy(bytes.data(), kMagic, sizeof(kMagic));
  PutU32(bytes, 8, kSnapshotFormatVersionV2);
  PutU32(bytes, 12, static_cast<uint32_t>(n));
  PutU64(bytes, 16, file_size);
  PutU64(bytes, 24, kHeaderSize);
  for (uint64_t i = 0; i < n; ++i) {
    const size_t at = kHeaderSize + i * kTableEntrySize;
    PutU32(bytes, at, entries[i].tag);
    PutU32(bytes, at + 4, 0);  // flags
    PutU64(bytes, at + 8, entries[i].offset);
    PutU64(bytes, at + 16, entries[i].length);
    PutU32(bytes, at + 24, entries[i].crc);
    PutU32(bytes, at + 28, 0);  // reserved
    std::memcpy(bytes.data() + entries[i].offset, sections[i].second.data(),
                sections[i].second.size());
  }
  const std::string_view view(bytes);
  PutU32(bytes, 32,
         Crc32(view.substr(kHeaderSize, n * kTableEntrySize)));
  PutU32(bytes, 36, Crc32(view.substr(0, kHeaderCrcSpan)));
  return bytes;
}

StatusOr<std::vector<SectionEntry>> ParseV2(std::string_view bytes,
                                            bool skip_payload_crc) {
  if (!HasMagic(bytes)) {
    return Status::DataLoss("not a GEM snapshot (bad magic)");
  }
  const Status version = CheckVersion(bytes);
  if (!version.ok()) return version;
  if (bytes.size() < kHeaderSize) {
    return Status::DataLoss("truncated v2 header");
  }
  const uint32_t stored_header_crc = GetU32(bytes, 36);
  if (Crc32(bytes.substr(0, kHeaderCrcSpan)) != stored_header_crc) {
    return Status::DataLoss("v2 header checksum mismatch");
  }
  for (size_t i = 40; i < kHeaderSize; ++i) {
    if (bytes[i] != '\0') {
      return Status::DataLoss("nonzero v2 header padding");
    }
  }
  const uint32_t section_count = GetU32(bytes, 12);
  const uint64_t file_size = GetU64(bytes, 16);
  const uint64_t table_offset = GetU64(bytes, 24);
  if (section_count == 0 || section_count > kMaxSections) {
    return Status::DataLoss("implausible v2 section count");
  }
  if (file_size != bytes.size()) {
    return Status::DataLoss("v2 file size mismatch (header says " +
                            std::to_string(file_size) + ", file is " +
                            std::to_string(bytes.size()) + " bytes)");
  }
  if (table_offset != kHeaderSize) {
    return Status::DataLoss("unexpected v2 table offset");
  }
  const uint64_t table_bytes =
      static_cast<uint64_t>(section_count) * kTableEntrySize;
  if (table_offset + table_bytes > bytes.size()) {
    return Status::DataLoss("v2 section table exceeds file");
  }
  if (Crc32(bytes.substr(table_offset, table_bytes)) !=
      GetU32(bytes, 32)) {
    return Status::DataLoss("v2 section table checksum mismatch");
  }

  std::vector<SectionEntry> entries;
  entries.reserve(section_count);
  uint64_t prev_end = table_offset + table_bytes;
  for (uint32_t i = 0; i < section_count; ++i) {
    const size_t at = table_offset + i * kTableEntrySize;
    SectionEntry entry;
    entry.tag = GetU32(bytes, at);
    entry.offset = GetU64(bytes, at + 8);
    entry.length = GetU64(bytes, at + 16);
    entry.crc = GetU32(bytes, at + 24);
    if (entry.tag == 0) {
      return Status::DataLoss("v2 section " + std::to_string(i) +
                              ": zero tag");
    }
    if (entry.offset % kSectionAlignment != 0) {
      return Status::DataLoss("v2 section " + std::to_string(entry.tag) +
                              ": misaligned offset " +
                              std::to_string(entry.offset));
    }
    if (entry.offset > bytes.size() ||
        entry.length > bytes.size() - entry.offset) {
      return Status::DataLoss("v2 section " + std::to_string(entry.tag) +
                              ": extent out of bounds");
    }
    if (entry.offset < prev_end) {
      return Status::DataLoss("v2 section " + std::to_string(entry.tag) +
                              ": overlaps previous section");
    }
    // Inter-section padding is not CRC-covered, so require it zero —
    // a flipped bit anywhere in the file must fail loudly.
    for (uint64_t p = prev_end; p < entry.offset; ++p) {
      if (bytes[p] != '\0') {
        return Status::DataLoss("nonzero v2 section padding before tag " +
                                std::to_string(entry.tag));
      }
    }
    prev_end = entry.offset + entry.length;
    entries.push_back(entry);
  }
  if (prev_end != bytes.size()) {
    return Status::DataLoss("trailing bytes after last v2 section");
  }
  if (!skip_payload_crc) {
    for (const SectionEntry& entry : entries) {
      if (Crc32(bytes.substr(entry.offset, entry.length)) !=
          entry.crc) {
        return Status::DataLoss("v2 section " + std::to_string(entry.tag) +
                                " checksum mismatch");
      }
    }
  }
  return entries;
}

std::string SectionTagName(uint32_t tag) {
  switch (tag) {
    case kConfigTag:
      return "config";
    case kGraphTag:
      return "graph";
    case kEmbedderMetaTag:
      return "embedder.meta";
    case kEmbedderDataTag:
      return "embedder.data";
    case kDetectorMetaTag:
      return "detector.meta";
    case kDetectorDataTag:
      return "detector.data";
    default:
      return "unknown(" + std::to_string(tag) + ")";
  }
}

namespace {

void InspectV2(std::string_view bytes, SnapshotInfo* info) {
  // Strict structural parse first (payload CRCs reported per section
  // below, not failed on).
  const auto strict = ParseV2(bytes, /*skip_payload_crc=*/true);
  if (!strict.ok()) {
    info->layout_error = strict.status().message();
  } else {
    info->layout_ok = true;
  }
  // Walk whatever table region exists, even when strict parsing
  // failed: the dump is the debugging aid for exactly that case.
  if (bytes.size() < kHeaderSize) return;
  uint32_t section_count = GetU32(bytes, 12);
  if (section_count > kMaxSections) section_count = kMaxSections;
  for (uint32_t i = 0; i < section_count; ++i) {
    const uint64_t at = kHeaderSize + uint64_t{i} * kTableEntrySize;
    if (at + kTableEntrySize > bytes.size()) break;
    SectionInfo section;
    section.tag = GetU32(bytes, at);
    section.name = SectionTagName(section.tag);
    section.offset = GetU64(bytes, at + 8);
    section.length = GetU64(bytes, at + 16);
    section.stored_crc = GetU32(bytes, at + 24);
    section.aligned = section.offset % kSectionAlignment == 0;
    section.crc_ok =
        section.offset <= bytes.size() &&
        section.length <= bytes.size() - section.offset &&
        Crc32(bytes.substr(section.offset, section.length)) ==
            section.stored_crc;
    info->sections.push_back(section);
  }
}

}  // namespace

StatusOr<SnapshotInfo> InspectSnapshot(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in.good()) {
    return Status::NotFound("cannot open " + path);
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  if (in.bad()) {
    return Status::Internal("read from " + path + " failed");
  }
  const std::string bytes = buffer.str();
  if (!HasMagic(bytes)) {
    return Status::DataLoss(path + ": not a GEM snapshot (bad magic)");
  }
  const Status version = CheckVersion(bytes);
  if (!version.ok()) {
    return Status(version.code(), path + ": " + version.message());
  }
  SnapshotInfo info;
  info.file_size = bytes.size();
  info.version = kSnapshotFormatVersionV2;
  InspectV2(bytes, &info);
  return info;
}

}  // namespace gem::store
