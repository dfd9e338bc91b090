// Store-layer snapshot tests: a save -> load cycle yields
// BIT-identical Infer scores to the in-memory model, a v1 file is
// rejected cleanly, and the v2 layout carries the structural
// guarantees the LRU cache leans on: every byte of a v2 file is either
// CRC-covered or required-to-be-zero, so truncation, bit flips,
// misaligned sections and out-of-bounds table entries all surface as
// clean errors from the in-place validation pass, never as UB over the
// mapping. This suite runs under ASan/UBSan in CI.
#include "store/snapshot_v2.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "core/gem.h"
#include "rf/dataset.h"
#include "store/format.h"
#include "store/wire.h"
#include "tests/common/test_snapshots.h"

namespace gem::store {
namespace {

std::string TempPath(const std::string& name) {
  return std::string(::testing::TempDir()) + "/" + name;
}

rf::Dataset SmallDataset(int user = 2, uint64_t seed = 77) {
  rf::DatasetOptions options;
  options.train_duration_s = 180.0;
  options.test_segments = 2;
  options.test_segment_duration_s = 60.0;
  options.seed = seed;
  return rf::GenerateScenarioDataset(rf::HomePreset(user), options);
}

core::GemConfig FastConfig() {
  core::GemConfig config;
  config.bisage.dimension = 8;
  config.bisage.epochs = 1;
  return config;
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

void WriteFile(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

uint64_t Bits(double v) {
  uint64_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

void PutU64At(std::string* bytes, size_t at, uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    (*bytes)[at + i] = static_cast<char>((v >> (8 * i)) & 0xFF);
  }
}

void PutU32At(std::string* bytes, size_t at, uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    (*bytes)[at + i] = static_cast<char>((v >> (8 * i)) & 0xFF);
  }
}

uint32_t GetU32At(const std::string& bytes, size_t at) {
  uint32_t v = 0;
  for (int i = 0; i < 4; ++i) {
    v |= static_cast<uint32_t>(static_cast<unsigned char>(bytes[at + i]))
         << (8 * i);
  }
  return v;
}

/// Rewrites one section-table entry's offset field and re-seals the
/// table and header CRCs, so ONLY the targeted invariant (alignment,
/// bounds, overlap) trips — not the checksums that would otherwise
/// mask it.
std::string PatchSectionOffset(std::string bytes, size_t entry,
                               uint64_t new_offset) {
  const size_t entry_at = kHeaderSize + entry * kTableEntrySize;
  PutU64At(&bytes, entry_at + 8, new_offset);
  const uint32_t section_count = GetU32At(bytes, 12);
  const std::string_view table(bytes.data() + kHeaderSize,
                               section_count * kTableEntrySize);
  PutU32At(&bytes, 32, Crc32(table));
  PutU32At(&bytes, 36, Crc32(std::string_view(bytes.data(), 36)));
  return bytes;
}

/// Trains once per process; every test body loads from the snapshots.
class SnapshotV2Test : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    dataset_ = new rf::Dataset(SmallDataset());
    trained_ = new core::Gem(FastConfig());
    ASSERT_TRUE(trained_->Train(dataset_->train).ok());
    v2_path_ = new std::string(TempPath("store_v2_test_model_v2.gem"));
    ASSERT_TRUE(SaveSnapshotV2(*v2_path_, *trained_).ok());
  }

  static void TearDownTestSuite() {
    delete dataset_;
    delete trained_;
    delete v2_path_;
    dataset_ = nullptr;
    trained_ = nullptr;
    v2_path_ = nullptr;
  }

  static rf::Dataset* dataset_;
  /// The in-memory model the snapshot was saved from. Streams run
  /// through the const overlay API, so it never changes.
  static core::Gem* trained_;
  static std::string* v2_path_;
};

rf::Dataset* SnapshotV2Test::dataset_ = nullptr;
core::Gem* SnapshotV2Test::trained_ = nullptr;
std::string* SnapshotV2Test::v2_path_ = nullptr;

/// Streams the whole test segment through both models, each against a
/// fresh overlay, and requires bit-identical scores, decisions, and
/// self-enhancement updates.
void ExpectBitIdenticalStreams(const core::Gem& a, const core::Gem& b,
                               const rf::Dataset& data) {
  core::GemOverlay overlay_a;
  core::GemOverlay overlay_b;
  int absorbed = 0;
  for (const rf::ScanRecord& record : data.test) {
    const core::InferenceResult ra = a.Infer(record, overlay_a);
    const core::InferenceResult rb = b.Infer(record, overlay_b);
    ASSERT_EQ(Bits(ra.score), Bits(rb.score));
    ASSERT_EQ(ra.decision, rb.decision);
    ASSERT_EQ(ra.model_updated, rb.model_updated);
    absorbed += ra.model_updated ? 1 : 0;
  }
  // The streams only stay in lockstep if graph, embedder, detector AND
  // RNG state all round-tripped exactly — prove mutation ran.
  EXPECT_GT(absorbed, 0);
}

TEST_F(SnapshotV2Test, RoundTripInferenceIsBitIdentical) {
  auto loaded = LoadSnapshotAuto(*v2_path_);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ExpectBitIdenticalStreams(*trained_, loaded.value(), *dataset_);
}

TEST_F(SnapshotV2Test, ReSaveAfterLoadIsIdenticalBytes) {
  auto gem = LoadSnapshotAuto(*v2_path_);
  ASSERT_TRUE(gem.ok());
  const std::string resaved = TempPath("store_v2_resaved.gem");
  ASSERT_TRUE(SaveSnapshotV2(resaved, gem.value()).ok());
  EXPECT_EQ(ReadFile(*v2_path_), ReadFile(resaved));
}

// v1 is no longer readable: a well-formed v1 file is a version error
// (kInvalidArgument naming v1), never a corruption or truncation error.
TEST_F(SnapshotV2Test, V1SnapshotIsRejectedCleanly) {
  const std::string path = TempPath("store_v2_v1_header.gem");
  testing::WriteV1Snapshot(path);
  const auto loaded = LoadSnapshotAuto(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(loaded.status().message().find("v1"), std::string::npos)
      << loaded.status().ToString();
  const auto inspected = InspectSnapshot(path);
  ASSERT_FALSE(inspected.ok());
  EXPECT_EQ(inspected.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(SnapshotV2Test, BadMagicRejected) {
  const std::string path = TempPath("store_v2_bad_magic.gem");
  WriteFile(path, "NOTASNAP" + std::string(64, '\0'));
  const auto loaded = LoadSnapshotAuto(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kDataLoss);
  EXPECT_EQ(InspectSnapshot(path).status().code(), StatusCode::kDataLoss);
}

TEST_F(SnapshotV2Test, FutureVersionRejected) {
  std::string bytes = ReadFile(*v2_path_);
  const std::string path = TempPath("store_v2_future.gem");
  PutU32At(&bytes, 8, 3);
  // Re-seal the header CRC so ONLY the version check can fire.
  PutU32At(&bytes, 36, Crc32(std::string_view(bytes.data(), 36)));
  WriteFile(path, bytes);
  const auto loaded = LoadSnapshotAuto(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(SnapshotV2Test, MissingFileIsNotFound) {
  const auto loaded = LoadSnapshotAuto(TempPath("store_v2_missing.gem"));
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kNotFound);
}

TEST_F(SnapshotV2Test, TruncationAtAnyLengthFailsCleanly) {
  const std::string bytes = ReadFile(*v2_path_);
  ASSERT_GT(bytes.size(), 256u);
  const std::string cut_path = TempPath("store_v2_cut.gem");
  const std::vector<size_t> cuts = {
      0, 1, 7, 8, 11, 15, 16, 23, 35, 39, 63,         // inside the header
      64, 64 + 13, 64 + kTableEntrySize,              // inside the table
      bytes.size() / 2, bytes.size() - 64, bytes.size() - 1};
  for (const size_t cut : cuts) {
    SCOPED_TRACE("cut at " + std::to_string(cut));
    WriteFile(cut_path, bytes.substr(0, cut));
    const auto loaded = LoadSnapshotAuto(cut_path);
    ASSERT_FALSE(loaded.ok());
    EXPECT_EQ(loaded.status().code(), StatusCode::kDataLoss);
  }
}

TEST_F(SnapshotV2Test, AnyFlippedByteFailsCleanly) {
  const std::string bytes = ReadFile(*v2_path_);
  // Every header byte (including the zero pad, which is not
  // CRC-covered and therefore REQUIRED to be zero), every table byte,
  // then a stride across the payloads and padding gaps. A v2 file has
  // no byte whose flip goes unnoticed.
  std::vector<size_t> offsets;
  const uint32_t section_count = GetU32At(bytes, 12);
  const size_t table_end =
      kHeaderSize + section_count * kTableEntrySize;
  for (size_t i = 0; i < table_end; ++i) offsets.push_back(i);
  for (size_t i = table_end; i < bytes.size(); i += 211) {
    offsets.push_back(i);
  }
  offsets.push_back(bytes.size() - 1);

  const std::string flip_path = TempPath("store_v2_flip.gem");
  for (const size_t offset : offsets) {
    SCOPED_TRACE("flip at " + std::to_string(offset));
    std::string corrupt = bytes;
    corrupt[offset] = static_cast<char>(corrupt[offset] ^ 0x40);
    WriteFile(flip_path, corrupt);
    const auto loaded = LoadSnapshotAuto(flip_path);
    ASSERT_FALSE(loaded.ok());
    EXPECT_TRUE(loaded.status().code() == StatusCode::kDataLoss ||
                loaded.status().code() == StatusCode::kInvalidArgument)
        << loaded.status().ToString();
  }
}

TEST_F(SnapshotV2Test, TrailingBytesRejected) {
  const std::string path = TempPath("store_v2_trailing.gem");
  WriteFile(path, ReadFile(*v2_path_) + '\0');
  const auto loaded = LoadSnapshotAuto(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kDataLoss);
}

TEST_F(SnapshotV2Test, MisalignedSectionOffsetRejected) {
  const std::string bytes = ReadFile(*v2_path_);
  const uint32_t section_count = GetU32At(bytes, 12);
  ASSERT_GE(section_count, 2u);
  const std::string path = TempPath("store_v2_misaligned.gem");
  for (size_t entry = 0; entry < section_count; ++entry) {
    SCOPED_TRACE("entry " + std::to_string(entry));
    const size_t entry_at = kHeaderSize + entry * kTableEntrySize;
    uint64_t offset = 0;
    std::memcpy(&offset, bytes.data() + entry_at + 8, sizeof(offset));
    // Nudge off the 64-byte grid by every sub-alignment the mmap copy
    // could mis-handle (1 = arbitrary, 8 = still double-aligned).
    for (const uint64_t delta : {1ull, 8ull}) {
      WriteFile(path, PatchSectionOffset(bytes, entry, offset + delta));
      const auto loaded = LoadSnapshotAuto(path);
      ASSERT_FALSE(loaded.ok());
      EXPECT_EQ(loaded.status().code(), StatusCode::kDataLoss);
    }
  }
}

TEST_F(SnapshotV2Test, OutOfBoundsSectionOffsetRejected) {
  const std::string bytes = ReadFile(*v2_path_);
  const uint32_t section_count = GetU32At(bytes, 12);
  const std::string path = TempPath("store_v2_oob.gem");
  // Aligned offsets that point past (or wrap around) the file: the
  // bounds check must fire before any CRC touches the bytes.
  const std::vector<uint64_t> bad_offsets = {
      AlignUp(bytes.size()), AlignUp(bytes.size()) + (64ull << 20),
      ~uint64_t{0} - 63};  // 64-byte-aligned, offset + length wraps
  for (size_t entry = 0; entry < section_count; ++entry) {
    for (const uint64_t bad : bad_offsets) {
      SCOPED_TRACE("entry " + std::to_string(entry) + " offset " +
                   std::to_string(bad));
      WriteFile(path, PatchSectionOffset(bytes, entry, bad));
      const auto loaded = LoadSnapshotAuto(path);
      ASSERT_FALSE(loaded.ok());
      EXPECT_EQ(loaded.status().code(), StatusCode::kDataLoss);
    }
  }
}

TEST_F(SnapshotV2Test, InspectReportsLayoutAndChecksums) {
  const auto v2 = InspectSnapshot(*v2_path_);
  ASSERT_TRUE(v2.ok());
  EXPECT_EQ(v2.value().version, 2u);
  EXPECT_TRUE(v2.value().layout_ok) << v2.value().layout_error;
  ASSERT_EQ(v2.value().sections.size(), 6u);
  for (const SectionInfo& section : v2.value().sections) {
    EXPECT_TRUE(section.crc_ok) << section.name;
    EXPECT_TRUE(section.aligned) << section.name;
    EXPECT_EQ(section.offset % kSectionAlignment, 0u);
  }
  // Inspection is the debugging aid for files that refuse to load: a
  // payload flip must come back REPORTED (crc_ok false), not as an
  // error that hides the rest of the table.
  std::string corrupt = ReadFile(*v2_path_);
  corrupt[corrupt.size() - 1] =
      static_cast<char>(corrupt[corrupt.size() - 1] ^ 0x40);
  const std::string path = TempPath("store_v2_inspect_corrupt.gem");
  WriteFile(path, corrupt);
  const auto report = InspectSnapshot(path);
  ASSERT_TRUE(report.ok());
  int bad = 0;
  for (const SectionInfo& section : report.value().sections) {
    bad += section.crc_ok ? 0 : 1;
  }
  EXPECT_EQ(bad, 1);
}

TEST_F(SnapshotV2Test, UntrainedGemRefusesToSave) {
  core::Gem gem(FastConfig());
  const Status status = SaveSnapshotV2(TempPath("store_v2_untrained.gem"),
                                       gem);
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kFailedPrecondition);
}

}  // namespace
}  // namespace gem::store
