#ifndef GEM_STORE_WIRE_H_
#define GEM_STORE_WIRE_H_

#include <cstdint>
#include <string>
#include <string_view>

#include "base/status.h"

namespace gem::store {

/// Endian-stable binary primitives for the snapshot metadata sections
/// (store/snapshot_v2.cc). Everything is encoded little-endian byte by
/// byte, so snapshots written on any host read back on any other;
/// doubles travel as their IEEE-754 bit pattern (bit-exact round
/// trips, the contract the snapshot property tests assert).

/// Appends primitives to a growing byte buffer.
class WireWriter {
 public:
  void PutU8(uint8_t v);
  void PutU32(uint32_t v);
  void PutU64(uint64_t v);
  void PutI32(int32_t v) { PutU32(static_cast<uint32_t>(v)); }
  void PutI64(int64_t v) { PutU64(static_cast<uint64_t>(v)); }
  void PutF64(double v);
  /// u64 length + raw bytes.
  void PutString(std::string_view s);

  std::string TakeBytes() { return std::move(bytes_); }

 private:
  std::string bytes_;
};

/// Bounds-checked sequential reader over a byte buffer. Every read
/// returns a Status instead of touching out-of-range memory, so a
/// truncated or bit-flipped snapshot fails cleanly (never UB).
class WireReader {
 public:
  explicit WireReader(std::string_view bytes) : bytes_(bytes) {}

  Status GetU8(uint8_t* out);
  Status GetU32(uint32_t* out);
  Status GetU64(uint64_t* out);
  Status GetI32(int32_t* out);
  Status GetI64(int64_t* out);
  Status GetF64(double* out);
  Status GetString(std::string* out);

  size_t remaining() const { return bytes_.size() - pos_; }

 private:
  Status Need(size_t n);

  std::string_view bytes_;
  size_t pos_ = 0;
};

/// CRC-32 (IEEE 802.3 polynomial, the zlib one) of a byte span. The
/// header, the section table and each section carry one, so a flipped
/// byte is detected before any state is rebuilt from it.
uint32_t Crc32(std::string_view bytes);

}  // namespace gem::store

#endif  // GEM_STORE_WIRE_H_
