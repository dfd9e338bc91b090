#ifndef GEM_TESTS_COMMON_TEST_SNAPSHOTS_H_
#define GEM_TESTS_COMMON_TEST_SNAPSHOTS_H_

#include <fstream>
#include <string>

// Shared snapshot fixtures (see tests/CMakeLists.txt: every suite
// links gem_test_common).
namespace gem::testing {

/// Writes the 16-byte header every format-v1 snapshot starts with —
/// magic "GEMSNAP\0", u32 version 1, u32 section count 0 — as a
/// complete (empty) v1 file. v1 is no longer readable, so every
/// snapshot reader must reject this file with kInvalidArgument rather
/// than report it as truncated or corrupt.
inline void WriteV1Snapshot(const std::string& path) {
  const std::string bytes("GEMSNAP\0\x01\0\0\0\0\0\0\0", 16);
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

}  // namespace gem::testing

#endif  // GEM_TESTS_COMMON_TEST_SNAPSHOTS_H_
