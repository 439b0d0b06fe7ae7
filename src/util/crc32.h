#ifndef HM_UTIL_CRC32_H_
#define HM_UTIL_CRC32_H_

#include <cstddef>
#include <cstdint>
#include <string_view>

namespace hm::util {

/// CRC-32 (IEEE 802.3 polynomial, reflected) over `data`. Inputs of 64
/// bytes or more fold 16 bytes at a time with carry-less multiply
/// (PCLMULQDQ) when the CPU has it, chosen once per process; shorter
/// inputs, the last 0-15 bytes, and every input elsewhere go through a
/// slicing-by-8 table loop. Both give the same bits. Used as the
/// integrity checksum on pages, WAL records and wire frames; `seed`
/// allows chaining partial computations:
/// Crc32(b, Crc32(a)) == Crc32(a + b).
uint32_t Crc32(std::string_view data, uint32_t seed = 0);

/// Masks a CRC so that a CRC stored alongside the data it covers does
/// not re-checksum to itself (the RocksDB/LevelDB trick).
inline uint32_t MaskCrc(uint32_t crc) {
  return ((crc >> 15) | (crc << 17)) + 0xA282EAD8U;
}

inline uint32_t UnmaskCrc(uint32_t masked) {
  uint32_t rot = masked - 0xA282EAD8U;
  return (rot >> 17) | (rot << 15);
}

}  // namespace hm::util

#endif  // HM_UTIL_CRC32_H_
