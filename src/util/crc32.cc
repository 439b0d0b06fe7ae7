#include "util/crc32.h"

#include <array>
#include <bit>

#include "util/coding.h"

namespace hm::util {
namespace {

constexpr uint32_t kPolynomial = 0xEDB88320U;  // reflected IEEE

// Slicing-by-8 tables: tables[0] is the classic byte-at-a-time table;
// tables[k][b] is the CRC of byte b followed by k zero bytes, so one
// step folds 8 input bytes with 8 independent lookups.
using Tables = std::array<std::array<uint32_t, 256>, 8>;

Tables BuildTables() {
  Tables tables{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t crc = i;
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc >> 1) ^ ((crc & 1) ? kPolynomial : 0);
    }
    tables[0][i] = crc;
  }
  for (size_t k = 1; k < tables.size(); ++k) {
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t prev = tables[k - 1][i];
      tables[k][i] = (prev >> 8) ^ tables[0][prev & 0xFF];
    }
  }
  return tables;
}

const Tables& GetTables() {
  static const Tables tables = BuildTables();
  return tables;
}

}  // namespace

// The 8-byte step reads input bytes into `lo`/`hi` in memory order, low
// byte first.
static_assert(std::endian::native == std::endian::little);

uint32_t Crc32(std::string_view data, uint32_t seed) {
  const auto& t = GetTables();
  const char* p = data.data();
  size_t n = data.size();
  uint32_t crc = ~seed;
  for (; n >= 8; p += 8, n -= 8) {
    uint32_t lo = crc ^ DecodeFixed32(p);
    uint32_t hi = DecodeFixed32(p + 4);
    crc = t[7][lo & 0xFF] ^ t[6][(lo >> 8) & 0xFF] ^
          t[5][(lo >> 16) & 0xFF] ^ t[4][lo >> 24] ^ t[3][hi & 0xFF] ^
          t[2][(hi >> 8) & 0xFF] ^ t[1][(hi >> 16) & 0xFF] ^ t[0][hi >> 24];
  }
  for (; n > 0; ++p, --n) {
    crc = (crc >> 8) ^ t[0][(crc ^ static_cast<unsigned char>(*p)) & 0xFF];
  }
  return ~crc;
}

}  // namespace hm::util
