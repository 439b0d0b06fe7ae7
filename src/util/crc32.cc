#include "util/crc32.h"

#include <array>
#include <bit>

#include "util/coding.h"
#include "util/crc32_internal.h"

#if defined(__x86_64__)
#include <immintrin.h>
#endif

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

// The 8-byte step reads input bytes into `lo`/`hi` in memory order, low
// byte first.
static_assert(std::endian::native == std::endian::little);

// Advances the working (inverted) CRC register over `n` bytes at `p`.
// Forced inline: with three callers GCC keeps it out of line, and the
// extra call costs short inputs (16 bytes) about 20%.
[[gnu::always_inline]] inline uint32_t TableUpdate(uint32_t crc, const char* p,
                                                size_t n) {
  const auto& t = GetTables();
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
  return crc;
}

#if defined(__x86_64__)

__m128i Load16(const char* p) {
  return _mm_loadu_si128(reinterpret_cast<const __m128i*>(p));
}

// Carries the 128-bit remainder `x` forward by the distance the constant
// pair `k` encodes (its low half multiplies x's low half, its high half
// x's high half) and adds the next 16 input bytes.
__attribute__((target("pclmul,sse4.1"))) __m128i Fold(__m128i x, __m128i k,
                                                       __m128i next) {
  __m128i lo = _mm_clmulepi64_si128(x, k, 0x00);
  __m128i hi = _mm_clmulepi64_si128(x, k, 0x11);
  return _mm_xor_si128(_mm_xor_si128(lo, hi), next);
}

// Advances the working CRC register over `n` bytes at `p`, where n is a
// multiple of 16 and at least 64, by carry-less multiply folding: Gopal
// et al., "Fast CRC Computation for Generic Polynomials Using PCLMULQDQ
// Instruction" (Intel, 2009), in its bit-reflected form. Four 128-bit
// lanes fold 64 bytes per step, merge into one lane, fold the 16-byte
// rest, then reduce 128 -> 64 -> 32 bits with a Barrett reduction.
__attribute__((target("pclmul,sse4.1"))) uint32_t FoldUpdate(uint32_t crc,
                                                              const char* p,
                                                              size_t n) {
  // Reflected constants for P = 0x104C11DB7: k1/k2 = x^(4*128+32) and
  // x^(4*128-32) mod P (fold by 64 bytes), k3/k4 = x^(128+32) and
  // x^(128-32) mod P (fold by 16 bytes), k5 = x^64 mod P, then P itself
  // and mu = x^64 / P for the Barrett step.
  const __m128i k1k2 = _mm_set_epi64x(0x01c6e41596, 0x0154442bd4);
  const __m128i k3k4 = _mm_set_epi64x(0x00ccaa009e, 0x01751997d0);
  const __m128i k5 = _mm_set_epi64x(0, 0x0163cd6124);
  const __m128i poly_mu = _mm_set_epi64x(0x01f7011641, 0x01db710641);
  const __m128i low32 = _mm_setr_epi32(~0, 0, ~0, 0);

  __m128i x1 = _mm_xor_si128(Load16(p),
                             _mm_cvtsi32_si128(static_cast<int>(crc)));
  __m128i x2 = Load16(p + 16);
  __m128i x3 = Load16(p + 32);
  __m128i x4 = Load16(p + 48);
  p += 64;
  n -= 64;
  for (; n >= 64; p += 64, n -= 64) {
    x1 = Fold(x1, k1k2, Load16(p));
    x2 = Fold(x2, k1k2, Load16(p + 16));
    x3 = Fold(x3, k1k2, Load16(p + 32));
    x4 = Fold(x4, k1k2, Load16(p + 48));
  }
  x1 = Fold(x1, k3k4, x2);
  x1 = Fold(x1, k3k4, x3);
  x1 = Fold(x1, k3k4, x4);
  for (; n >= 16; p += 16, n -= 16) {
    x1 = Fold(x1, k3k4, Load16(p));
  }

  // 128 -> 64 bits: the low half times k4, added to the high half.
  x1 = _mm_xor_si128(_mm_srli_si128(x1, 8),
                     _mm_clmulepi64_si128(x1, k3k4, 0x10));
  // 64 -> 32 bits: the low 32 bits times k5, added to the rest.
  x1 = _mm_xor_si128(_mm_srli_si128(x1, 4),
                     _mm_clmulepi64_si128(_mm_and_si128(x1, low32), k5, 0x00));
  // Barrett reduction modulo P; the CRC lands in bits 32..63.
  __m128i t = _mm_clmulepi64_si128(_mm_and_si128(x1, low32), poly_mu, 0x10);
  t = _mm_clmulepi64_si128(_mm_and_si128(t, low32), poly_mu, 0x00);
  return static_cast<uint32_t>(_mm_extract_epi32(_mm_xor_si128(x1, t), 1));
}

#endif  // __x86_64__

}  // namespace

namespace crc32_internal {

uint32_t TableKernel(std::string_view data, uint32_t seed) {
  return ~TableUpdate(~seed, data.data(), data.size());
}

#if defined(__x86_64__)

uint32_t FoldKernel(std::string_view data, uint32_t seed) {
  const char* p = data.data();
  size_t n = data.size();
  uint32_t crc = ~seed;
  if (n >= kFoldMinBytes) {
    size_t bulk = n & ~size_t{15};
    crc = FoldUpdate(crc, p, bulk);
    p += bulk;
    n -= bulk;
  }
  return ~TableUpdate(crc, p, n);
}

bool FoldSupported() {
  static const bool supported = [] {
    // Needed if the first CRC runs from a static initializer, before
    // the runtime has probed the CPU.
    __builtin_cpu_init();
    return __builtin_cpu_supports("pclmul") && __builtin_cpu_supports("sse4.1");
  }();
  return supported;
}

#endif  // __x86_64__

}  // namespace crc32_internal

uint32_t Crc32(std::string_view data, uint32_t seed) {
#if defined(__x86_64__)
  if (data.size() >= crc32_internal::kFoldMinBytes &&
      crc32_internal::FoldSupported()) {
    return crc32_internal::FoldKernel(data, seed);
  }
#endif
  return ~TableUpdate(~seed, data.data(), data.size());
}

}  // namespace hm::util
