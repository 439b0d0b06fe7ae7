#ifndef HM_UTIL_CRC32_INTERNAL_H_
#define HM_UTIL_CRC32_INTERNAL_H_

// The CRC-32 kernels behind util::Crc32, exposed so tests can run each
// one against a reference whichever the host selects. Include only from
// crc32.cc and its tests; everything else calls util::Crc32.

#include <cstddef>
#include <cstdint>
#include <string_view>

namespace hm::util::crc32_internal {

/// Inputs this long or longer go to the folding kernel when the host
/// supports it: one pass of its four-lane 64-byte loop. Shorter inputs
/// (most WAL records and small frames) stay on the table loop.
inline constexpr size_t kFoldMinBytes = 64;

/// Slicing-by-8 table kernel over the whole input. The only kernel off
/// x86-64 and on x86-64 CPUs without PCLMULQDQ.
uint32_t TableKernel(std::string_view data, uint32_t seed);

#if defined(__x86_64__)
/// PCLMULQDQ folding over the 16-byte multiples of an input of at
/// least kFoldMinBytes, the table kernel for the rest (and for shorter
/// inputs). Call only when FoldSupported().
uint32_t FoldKernel(std::string_view data, uint32_t seed);

/// Whether this CPU has PCLMULQDQ and SSE4.1. Decided once per process;
/// util::Crc32 uses FoldKernel exactly when this is true.
bool FoldSupported();
#endif

}  // namespace hm::util::crc32_internal

#endif  // HM_UTIL_CRC32_INTERNAL_H_
