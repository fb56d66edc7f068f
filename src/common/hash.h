#ifndef PPDP_COMMON_HASH_H_
#define PPDP_COMMON_HASH_H_

#include <cstddef>
#include <cstdint>

namespace ppdp {

/// FNV-1a 64-bit offset basis.
inline constexpr uint64_t kFnv1a64Basis = 0xCBF29CE484222325ULL;

/// FNV-1a 64 over `n` raw bytes, continuing from `h` — chain calls to hash a
/// stream piecewise. The one byte hash behind WAL frame checksums,
/// run-report file digests, the serve corpus digests, IoT envelope
/// checksums and fault-point streams.
inline uint64_t Fnv1a64(const void* data, size_t n, uint64_t h = kFnv1a64Basis) {
  const auto* bytes = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < n; ++i) {
    h ^= bytes[i];
    h *= 0x100000001B3ULL;  // FNV prime
  }
  return h;
}

}  // namespace ppdp

#endif  // PPDP_COMMON_HASH_H_
