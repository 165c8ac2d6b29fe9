// openSAGE -- FNV-1a, the 64-bit content fingerprint of short strings:
// the plan-cache key and the plan-blob trailer. It is byte-serial (one
// dependent multiply per byte), which is fine for these but not for
// bulk data -- wire frames use net::checksum64 instead.
#pragma once

#include <cstdint>
#include <string_view>

namespace sage::support {

inline constexpr std::uint64_t kFnvOffsetBasis = 0xcbf29ce484222325ull;
inline constexpr std::uint64_t kFnvPrime = 0x100000001b3ull;

/// Folds `bytes` into the running hash `h` (a fresh hash starts from
/// the offset basis).
inline std::uint64_t fnv1a(std::string_view bytes,
                           std::uint64_t h = kFnvOffsetBasis) {
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= kFnvPrime;
  }
  return h;
}

}  // namespace sage::support
