// openSAGE -- the wire framing of the byte-stream transports: a 16-byte
// header carrying a magic word, the body length, and a 64-bit checksum
// of the body.
//
//   magic u32 ("SGEF") | body length u32 | checksum64(body) u64
//
// The shared-memory and TCP fabric backends wrap it around every parcel
// that crosses a real process boundary: length-prefixed so a
// byte-stream receiver can delimit messages, checksummed so wire
// corruption surfaces as a transport bug instead of silent data damage.
//
// checksum64 has a second user: under an active FaultPlan the reliable
// transfer path (net::NodeContext::send/recv) checksums every body and
// carries the value out of band on the parcel, not in a header. Such a
// parcel is still modeled as framed -- kFrameHeaderBytes is what it
// costs on the emulated wire on top of its body.
//
// The checksum is XXH64: four independent 64-bit lanes over 32-byte
// stripes, so it runs near memory speed where a byte-serial hash
// (one dependent multiply per byte) would cost more than the copy it
// guards. Words are loaded with std::memcpy (any alignment, no UB) in
// host byte order; the published XXH64 values hold on little-endian
// hosts, and both ends of a frame always run on the same host.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <span>

namespace sage::net {

inline constexpr std::uint32_t kFrameMagic = 0x46454753u;  // "SGEF"
inline constexpr std::size_t kFrameHeaderBytes = 16;

namespace detail {

inline constexpr std::uint64_t kXxPrime1 = 0x9E3779B185EBCA87ull;
inline constexpr std::uint64_t kXxPrime2 = 0xC2B2AE3D27D4EB4Full;
inline constexpr std::uint64_t kXxPrime3 = 0x165667B19E3779F9ull;
inline constexpr std::uint64_t kXxPrime4 = 0x85EBCA77C2B2AE63ull;
inline constexpr std::uint64_t kXxPrime5 = 0x27D4EB2F165667C5ull;

inline std::uint64_t xx_load64(const std::byte* p) {
  std::uint64_t v = 0;
  std::memcpy(&v, p, sizeof v);
  return v;
}

inline std::uint64_t xx_round(std::uint64_t acc, std::uint64_t lane) {
  return std::rotl(acc + lane * kXxPrime2, 31) * kXxPrime1;
}

inline std::uint64_t xx_merge(std::uint64_t h, std::uint64_t acc) {
  return (h ^ xx_round(0, acc)) * kXxPrime1 + kXxPrime4;
}

}  // namespace detail

/// XXH64 of `len` bytes at `data`. Chaining a second call through the
/// seed -- checksum64(b, nb, checksum64(a, na)) -- is how a frame body
/// made of two separately held parts is checksummed.
inline std::uint64_t checksum64(const std::byte* data, std::size_t len,
                                std::uint64_t seed = 0) {
  using namespace detail;
  const std::byte* p = data;
  const std::byte* const end = data + len;
  std::uint64_t h = seed + kXxPrime5;
  if (len >= 32) {
    std::uint64_t v1 = seed + kXxPrime1 + kXxPrime2;
    std::uint64_t v2 = seed + kXxPrime2;
    std::uint64_t v3 = seed;
    std::uint64_t v4 = seed - kXxPrime1;
    for (; end - p >= 32; p += 32) {
      v1 = xx_round(v1, xx_load64(p));
      v2 = xx_round(v2, xx_load64(p + 8));
      v3 = xx_round(v3, xx_load64(p + 16));
      v4 = xx_round(v4, xx_load64(p + 24));
    }
    h = std::rotl(v1, 1) + std::rotl(v2, 7) + std::rotl(v3, 12) +
        std::rotl(v4, 18);
    h = xx_merge(xx_merge(xx_merge(xx_merge(h, v1), v2), v3), v4);
  }
  h += len;
  for (; end - p >= 8; p += 8) {
    h = std::rotl(h ^ xx_round(0, xx_load64(p)), 27) * kXxPrime1 + kXxPrime4;
  }
  if (end - p >= 4) {
    std::uint32_t w = 0;
    std::memcpy(&w, p, sizeof w);
    h = std::rotl(h ^ std::uint64_t{w} * kXxPrime1, 23) * kXxPrime2 +
        kXxPrime3;
    p += 4;
  }
  for (; p < end; ++p) {
    h = std::rotl(h ^ std::to_integer<std::uint64_t>(*p) * kXxPrime5, 11) *
        kXxPrime1;
  }
  h = (h ^ (h >> 33)) * kXxPrime2;
  h = (h ^ (h >> 29)) * kXxPrime3;
  return h ^ (h >> 32);
}

/// Writes the 16-byte header into frame[0..16). `frame` must hold at
/// least kFrameHeaderBytes.
inline void write_frame_header(std::span<std::byte> frame,
                               std::size_t body_bytes,
                               std::uint64_t checksum) {
  const std::uint32_t magic = kFrameMagic;
  const auto length = static_cast<std::uint32_t>(body_bytes);
  std::memcpy(frame.data(), &magic, sizeof magic);
  std::memcpy(frame.data() + 4, &length, sizeof length);
  std::memcpy(frame.data() + 8, &checksum, sizeof checksum);
}

/// The decoded header fields (validity is the caller's judgement).
struct FrameHeader {
  std::uint32_t magic = 0;
  std::uint32_t length = 0;  ///< body bytes following the header
  std::uint64_t checksum = 0;
};

/// Decodes a 16-byte header. `bytes` must hold at least
/// kFrameHeaderBytes.
inline FrameHeader read_frame_header(std::span<const std::byte> bytes) {
  FrameHeader h;
  std::memcpy(&h.magic, bytes.data(), sizeof h.magic);
  std::memcpy(&h.length, bytes.data() + 4, sizeof h.length);
  std::memcpy(&h.checksum, bytes.data() + 8, sizeof h.checksum);
  return h;
}

}  // namespace sage::net
