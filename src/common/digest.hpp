// digest.hpp — the running 64-bit digest behind the library's result
// fingerprints (fleet metrics, flight streams, the checkpoint spec guard).
#pragma once

#include <cstdint>

namespace pico {

// Fold `v` into the running digest `h`: a golden-ratio combine followed by
// the splitmix64 finalizer, so any single-bit difference avalanches. Every
// pinned fingerprint depends on these exact steps.
[[nodiscard]] constexpr std::uint64_t digest_mix(std::uint64_t h, std::uint64_t v) {
  h ^= v + 0x9E3779B97F4A7C15ULL + (h << 6) + (h >> 2);
  h ^= h >> 30;
  h *= 0xBF58476D1CE4E5B9ULL;
  h ^= h >> 27;
  h *= 0x94D049BB133111EBULL;
  h ^= h >> 31;
  return h;
}

}  // namespace pico
