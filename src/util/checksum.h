#ifndef RTR_UTIL_CHECKSUM_H_
#define RTR_UTIL_CHECKSUM_H_

// The one payload checksum of the project: FNV-1a 64 over little-endian
// 8-byte words, with a byte-wise FNV-1a tail for the last n % 8 bytes.
//
// Snapshots (graph/snapshot.h) and deltas (graph/delta.h) zero-pad their
// payloads to 8 bytes, so they never reach the tail loop and their stored
// checksums are exactly the word loop's. Net frames (net/frame.h) carry
// payloads of any length. One multiply per word instead of one per byte
// keeps the integrity pass an order of magnitude cheaper than byte-wise
// FNV-1a, while any change confined to one word (in particular any single
// bit flip) still changes the result: the multiplier is odd, so every step
// is a bijection of the running hash.

#include <cstddef>
#include <cstdint>
#include <cstring>

namespace rtr::util {

inline uint64_t Fnv1a64Words(const void* data, size_t n) {
  // Not the textbook FNV offset basis (14695981039346656037): this is the
  // seed the rtr-snap and rtr-delt formats were written with, and every
  // stored checksum depends on it.
  constexpr uint64_t kOffsetBasis = 1469598103934665603ull;
  constexpr uint64_t kPrime = 1099511628211ull;
  const unsigned char* bytes = static_cast<const unsigned char*>(data);
  uint64_t h = kOffsetBasis;
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    uint64_t word;
    std::memcpy(&word, bytes + i, sizeof(word));
    h ^= word;
    h *= kPrime;
  }
  for (; i < n; ++i) {
    h ^= bytes[i];
    h *= kPrime;
  }
  return h;
}

}  // namespace rtr::util

#endif  // RTR_UTIL_CHECKSUM_H_
