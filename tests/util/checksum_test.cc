#include "util/checksum.h"

#include <cstdint>
#include <cstring>
#include <vector>

#include <gtest/gtest.h>

namespace rtr {
namespace {

// The word loop the rtr-snap and rtr-delt codecs carried as private copies
// before they shared util::Fnv1a64Words, verbatim. Their payloads are
// zero-padded to 8 bytes, so this is the whole of their checksum.
uint64_t LegacyFnv1a64Words(const char* data, size_t n) {
  uint64_t h = 1469598103934665603ull;
  for (size_t i = 0; i < n; i += 8) {
    uint64_t word;
    std::memcpy(&word, data + i, sizeof(word));
    h ^= word;
    h *= 1099511628211ull;
  }
  return h;
}

std::vector<char> Iota(size_t n) {
  std::vector<char> bytes(n);
  for (size_t i = 0; i < n; ++i) bytes[i] = static_cast<char>(i * 37 + 11);
  return bytes;
}

TEST(ChecksumTest, MatchesLegacyWordLoopOnPaddedInputs) {
  for (size_t n : {size_t{0}, size_t{8}, size_t{16}, size_t{64}, size_t{4096},
                   size_t{8 * 1001}}) {
    const std::vector<char> bytes = Iota(n);
    EXPECT_EQ(util::Fnv1a64Words(bytes.data(), n),
              LegacyFnv1a64Words(bytes.data(), n))
        << n << " bytes";
  }
}

TEST(ChecksumTest, GoldenValues) {
  // Pinned so that neither the word loop nor its seed can drift: stored
  // snapshot and delta checksums depend on both.
  EXPECT_EQ(util::Fnv1a64Words("", 0), 0x14650fb0739d0383ull);
  const std::vector<char> zeros(8, 0);
  EXPECT_EQ(util::Fnv1a64Words(zeros.data(), zeros.size()),
            0x44bd2bd473ccf799ull);
  EXPECT_EQ(util::Fnv1a64Words("rtr-snap", 8), 0xe2ea0ffa50e8ce83ull);
  std::vector<char> ramp(64);
  for (size_t i = 0; i < ramp.size(); ++i) ramp[i] = static_cast<char>(i);
  EXPECT_EQ(util::Fnv1a64Words(ramp.data(), ramp.size()),
            0x500ef2cd88107083ull);
}

TEST(ChecksumTest, TailBytesAreHashedOneByOne) {
  // Lengths that are not a multiple of 8 (net frame payloads) finish with
  // byte-wise FNV-1a steps over the last n % 8 bytes.
  EXPECT_EQ(util::Fnv1a64Words("a", 1), 0x44bd8ad473cd9906ull);
  EXPECT_EQ(util::Fnv1a64Words("foobar", 6), 0x88fad7c0a8ff07f2ull);
  std::vector<char> ramp(67);
  for (size_t i = 0; i < ramp.size(); ++i) ramp[i] = static_cast<char>(i);
  EXPECT_EQ(util::Fnv1a64Words(ramp.data(), ramp.size()),
            0x0a85b1e2fe15b57eull);
}

}  // namespace
}  // namespace rtr
