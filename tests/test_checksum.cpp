// CRC-32 (slicing-by-8) against a bytewise reference: same polynomial,
// same values for every length and alignment, and the incremental form
// composes.
#include "common/checksum.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "common/rng.hpp"

namespace sz14 {
namespace {

/// The classic one-table, byte-at-a-time reflected CRC-32 (polynomial
/// 0xEDB88320).
std::uint32_t reference_crc32(std::span<const std::uint8_t> data) {
  static const std::vector<std::uint32_t> table = [] {
    std::vector<std::uint32_t> t(256);
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t c = i;
      for (int k = 0; k < 8; ++k)
        c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
      t[i] = c;
    }
    return t;
  }();
  std::uint32_t crc = 0xFFFFFFFFu;
  for (const std::uint8_t b : data) crc = table[(crc ^ b) & 0xFFu] ^ (crc >> 8);
  return ~crc;
}

TEST(Crc32, CheckValue) {
  const std::string s = "123456789";
  EXPECT_EQ(crc32({reinterpret_cast<const std::uint8_t*>(s.data()), s.size()}),
            0xCBF43926u);
  EXPECT_EQ(crc32({}), 0u);
}

TEST(Crc32, MatchesBytewiseReferenceAtEveryLengthAndAlignment) {
  Rng rng(42);
  std::vector<std::uint8_t> buf(4099 + 8);
  for (auto& b : buf) b = static_cast<std::uint8_t>(rng.below(256));
  for (std::size_t start = 0; start < 8; ++start)
    for (std::size_t len = 0; len <= 4099; ++len) {
      const std::span<const std::uint8_t> s(buf.data() + start, len);
      ASSERT_EQ(crc32(s), reference_crc32(s))
          << "start " << start << " length " << len;
    }
}

TEST(Crc32, IncrementalUpdateComposes) {
  Rng rng(7);
  std::vector<std::uint8_t> buf(1000);
  for (auto& b : buf) b = static_cast<std::uint8_t>(rng.below(256));
  const std::span<const std::uint8_t> all(buf);
  for (const std::size_t cut : {0u, 1u, 7u, 8u, 9u, 500u, 999u, 1000u})
    EXPECT_EQ(crc32_update(crc32(all.first(cut)), all.subspan(cut)),
              crc32(all));
}

}  // namespace
}  // namespace sz14
