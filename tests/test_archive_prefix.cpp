// Leading-plane serving in ArchiveReader: a read decodes only the planes of
// each block up to the region's end on axis 0 when the whole block would
// not fit the cache without evicting (or the cache is off); the cache keeps
// what was decoded and counts a too-short entry as a miss.  Also covers
// BlockGrid::touched() against the intersects() scan it replaced.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "archive/archive.hpp"
#include "common/rng.hpp"
#include "core/compressor.hpp"
#include "data/io.hpp"

namespace sz14::archive {
namespace {

std::string tmp_path(const std::string& name) {
  return testing::TempDir() + "sza_prefix_" + name;
}

// 16^3 field in 8^3 blocks: 8 blocks of 512 values, 64 values per plane.
const Dims kDims{16, 16, 16};
const Dims kBlock{8, 8, 8};
constexpr std::size_t kSlab = 64;
constexpr std::size_t kBlockValues = 512;

/// Smooth values with a few spikes, so every block payload carries an
/// unpredictable section after its Huffman payload.
template <typename T>
std::vector<T> values() {
  std::vector<T> v(kDims.count());
  for (std::size_t i = 0; i < v.size(); ++i)
    v[i] = static_cast<T>(std::sin(0.03 * static_cast<double>(i)) +
                          0.2 * std::cos(0.17 * static_cast<double>(i)));
  for (std::size_t i = 5; i < v.size(); i += 97) v[i] = static_cast<T>(1e6);
  return v;
}

template <typename T = float>
std::string make_archive(const std::string& name, const std::string& codec,
                         std::uint32_t parity_group = 0) {
  const std::string path = tmp_path(name);
  const auto v = values<T>();
  ArchiveWriter w(path, 2, {}, parity_group);
  w.append_field("v", std::span<const T>(v), kDims, kBlock, codec, 1e-3);
  w.finish();
  return path;
}

Region region(std::array<std::size_t, 3> origin,
              std::array<std::size_t, 3> extent) {
  Region r;
  r.rank = 3;
  for (std::size_t a = 0; a < 3; ++a) {
    r.origin[a] = origin[a];
    r.extent[a] = extent[a];
  }
  return r;
}

/// The region cut out of a whole decoded field.
template <typename T>
std::vector<T> slice(const std::vector<T>& whole, const Region& r) {
  std::vector<T> out(r.count());
  copy_subcuboid(whole.data(), kDims,
                 std::span<const std::size_t>(r.origin.data(), r.rank),
                 out.data(), r.shape(),
                 std::vector<std::size_t>(r.rank, 0),
                 std::span<const std::size_t>(r.extent.data(), r.rank));
  return out;
}

// ------------------------------------------------------- BlockGrid::touched

TEST(BlockGridTouched, MatchesIntersectsScanOnRandomRegions) {
  Rng rng(2024);
  for (int trial = 0; trial < 400; ++trial) {
    const std::size_t rank = 1 + rng.below(4);
    std::array<std::size_t, kMaxDims> fe{};
    std::array<std::size_t, kMaxDims> be{};
    for (std::size_t a = 0; a < rank; ++a) {
      fe[a] = 1 + rng.below(rank == 1 ? 200 : 13);
      // Block extents sometimes exceed the field (clipped to one block)
      // and usually do not divide it (clipped edge blocks).
      be[a] = 1 + rng.below(fe[a] + 3);
    }
    const Dims field(std::span<const std::size_t>(fe.data(), rank));
    const BlockGrid grid(field,
                         Dims(std::span<const std::size_t>(be.data(), rank)));
    for (int q = 0; q < 10; ++q) {
      Region r;
      r.rank = rank;
      for (std::size_t a = 0; a < rank; ++a) {
        r.origin[a] = rng.below(fe[a]);
        r.extent[a] = 1 + rng.below(fe[a] - r.origin[a]);
      }
      std::vector<std::size_t> scan;
      for (std::size_t b = 0; b < grid.block_count(); ++b)
        if (grid.intersects(b, r)) scan.push_back(b);
      ASSERT_EQ(grid.touched(r), scan)
          << "field " << field.to_string() << " trial " << trial;
    }
  }
}

TEST(BlockGridTouched, WholeFieldListsEveryBlock) {
  const BlockGrid grid(Dims{10, 7, 3}, Dims{4, 3, 2});
  const auto all = grid.touched(Region::whole(Dims{10, 7, 3}));
  ASSERT_EQ(all.size(), grid.block_count());
  for (std::size_t i = 0; i < all.size(); ++i) EXPECT_EQ(all[i], i);
}

// -------------------------------------------------------------- BlockCache

TEST(BlockCachePrefix, ShortEntryMissesAndNeverReplacesALongerOne) {
  BlockCache c;
  c.set_capacity(1 << 20);
  const auto vec = [](std::size_t n) {
    return std::make_shared<const std::vector<float>>(n, 1.0f);
  };
  c.put<float>(0, 7, vec(128));
  EXPECT_NE(c.get<float>(0, 7, 128), nullptr);
  EXPECT_EQ(c.get<float>(0, 7, 129), nullptr);  // too short: a miss
  EXPECT_EQ(c.hits(), 1u);
  EXPECT_EQ(c.misses(), 1u);
  // The two-argument get returns whatever is resident.
  EXPECT_EQ(c.get<float>(0, 7)->size(), 128u);

  c.put<float>(0, 7, vec(512));  // a longer decode replaces the prefix
  EXPECT_EQ(c.get<float>(0, 7)->size(), 512u);
  c.put<float>(0, 7, vec(64));  // a shorter one never does
  EXPECT_EQ(c.get<float>(0, 7)->size(), 512u);
  EXPECT_EQ(c.resident_bytes(), 512 * sizeof(float));

  EXPECT_TRUE(c.has_room((1 << 20) - 512 * sizeof(float)));
  EXPECT_FALSE(c.has_room((1 << 20) - 512 * sizeof(float) + 1));
  c.set_capacity(0);
  EXPECT_FALSE(c.has_room(0));
}

// ------------------------------------------------------------ prefix reads

TEST(ArchivePrefix, CacheDisabledDecodesOnlyThePrefix) {
  const std::string path = make_archive("nocache.sza", "sz14");
  ArchiveReader truth(path, 1);
  const auto whole = truth.read_field("v");

  ArchiveReader r(path, 2);
  // Planes 1..2 of block 0: depth 3.
  const Region shallow = region({1, 2, 2}, {2, 3, 3});
  EXPECT_EQ(r.read_region("v", shallow), slice(whole, shallow));
  EXPECT_EQ(r.blocks_decoded(), 1u);
  EXPECT_EQ(r.values_decoded(), 3 * kSlab);

  // Spanning both block layers on axis 0: the first layer is needed to its
  // last plane (whole blocks), the second only to plane 2.
  r.reset_counters();
  EXPECT_EQ(r.values_decoded(), 0u);
  const Region span = region({6, 0, 0}, {4, 16, 16});
  EXPECT_EQ(r.read_region("v", span), slice(whole, span));
  EXPECT_EQ(r.blocks_decoded(), 8u);
  EXPECT_EQ(r.values_decoded(), 4 * kBlockValues + 4 * 2 * kSlab);

  // A whole-field read decodes whole blocks.
  r.reset_counters();
  EXPECT_EQ(r.read_field("v"), whole);
  EXPECT_EQ(r.values_decoded(), kDims.count());
  std::remove(path.c_str());
}

TEST(ArchivePrefix, RoomyCacheDecodesAndCachesWholeBlocks) {
  const std::string path = make_archive("roomy.sza", "sz14");
  ArchiveReader truth(path, 1);
  const auto whole = truth.read_field("v");

  ArchiveReader r(path, 2);
  r.set_cache_capacity(64 * kBlockValues * sizeof(float));
  const Region shallow = region({0, 0, 0}, {1, 4, 4});
  EXPECT_EQ(r.read_region("v", shallow), slice(whole, shallow));
  EXPECT_EQ(r.values_decoded(), kBlockValues);
  EXPECT_EQ(r.cache_resident_bytes(), kBlockValues * sizeof(float));
  // Any depth of the block now hits.
  const Region deep = region({3, 0, 0}, {5, 8, 8});
  EXPECT_EQ(r.read_region("v", deep), slice(whole, deep));
  EXPECT_EQ(r.cache_hits(), 1u);
  EXPECT_EQ(r.values_decoded(), kBlockValues);
  std::remove(path.c_str());
}

TEST(ArchivePrefix, ShallowThenDeepReadCountsAMissAndReplacesTheEntry) {
  const std::string path = make_archive("deepen.sza", "sz14");
  ArchiveReader truth(path, 1);
  const auto whole = truth.read_field("v");

  ArchiveReader r(path, 2);
  // Room for a 6-plane prefix (1536 B) but not a whole block (2048 B).
  r.set_cache_capacity(1800);
  const Region shallow = region({0, 2, 2}, {2, 3, 3});  // depth 2
  EXPECT_EQ(r.read_region("v", shallow), slice(whole, shallow));
  EXPECT_EQ(r.cache_misses(), 1u);
  EXPECT_EQ(r.values_decoded(), 2 * kSlab);
  EXPECT_EQ(r.cache_resident_bytes(), 2 * kSlab * sizeof(float));

  const Region deep = region({4, 0, 0}, {2, 4, 4});  // depth 6
  EXPECT_EQ(r.read_region("v", deep), slice(whole, deep));
  EXPECT_EQ(r.cache_hits(), 0u);
  EXPECT_EQ(r.cache_misses(), 2u);  // the short prefix did not cover it
  EXPECT_EQ(r.values_decoded(), 8 * kSlab);
  EXPECT_EQ(r.cache_resident_bytes(), 6 * kSlab * sizeof(float));

  // Shallower reads are now served by the longer entry, which a shorter
  // decode never replaces.
  const Region mid = region({1, 1, 1}, {3, 2, 2});  // depth 4
  EXPECT_EQ(r.read_region("v", mid), slice(whole, mid));
  EXPECT_EQ(r.read_region("v", shallow), slice(whole, shallow));
  EXPECT_EQ(r.cache_hits(), 2u);
  EXPECT_EQ(r.values_decoded(), 8 * kSlab);
  EXPECT_EQ(r.cache_resident_bytes(), 6 * kSlab * sizeof(float));
  std::remove(path.c_str());
}

TEST(ArchivePrefix, DoubleFieldsDecodeThePrefixToo) {
  const std::string path = make_archive<double>("f64.sza", "sz14");
  ArchiveReader truth(path, 1);
  const auto whole = truth.read_field64("v");

  ArchiveReader r(path, 2);
  const Region shallow = region({8, 9, 3}, {3, 7, 5});  // block layer 1
  EXPECT_EQ(r.read_region64("v", shallow), slice(whole, shallow));
  EXPECT_EQ(r.values_decoded(), 3 * kSlab);
  std::remove(path.c_str());
}

TEST(ArchivePrefix, CodecsWithoutPrefixHookDecodeWholeBlocks) {
  for (const char* codec : {"gzip_like", "zfp_like", "fpzip_like"}) {
    SCOPED_TRACE(codec);
    const std::string path = make_archive("nohook.sza", codec);
    EXPECT_EQ(codec_by_name(codec)->decompress_prefix32, nullptr);
    ArchiveReader truth(path, 1);
    const auto whole = truth.read_field("v");
    ArchiveReader r(path, 2);
    const Region shallow = region({0, 0, 0}, {1, 5, 5});
    EXPECT_EQ(r.read_region("v", shallow), slice(whole, shallow));
    EXPECT_EQ(r.values_decoded(), kBlockValues);
    std::remove(path.c_str());
  }
}

// -------------------------------------------------------------- integrity

/// Flip the last byte of block 0's payload: inside its unpredictable
/// section, past the data any one-plane prefix decodes.
std::uint64_t flip_tail_of_block0(const std::string& path) {
  std::uint64_t pos = 0;
  {
    ArchiveReader probe(path, 1);
    const BlockEntry& b = probe.field("v").blocks[0];
    pos = b.offset + b.size - 1;
  }
  auto bytes = data::read_bytes(path);
  bytes[pos] ^= 0x10;
  data::write_bytes(path, bytes);
  return pos;
}

TEST(ArchivePrefix, CrcStillCoversTheWholePayload) {
  const std::string path = make_archive("crc.sza", "sz14");
  std::vector<std::uint8_t> payload;
  {
    ArchiveReader probe(path, 1);
    const BlockEntry& b = probe.field("v").blocks[0];
    flip_tail_of_block0(path);
    const auto bytes = data::read_bytes(path);
    payload.assign(bytes.begin() + static_cast<std::ptrdiff_t>(b.offset),
                   bytes.begin() + static_cast<std::ptrdiff_t>(b.offset + b.size));
  }
  // The prefix decode alone cannot see the damage...
  std::vector<float> prefix(kSlab);
  EXPECT_NO_THROW(decompress_prefix_into(payload, 1, std::span<float>(prefix)));

  // ...but the reader checksums the whole payload first.
  ArchiveReader r(path, 2);
  EXPECT_THROW((void)r.read_region("v", region({0, 0, 0}, {1, 4, 4})),
               BlockDamagedError);
  EXPECT_EQ(r.crc_failures(), 1u);
  std::remove(path.c_str());
}

TEST(ArchivePrefix, ParityReadRepairsAPrefixRead) {
  const std::string path = make_archive("parity.sza", "sz14", 2);
  std::vector<float> whole;
  {
    ArchiveReader truth(path, 1);
    whole = truth.read_field("v");
  }
  flip_tail_of_block0(path);
  ArchiveReader r(path, 2);
  const Region shallow = region({0, 3, 3}, {1, 4, 4});
  EXPECT_EQ(r.read_region("v", shallow), slice(whole, shallow));
  EXPECT_EQ(r.read_repairs(), 1u);
  EXPECT_EQ(r.values_decoded(), kSlab);
  std::remove(path.c_str());
}

// ------------------------------------------------------------ concurrency

TEST(ArchivePrefix, ConcurrentShallowAndDeepReadersWithCoalescing) {
  const std::string path = make_archive("concurrent.sza", "sz14");
  std::vector<float> whole;
  {
    ArchiveReader truth(path, 1);
    whole = truth.read_field("v");
  }
  // Cache off (every read decodes) and a cache too small for whole blocks
  // (prefix entries of different depths replace each other).
  for (const std::size_t capacity : {std::size_t{0}, std::size_t{5000}}) {
    SCOPED_TRACE(capacity);
    ArchiveReader r(path, 4);
    r.set_coalescing(true);
    r.set_cache_capacity(capacity);
    std::vector<Region> regions;
    for (std::size_t depth = 1; depth <= 8; ++depth) {
      regions.push_back(region({depth - 1, 0, 0}, {1, 8, 8}));  // block 0
      regions.push_back(region({0, 4, 4}, {depth, 8, 8}));      // 4 blocks
    }
    std::vector<std::vector<float>> want;
    for (const Region& q : regions) want.push_back(slice(whole, q));

    constexpr int kThreads = 4;
    std::vector<int> bad(kThreads, 0);
    {
      std::vector<std::jthread> threads;
      for (int t = 0; t < kThreads; ++t)
        threads.emplace_back([&, t] {
          for (int it = 0; it < 150; ++it) {
            // Threads walk the list in different orders, so shallow and
            // deep readers of one block overlap.
            const std::size_t k = (static_cast<std::size_t>(it) * (2 * t + 1) +
                                   static_cast<std::size_t>(t)) %
                                  regions.size();
            if (r.read_region("v", regions[k]) != want[k]) ++bad[t];
          }
        });
    }
    for (int t = 0; t < kThreads; ++t) EXPECT_EQ(bad[t], 0) << "thread " << t;
    EXPECT_EQ(r.read_field("v"), whole);
  }
  std::remove(path.c_str());
}

}  // namespace
}  // namespace sz14::archive
