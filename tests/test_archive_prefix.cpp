// Corner serving in ArchiveReader: a read decodes only each block's corner
// up to the region's end on every axis when the whole block would not fit
// the cache without evicting (or the cache is off); the cache keeps what
// was decoded with its shape and counts an entry that does not cover the
// needed corner on every axis as a miss; a coalesced follower whose corner
// the leader's does not cover decodes its own.  Also covers
// BlockGrid::touched() against the intersects() scan it replaced and its
// region checks.
#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "archive/archive.hpp"
#include "common/failpoint.hpp"
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
std::vector<T> values(const Dims& dims = kDims) {
  std::vector<T> v(dims.count());
  for (std::size_t i = 0; i < v.size(); ++i)
    v[i] = static_cast<T>(std::sin(0.03 * static_cast<double>(i)) +
                          0.2 * std::cos(0.17 * static_cast<double>(i)));
  for (std::size_t i = 5; i < v.size(); i += 97) v[i] = static_cast<T>(1e6);
  return v;
}

template <typename T = float>
std::string make_archive(const std::string& name, const std::string& codec,
                         std::uint32_t parity_group = 0,
                         const Dims& dims = kDims, const Dims& block = kBlock) {
  const std::string path = tmp_path(name);
  const auto v = values<T>(dims);
  ArchiveWriter w(path, 2, {}, parity_group);
  w.append_field("v", std::span<const T>(v), dims, block, codec, 1e-3);
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
std::vector<T> slice(const std::vector<T>& whole, const Region& r,
                     const Dims& dims = kDims) {
  std::vector<T> out(r.count());
  copy_subcuboid(whole.data(), dims,
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

// A 20x30x40 grid in 8x16x16 blocks (3x2x3 blocks, clipped edges).
TEST(BlockGridTouched, ZeroExtentIsInvalidArgument) {
  const BlockGrid grid(Dims{20, 30, 40}, Dims{8, 16, 16});
  for (std::size_t a = 0; a < 3; ++a) {
    Region r = region({1, 2, 3}, {4, 5, 6});
    r.extent[a] = 0;
    EXPECT_THROW((void)grid.touched(r), std::invalid_argument) << "axis " << a;
  }
}

TEST(BlockGridTouched, RegionOutsideFieldIsInvalidArgument) {
  const BlockGrid grid(Dims{20, 30, 40}, Dims{8, 16, 16});
  // Ends one past the field on axis 0 (used to return block 12 silently).
  EXPECT_THROW((void)grid.touched(region({18, 0, 0}, {4, 1, 1})),
               std::invalid_argument);
  EXPECT_THROW((void)grid.touched(region({20, 0, 0}, {1, 1, 1})),
               std::invalid_argument);
  EXPECT_THROW((void)grid.touched(region({0, 0, 39}, {1, 1, 2})),
               std::invalid_argument);
  EXPECT_THROW((void)grid.touched(region({0, 0, 0}, {21, 1, 1})),
               std::invalid_argument);
  // origin + extent wraps around: still outside.
  EXPECT_THROW((void)grid.touched(region({0, SIZE_MAX, 0}, {1, 2, 1})),
               std::invalid_argument);
  // The last point of the field is inside.
  EXPECT_EQ(grid.touched(region({19, 29, 39}, {1, 1, 1})),
            std::vector<std::size_t>{grid.block_count() - 1});
}

TEST(BlockGridTouched, RankMismatchIsInvalidArgument) {
  const BlockGrid grid(Dims{20, 30, 40}, Dims{8, 16, 16});
  Region r2;
  r2.rank = 2;
  r2.extent[0] = r2.extent[1] = 1;
  EXPECT_THROW((void)grid.touched(r2), std::invalid_argument);
  Region r4 = region({0, 0, 0}, {1, 1, 1});
  r4.rank = 4;
  r4.extent[3] = 1;
  EXPECT_THROW((void)grid.touched(r4), std::invalid_argument);
}

// -------------------------------------------------------------- BlockCache

std::shared_ptr<const std::vector<float>> vec(const Dims& shape) {
  return std::make_shared<const std::vector<float>>(shape.count(), 1.0f);
}

TEST(BlockCacheCorner, GetHitsOnlyWhenTheEntryCoversEveryAxis) {
  BlockCache c;
  c.set_capacity(1 << 20);
  const Dims shape{4, 8, 6};
  c.put<float>(0, 7, vec(shape), shape);
  for (const Dims& need : {Dims{4, 8, 6}, Dims{1, 1, 1}, Dims{3, 8, 2}}) {
    const CachedBlock<float> hit = c.get<float>(0, 7, need);
    ASSERT_TRUE(hit) << need.to_string();
    EXPECT_EQ(hit.shape, shape);
    EXPECT_EQ(hit.values->size(), shape.count());
  }
  EXPECT_EQ(c.hits(), 3u);
  // Longer on any one axis is a miss, however few values it needs; so is
  // another rank, another block or another element type.
  for (const Dims& need : {Dims{5, 1, 1}, Dims{1, 9, 1}, Dims{1, 1, 7},
                           Dims{192}, Dims{4, 48}})
    EXPECT_FALSE(c.get<float>(0, 7, need)) << need.to_string();
  EXPECT_FALSE(c.get<float>(0, 8, Dims{1, 1, 1}));
  EXPECT_FALSE(c.get<double>(0, 7, Dims{1, 1, 1}));
  EXPECT_EQ(c.hits(), 3u);
  EXPECT_EQ(c.misses(), 7u);
  // The two-argument get returns whatever is resident.
  EXPECT_EQ(c.get<float>(0, 7)->size(), shape.count());

  EXPECT_TRUE(c.has_room((1 << 20) - shape.count() * sizeof(float)));
  EXPECT_FALSE(c.has_room((1 << 20) - shape.count() * sizeof(float) + 1));
  c.set_capacity(0);
  EXPECT_FALSE(c.has_room(0));
  EXPECT_FALSE(c.get<float>(0, 7, Dims{1, 1, 1}));
}

TEST(BlockCacheCorner, PutKeepsACoveringEntryAndReplacesANonCoveringOne) {
  BlockCache c;
  c.set_capacity(1 << 20);
  const auto resident_shape = [&] {
    return c.get<float>(0, 3, Dims{1, 1, 1}).shape;
  };
  c.put<float>(0, 3, vec(Dims{8, 4, 8}), Dims{8, 4, 8});  // 256 values
  // {2, 8, 8} (128 values) reaches further on axis 1: it replaces the
  // larger entry, which does not cover it.
  c.put<float>(0, 3, vec(Dims{2, 8, 8}), Dims{2, 8, 8});
  EXPECT_EQ(resident_shape(), (Dims{2, 8, 8}));
  EXPECT_EQ(c.resident_bytes(), 128 * sizeof(float));
  // A covered newcomer never replaces the entry, even an equal one.
  for (const Dims& shape : {Dims{1, 8, 8}, Dims{2, 3, 5}, Dims{2, 8, 8}}) {
    c.put<float>(0, 3, vec(shape), shape);
    EXPECT_EQ(resident_shape(), (Dims{2, 8, 8})) << shape.to_string();
  }
  EXPECT_EQ(c.resident_bytes(), 128 * sizeof(float));
  // A whole block covers every corner and replaces them all.
  c.put<float>(0, 3, vec(Dims{8, 8, 8}), Dims{8, 8, 8});
  EXPECT_EQ(resident_shape(), (Dims{8, 8, 8}));
  EXPECT_EQ(c.resident_bytes(), 512 * sizeof(float));
  EXPECT_EQ(c.evictions(), 0u);
  // The shape-less put stores a flat run (a rank-1 shape of its length).
  c.put<float>(0, 4, std::make_shared<const std::vector<float>>(10, 2.0f));
  EXPECT_EQ(c.get<float>(0, 4, Dims{1}).shape, Dims{10});
}

// ------------------------------------------------------------ corner reads

TEST(ArchiveCorner, CacheDisabledDecodesOnlyTheCorner) {
  const std::string path = make_archive("nocache.sza", "sz14");
  ArchiveReader truth(path, 1);
  const auto whole = truth.read_field("v");

  ArchiveReader r(path, 2);
  // Inside block 0, ending at (3, 5, 5): the corner {3, 5, 5}.
  const Region shallow = region({1, 2, 2}, {2, 3, 3});
  EXPECT_EQ(r.read_region("v", shallow), slice(whole, shallow));
  EXPECT_EQ(r.blocks_decoded(), 1u);
  EXPECT_EQ(r.values_decoded(), 3u * 5 * 5);

  // All planes of block 0 but a few rows and columns: {8, 3, 5}.
  r.reset_counters();
  const Region thin = region({0, 0, 0}, {8, 3, 5});
  EXPECT_EQ(r.read_region("v", thin), slice(whole, thin));
  EXPECT_EQ(r.values_decoded(), 8u * 3 * 5);

  // Spanning both block layers on axis 0: the first layer is needed to its
  // last plane (whole blocks), the second only to plane 2.
  r.reset_counters();
  EXPECT_EQ(r.values_decoded(), 0u);
  const Region span = region({6, 0, 0}, {4, 16, 16});
  EXPECT_EQ(r.read_region("v", span), slice(whole, span));
  EXPECT_EQ(r.blocks_decoded(), 8u);
  EXPECT_EQ(r.values_decoded(), 4 * kBlockValues + 4 * 2 * kSlab);

  // Mixed corners: ends at (12, 11, 3) — blocks of layer 0 whole on axis
  // 0, of layer 1 to plane 4; blocks of column 0 to row 8, of column 1 to
  // row 3; every block to column 3.
  r.reset_counters();
  const Region mixed = region({5, 2, 1}, {7, 9, 2});
  EXPECT_EQ(r.read_region("v", mixed), slice(whole, mixed));
  EXPECT_EQ(r.blocks_decoded(), 4u);
  EXPECT_EQ(r.values_decoded(), (8u + 4) * (8 + 3) * 3);

  // A whole-field read decodes whole blocks.
  r.reset_counters();
  EXPECT_EQ(r.read_field("v"), whole);
  EXPECT_EQ(r.values_decoded(), kDims.count());
  std::remove(path.c_str());
}

TEST(ArchiveCorner, RoomyCacheDecodesAndCachesWholeBlocks) {
  const std::string path = make_archive("roomy.sza", "sz14");
  ArchiveReader truth(path, 1);
  const auto whole = truth.read_field("v");

  ArchiveReader r(path, 2);
  r.set_cache_capacity(64 * kBlockValues * sizeof(float));
  const Region shallow = region({0, 0, 0}, {1, 4, 4});
  EXPECT_EQ(r.read_region("v", shallow), slice(whole, shallow));
  EXPECT_EQ(r.values_decoded(), kBlockValues);
  EXPECT_EQ(r.cache_resident_bytes(), kBlockValues * sizeof(float));
  // Any corner of the block now hits.
  const Region deep = region({3, 0, 0}, {5, 8, 8});
  EXPECT_EQ(r.read_region("v", deep), slice(whole, deep));
  EXPECT_EQ(r.cache_hits(), 1u);
  EXPECT_EQ(r.values_decoded(), kBlockValues);
  std::remove(path.c_str());
}

TEST(ArchiveCorner, NonCoveringCachedCornerIsAMissAndReplaced) {
  const std::string path = make_archive("deepen.sza", "sz14");
  ArchiveReader truth(path, 1);
  const auto whole = truth.read_field("v");

  ArchiveReader r(path, 2);
  // Room for any corner of up to 450 values, not for a whole block.
  r.set_cache_capacity(1800);
  const Region shallow = region({0, 2, 2}, {2, 3, 3});  // corner {2, 5, 5}
  EXPECT_EQ(r.read_region("v", shallow), slice(whole, shallow));
  EXPECT_EQ(r.cache_misses(), 1u);
  EXPECT_EQ(r.values_decoded(), 50u);
  EXPECT_EQ(r.cache_resident_bytes(), 50 * sizeof(float));

  const Region deep = region({4, 0, 0}, {2, 4, 4});  // corner {6, 4, 4}
  EXPECT_EQ(r.read_region("v", deep), slice(whole, deep));
  EXPECT_EQ(r.cache_hits(), 0u);
  EXPECT_EQ(r.cache_misses(), 2u);  // {2, 5, 5} did not cover it
  EXPECT_EQ(r.values_decoded(), 50u + 96);
  EXPECT_EQ(r.cache_resident_bytes(), 96 * sizeof(float));

  // A read inside {6, 4, 4} hits; one reaching column 4 does not, although
  // it needs fewer values, and its decode replaces the larger entry.
  const Region mid = region({1, 1, 1}, {3, 2, 2});  // corner {4, 3, 3}
  EXPECT_EQ(r.read_region("v", mid), slice(whole, mid));
  EXPECT_EQ(r.cache_hits(), 1u);
  EXPECT_EQ(r.values_decoded(), 146u);
  EXPECT_EQ(r.read_region("v", shallow), slice(whole, shallow));
  EXPECT_EQ(r.cache_hits(), 1u);
  EXPECT_EQ(r.cache_misses(), 3u);
  EXPECT_EQ(r.values_decoded(), 196u);
  EXPECT_EQ(r.cache_resident_bytes(), 50 * sizeof(float));
  std::remove(path.c_str());
}

TEST(ArchiveCorner, DoubleFieldsDecodeTheCornerToo) {
  const std::string path = make_archive<double>("f64.sza", "sz14");
  ArchiveReader truth(path, 1);
  const auto whole = truth.read_field64("v");

  ArchiveReader r(path, 2);
  // Block (1, 1, 0), needed to (3, 6, 5).
  const Region shallow = region({8, 9, 3}, {3, 5, 2});
  EXPECT_EQ(r.read_region64("v", shallow), slice(whole, shallow));
  EXPECT_EQ(r.values_decoded(), 3u * 6 * 5);
  std::remove(path.c_str());
}

TEST(ArchiveCorner, CodecsWithoutCornerHookDecodeWholeBlocks) {
  for (const char* codec : {"gzip_like", "zfp_like", "fpzip_like"}) {
    SCOPED_TRACE(codec);
    const std::string path = make_archive("nohook.sza", codec);
    EXPECT_EQ(codec_by_name(codec)->decompress_corner32, nullptr);
    EXPECT_EQ(codec_by_name(codec)->decompress_corner64, nullptr);
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
/// section, past the data any one-plane corner decodes.
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

TEST(ArchiveCorner, CrcStillCoversTheWholePayload) {
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
  // The corner decode alone cannot see the damage...
  const std::vector<std::size_t> corner{1, 8, 8};
  std::vector<float> plane(kSlab);
  EXPECT_NO_THROW(decompress_corner_into(payload, corner,
                                         std::span<float>(plane)));

  // ...but the reader checksums the whole payload first.
  ArchiveReader r(path, 2);
  EXPECT_THROW((void)r.read_region("v", region({0, 0, 0}, {1, 4, 4})),
               BlockDamagedError);
  EXPECT_EQ(r.crc_failures(), 1u);
  std::remove(path.c_str());
}

TEST(ArchiveCorner, ParityReadRepairsACornerRead) {
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
  EXPECT_EQ(r.values_decoded(), 7u * 7);
  std::remove(path.c_str());
}

// ------------------------------------------------------------ concurrency

TEST(ArchiveCorner, ConcurrentCornerReadersWithCoalescing) {
  const std::string path = make_archive("concurrent.sza", "sz14");
  std::vector<float> whole;
  {
    ArchiveReader truth(path, 1);
    whole = truth.read_field("v");
  }
  // Cache off (every read decodes) and a cache too small for whole blocks
  // (corner entries of different shapes replace each other).
  for (const std::size_t capacity : {std::size_t{0}, std::size_t{5000}}) {
    SCOPED_TRACE(capacity);
    ArchiveReader r(path, 4);
    r.set_coalescing(true);
    r.set_cache_capacity(capacity);
    std::vector<Region> regions;
    for (std::size_t depth = 1; depth <= 8; ++depth) {
      regions.push_back(region({depth - 1, 0, 0}, {1, 8, 8}));  // block 0
      regions.push_back(region({0, 4, 4}, {depth, 8, 8}));      // 4 blocks
      regions.push_back(region({0, 0, 0}, {8, depth, 9 - depth}));
      regions.push_back(region({2, 8 - depth, 3}, {1, depth, 10}));
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

TEST(ArchiveCorner, FollowerReDecodesWhenTheLeadersCornerDoesNotCoverIt) {
  // One 64^3 block.  The leader needs {64, 8, 64} (32k values) and stalls
  // in its payload read; the follower, needing {4, 64, 64} (16k values),
  // joins its flight.  The leader's corner holds more values but does not
  // cover the follower's (8 < 64 rows), so the follower decodes its own.
  const Dims dims{64, 64, 64};
  const std::string path =
      make_archive("flight.sza", "sz14", 0, dims, dims);
  std::vector<float> whole;
  {
    ArchiveReader truth(path, 1);
    whole = truth.read_field("v");
  }
  ArchiveReader r(path, 4);
  r.set_coalescing(true);  // cache off: both reads decode corners
  const Region wide = region({0, 0, 0}, {64, 8, 64});
  const Region deep = region({0, 0, 0}, {4, 64, 64});
  fail::arm("pread_file.read", {fail::Kind::kStall, 0, 1, 400});
  std::vector<float> got_wide;
  std::vector<float> got_deep;
  {
    std::jthread leader([&] { got_wide = r.read_region("v", wide); });
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    got_deep = r.read_region("v", deep);
  }
  fail::disarm_all();
  EXPECT_EQ(r.coalesced_reads(), 1u);  // the follower did join the flight
  EXPECT_EQ(r.blocks_decoded(), 2u);
  EXPECT_EQ(r.values_decoded(), 64u * 8 * 64 + 4u * 64 * 64);
  EXPECT_EQ(got_wide, slice(whole, wide, dims));
  EXPECT_EQ(got_deep, slice(whole, deep, dims));
  std::remove(path.c_str());
}

}  // namespace
}  // namespace sz14::archive
