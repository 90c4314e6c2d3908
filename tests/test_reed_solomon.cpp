#include "ec/reed_solomon.hpp"

#include <gtest/gtest.h>

#include "ec/cpu_dispatch.hpp"
#include "util/rng.hpp"

namespace jupiter {
namespace {

std::vector<std::uint8_t> random_data(std::size_t n, Rng& rng) {
  std::vector<std::uint8_t> d(n);
  for (auto& b : d) b = static_cast<std::uint8_t>(rng.below(256));
  return d;
}

TEST(ReedSolomon, Theta35Shape) {
  ReedSolomon rs(3, 5);
  EXPECT_EQ(rs.data_chunks(), 3);
  EXPECT_EQ(rs.total_chunks(), 5);
  EXPECT_EQ(rs.parity_chunks(), 2);
}

TEST(ReedSolomon, RejectsBadParameters) {
  EXPECT_THROW(ReedSolomon(0, 5), std::invalid_argument);
  EXPECT_THROW(ReedSolomon(6, 5), std::invalid_argument);
  EXPECT_THROW(ReedSolomon(3, 256), std::invalid_argument);
}

TEST(ReedSolomon, SystematicPrefixIsData) {
  ReedSolomon rs(3, 5);
  Rng rng(1);
  auto data = random_data(300, rng);
  auto chunks = rs.encode(data);
  ASSERT_EQ(chunks.size(), 5u);
  for (std::size_t i = 0; i < 100; ++i) {
    EXPECT_EQ(chunks[0][i], data[i]);
    EXPECT_EQ(chunks[1][i], data[100 + i]);
    EXPECT_EQ(chunks[2][i], data[200 + i]);
  }
}

// The any-m-of-n guarantee, exhaustively for theta(3,5): all C(5,3) = 10
// subsets reconstruct the original data.
TEST(ReedSolomon, EveryTripleReconstructsTheta35) {
  ReedSolomon rs(3, 5);
  Rng rng(2);
  auto data = random_data(299, rng);  // odd size exercises padding
  auto chunks = rs.encode(data);
  for (int a = 0; a < 5; ++a) {
    for (int b = a + 1; b < 5; ++b) {
      for (int c = b + 1; c < 5; ++c) {
        auto out = rs.decode(
            {{a, chunks[static_cast<std::size_t>(a)]},
             {b, chunks[static_cast<std::size_t>(b)]},
             {c, chunks[static_cast<std::size_t>(c)]}},
            data.size());
        ASSERT_TRUE(out.has_value()) << a << b << c;
        EXPECT_EQ(*out, data) << a << b << c;
      }
    }
  }
}

TEST(ReedSolomon, FewerThanMChunksFails) {
  ReedSolomon rs(3, 5);
  Rng rng(3);
  auto chunks = rs.encode(random_data(30, rng));
  EXPECT_EQ(rs.reconstruct({{0, chunks[0]}, {4, chunks[4]}}), std::nullopt);
  // Duplicates do not count twice.
  EXPECT_EQ(rs.reconstruct({{0, chunks[0]}, {0, chunks[0]}, {0, chunks[0]}}),
            std::nullopt);
}

TEST(ReedSolomon, ExtraChunksAreFine) {
  ReedSolomon rs(2, 4);
  Rng rng(4);
  auto data = random_data(64, rng);
  auto chunks = rs.encode(data);
  auto out = rs.decode(
      {{3, chunks[3]}, {1, chunks[1]}, {0, chunks[0]}, {2, chunks[2]}},
      data.size());
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(*out, data);
}

TEST(ReedSolomon, ChunkIndexOutOfRangeThrows) {
  ReedSolomon rs(2, 4);
  Chunk c(8, 0);
  EXPECT_THROW(rs.reconstruct({{4, c}, {0, c}}), std::out_of_range);
  EXPECT_THROW(rs.reconstruct({{-1, c}, {0, c}}), std::out_of_range);
}

TEST(ReedSolomon, UnequalChunkSizesThrow) {
  ReedSolomon rs(2, 3);
  EXPECT_THROW(rs.encode_chunks({Chunk(4, 0), Chunk(5, 0)}),
               std::invalid_argument);
  EXPECT_THROW(
      rs.reconstruct({{0, Chunk(4, 0)}, {1, Chunk(5, 0)}}),
      std::invalid_argument);
}

TEST(ReedSolomon, EmptyDataStillEncodes) {
  ReedSolomon rs(3, 5);
  auto chunks = rs.encode({});
  ASSERT_EQ(chunks.size(), 5u);
  EXPECT_EQ(chunks[0].size(), 1u);  // non-empty minimum chunk
  auto out = rs.decode({{2, chunks[2]}, {3, chunks[3]}, {4, chunks[4]}}, 0);
  ASSERT_TRUE(out.has_value());
  EXPECT_TRUE(out->empty());
}

TEST(ReedSolomon, TrivialCodes) {
  Rng rng(5);
  auto data = random_data(40, rng);
  // theta(1, 3): pure replication of one chunk.
  ReedSolomon rep(1, 3);
  auto chunks = rep.encode(data);
  for (const auto& c : chunks) EXPECT_EQ(c, chunks[0]);
  // theta(n, n): striping with no parity.
  ReedSolomon stripe(4, 4);
  auto s = stripe.encode(data);
  auto out = stripe.decode({{0, s[0]}, {1, s[1]}, {2, s[2]}, {3, s[3]}},
                           data.size());
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(*out, data);
}

// Encode -> erase -> decode round-trip over *every* erasure pattern of
// theta(3, 5) (all surviving subsets of size >= m), on every dispatch tier.
// The payload crosses the parallel-shard threshold so the sharded path is
// exercised too; chunks must be bit-identical across tiers.
TEST(ReedSolomon, EveryErasurePatternEveryTier) {
  ReedSolomon rs(3, 5);
  Rng rng(6);
  auto data = random_data(900 * 1024 + 7, rng);  // > 2 shards per chunk
  std::vector<std::vector<Chunk>> per_tier;
  for (GfTier tier : gf_supported_tiers()) {
    GfTierOverride ov(tier);
    per_tier.push_back(rs.encode(data));
    ASSERT_EQ(per_tier.back(), per_tier.front())
        << "encode differs on tier " << gf_tier_name(tier);
  }
  const auto& chunks = per_tier.front();
  for (int pattern = 0; pattern < (1 << 5); ++pattern) {
    if (__builtin_popcount(static_cast<unsigned>(pattern)) < 3) continue;
    std::vector<std::pair<int, Chunk>> have;
    for (int i = 0; i < 5; ++i) {
      if (pattern & (1 << i)) have.emplace_back(i, chunks[static_cast<std::size_t>(i)]);
    }
    std::optional<std::vector<std::uint8_t>> first;
    for (GfTier tier : gf_supported_tiers()) {
      GfTierOverride ov(tier);
      auto out = rs.decode(have, data.size());
      ASSERT_TRUE(out.has_value()) << "pattern " << pattern;
      ASSERT_EQ(*out, data)
          << "pattern " << pattern << " tier " << gf_tier_name(tier);
      if (!first) first = out;
      ASSERT_EQ(*out, *first);
    }
  }
}

// Repeated degraded reads with the same surviving set must invert the
// decode matrix once (memoized by erasure-pattern bitmask); the pure-data
// fast path must not populate the cache at all.
TEST(ReedSolomon, DecodeMatrixMemoized) {
  ReedSolomon rs(3, 5);
  Rng rng(7);
  auto data = random_data(333, rng);
  auto chunks = rs.encode(data);
  EXPECT_EQ(rs.decode_cache_size(), 0u);

  auto all_data = rs.decode({{0, chunks[0]}, {1, chunks[1]}, {2, chunks[2]}},
                            data.size());
  ASSERT_TRUE(all_data.has_value());
  EXPECT_EQ(*all_data, data);
  EXPECT_EQ(rs.decode_cache_size(), 0u);  // identity fast path, no invert

  for (int repeat = 0; repeat < 3; ++repeat) {
    auto out = rs.decode({{1, chunks[1]}, {3, chunks[3]}, {4, chunks[4]}},
                         data.size());
    ASSERT_TRUE(out.has_value());
    EXPECT_EQ(*out, data);
    EXPECT_EQ(rs.decode_cache_size(), 1u);
  }
  // Supplying the same survivors in a different order hits the same entry.
  auto out = rs.decode({{4, chunks[4]}, {1, chunks[1]}, {3, chunks[3]}},
                       data.size());
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(*out, data);
  EXPECT_EQ(rs.decode_cache_size(), 1u);
  // A different erasure pattern adds a second entry.
  auto out2 = rs.decode({{0, chunks[0]}, {2, chunks[2]}, {4, chunks[4]}},
                        data.size());
  ASSERT_TRUE(out2.has_value());
  EXPECT_EQ(*out2, data);
  EXPECT_EQ(rs.decode_cache_size(), 2u);
}

TEST(ReedSolomon, SharedInstancesAreMemoized) {
  const ReedSolomon& a = ReedSolomon::shared(3, 5);
  const ReedSolomon& b = ReedSolomon::shared(3, 5);
  const ReedSolomon& c = ReedSolomon::shared(2, 3);
  EXPECT_EQ(&a, &b);
  EXPECT_NE(static_cast<const void*>(&a), static_cast<const void*>(&c));
  // Shared and fresh instances code identically.
  ReedSolomon fresh(3, 5);
  Rng rng(8);
  auto data = random_data(512, rng);
  EXPECT_EQ(a.encode(data), fresh.encode(data));
}

struct RsCase {
  int m;
  int n;
  std::size_t size;
};

class RsSweep : public ::testing::TestWithParam<RsCase> {};

// Property sweep: random erasures of n-m chunks always reconstruct, on
// every dispatch tier.
TEST_P(RsSweep, RandomErasuresReconstruct) {
  auto [m, n, size] = GetParam();
  ReedSolomon rs(m, n);
  for (GfTier tier : gf_supported_tiers()) {
    GfTierOverride ov(tier);
    Rng rng(static_cast<std::uint64_t>(m * 131 + n * 17 + size));
    auto data = random_data(size, rng);
    auto chunks = rs.encode(data);
    for (int trial = 0; trial < 10; ++trial) {
      // Pick a random m-subset of surviving chunks.
      std::vector<int> alive;
      for (int i = 0; i < n; ++i) alive.push_back(i);
      for (int i = n - 1; i > 0; --i) {
        std::swap(alive[static_cast<std::size_t>(i)],
                  alive[rng.below(static_cast<std::uint64_t>(i) + 1)]);
      }
      std::vector<std::pair<int, Chunk>> have;
      for (int i = 0; i < m; ++i) {
        have.emplace_back(alive[static_cast<std::size_t>(i)],
                          chunks[static_cast<std::size_t>(
                              alive[static_cast<std::size_t>(i)])]);
      }
      auto out = rs.decode(have, data.size());
      ASSERT_TRUE(out.has_value()) << "tier " << gf_tier_name(tier);
      EXPECT_EQ(*out, data) << "tier " << gf_tier_name(tier);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Grid, RsSweep,
    ::testing::Values(RsCase{1, 2, 17}, RsCase{2, 3, 64}, RsCase{3, 5, 1000},
                      RsCase{3, 7, 123}, RsCase{4, 6, 4096},
                      RsCase{5, 9, 333}, RsCase{8, 12, 64},
                      RsCase{10, 14, 2048}));

}  // namespace
}  // namespace jupiter
