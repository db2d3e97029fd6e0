#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <span>

#include "common/rng.h"
#include "series/breakpoints.h"
#include "series/distance.h"
#include "series/isax.h"
#include "series/paa.h"
#include "series/series.h"
#include "series/sortable.h"

namespace coconut {
namespace series {
namespace {

std::vector<Value> RandomWalk(Rng* rng, size_t n) {
  std::vector<Value> v(n);
  double x = 0.0;
  for (size_t i = 0; i < n; ++i) {
    x += rng->NextGaussian();
    v[i] = static_cast<Value>(x);
  }
  return v;
}

// ---------------------------------------------------------------- znorm

TEST(ZNormalizeTest, ZeroMeanUnitVariance) {
  Rng rng(1);
  auto v = RandomWalk(&rng, 256);
  ZNormalize(v);
  double sum = std::accumulate(v.begin(), v.end(), 0.0);
  double sum_sq = 0.0;
  for (Value x : v) sum_sq += static_cast<double>(x) * x;
  EXPECT_NEAR(sum / v.size(), 0.0, 1e-4);
  EXPECT_NEAR(sum_sq / v.size(), 1.0, 1e-3);
}

TEST(ZNormalizeTest, ConstantSeriesBecomesZeros) {
  std::vector<Value> v(64, 5.0f);
  ZNormalize(v);
  for (Value x : v) EXPECT_EQ(x, 0.0f);
}

TEST(ZNormalizeTest, EmptyIsNoop) {
  std::vector<Value> v;
  ZNormalize(v);
  EXPECT_TRUE(v.empty());
}

TEST(SeriesCollectionTest, AppendAndAccess) {
  SeriesCollection c(4);
  c.Append(std::vector<Value>{1, 2, 3, 4});
  c.Append(std::vector<Value>{5, 6, 7, 8});
  EXPECT_EQ(c.size(), 2u);
  EXPECT_EQ(c[1][0], 5.0f);
  EXPECT_EQ(c[0][3], 4.0f);
}

// ---------------------------------------------------------------- PAA

TEST(PaaTest, MeanOfSegments) {
  std::vector<Value> v{1, 1, 3, 3, 5, 5, 7, 7};
  auto paa = ComputePaa(v, 4);
  ASSERT_EQ(paa.size(), 4u);
  EXPECT_FLOAT_EQ(paa[0], 1.0f);
  EXPECT_FLOAT_EQ(paa[1], 3.0f);
  EXPECT_FLOAT_EQ(paa[2], 5.0f);
  EXPECT_FLOAT_EQ(paa[3], 7.0f);
}

TEST(PaaTest, SingleSegmentIsGlobalMean) {
  std::vector<Value> v{2, 4, 6, 8};
  auto paa = ComputePaa(v, 1);
  EXPECT_FLOAT_EQ(paa[0], 5.0f);
}

TEST(PaaTest, NonDivisibleLengthUsesFractionalWeights) {
  // 3 points, 2 segments: seg0 = x0 + 0.5*x1, seg1 = 0.5*x1 + x2 (each /1.5).
  std::vector<Value> v{2, 4, 6};
  auto paa = ComputePaa(v, 2);
  EXPECT_NEAR(paa[0], (2 + 0.5 * 4) / 1.5, 1e-5);
  EXPECT_NEAR(paa[1], (0.5 * 4 + 6) / 1.5, 1e-5);
}

TEST(PaaTest, PreservesGlobalMean) {
  Rng rng(3);
  auto v = RandomWalk(&rng, 96);
  auto paa = ComputePaa(v, 8);
  double series_mean = std::accumulate(v.begin(), v.end(), 0.0) / v.size();
  double paa_mean = std::accumulate(paa.begin(), paa.end(), 0.0) / paa.size();
  EXPECT_NEAR(series_mean, paa_mean, 1e-4);
}

// Regression: an empty input used to divide by a zero segment width and
// fill the output with NaN, which then poisoned every downstream
// comparison (NaN SAX symbols, NaN MINDIST). The contract is all-zero
// segments, the PAA of nothing.
TEST(PaaTest, EmptyInputYieldsZerosNotNan) {
  auto paa = ComputePaa(std::span<const Value>(), 8);
  ASSERT_EQ(paa.size(), 8u);
  for (float v : paa) EXPECT_EQ(v, 0.0f);

  std::vector<float> out(8, -1.0f);
  ComputePaa(std::span<const Value>(), 8, out);
  for (float v : out) EXPECT_EQ(v, 0.0f);
}

TEST(PaaTest, FewerPointsThanSegmentsUsesFractionalWidths) {
  // 2 points into 4 segments: each segment covers half a point; the means
  // are finite and the global mean is preserved.
  std::vector<Value> v{2, 6};
  auto paa = ComputePaa(v, 4);
  ASSERT_EQ(paa.size(), 4u);
  EXPECT_FLOAT_EQ(paa[0], 2.0f);
  EXPECT_FLOAT_EQ(paa[3], 6.0f);
  double mean = 0.0;
  for (float x : paa) {
    EXPECT_TRUE(std::isfinite(x));
    mean += x;
  }
  EXPECT_NEAR(mean / 4, 4.0, 1e-5);
}

TEST(PaaTest, NonPositiveSegmentCountWritesNothing) {
  EXPECT_TRUE(ComputePaa(std::vector<Value>{1, 2, 3}, 0).empty());
  EXPECT_TRUE(ComputePaa(std::vector<Value>{1, 2, 3}, -3).empty());
  std::vector<float> out(4, 7.0f);
  ComputePaa(std::vector<Value>{1, 2, 3}, 0, out);
  for (float v : out) EXPECT_EQ(v, 7.0f);  // untouched
}

// ---------------------------------------------------------------- Breakpoints

TEST(BreakpointsTest, InverseNormalCdfKnownValues) {
  EXPECT_NEAR(Breakpoints::InverseNormalCdf(0.5), 0.0, 1e-9);
  EXPECT_NEAR(Breakpoints::InverseNormalCdf(0.975), 1.959964, 1e-5);
  EXPECT_NEAR(Breakpoints::InverseNormalCdf(0.025), -1.959964, 1e-5);
  EXPECT_NEAR(Breakpoints::InverseNormalCdf(0.841344746), 1.0, 1e-6);
}

TEST(BreakpointsTest, TableSizesAndMonotonicity) {
  for (int bits = 1; bits <= 8; ++bits) {
    const auto& t = Breakpoints::ForBits(bits);
    ASSERT_EQ(t.size(), static_cast<size_t>((1 << bits) - 1));
    for (size_t i = 1; i < t.size(); ++i) EXPECT_LT(t[i - 1], t[i]);
  }
}

TEST(BreakpointsTest, OneBitSplitsAtZero) {
  const auto& t = Breakpoints::ForBits(1);
  ASSERT_EQ(t.size(), 1u);
  EXPECT_NEAR(t[0], 0.0, 1e-9);
  EXPECT_EQ(Breakpoints::Quantize(-0.5, 1), 0);
  EXPECT_EQ(Breakpoints::Quantize(0.5, 1), 1);
}

TEST(BreakpointsTest, QuantizeIsMonotone) {
  for (int bits : {2, 4, 8}) {
    uint8_t prev = 0;
    for (double x = -4.0; x <= 4.0; x += 0.01) {
      uint8_t s = Breakpoints::Quantize(x, bits);
      EXPECT_GE(s, prev);
      prev = s;
    }
    EXPECT_EQ(prev, (1 << bits) - 1);
  }
}

TEST(BreakpointsTest, RegionsContainTheirValues) {
  for (int bits : {3, 8}) {
    for (double x = -3.0; x <= 3.0; x += 0.1) {
      uint8_t s = Breakpoints::Quantize(x, bits);
      EXPECT_GE(x, Breakpoints::RegionLower(s, bits));
      EXPECT_LT(x, Breakpoints::RegionUpper(s, bits));
    }
  }
}

// ---------------------------------------------------------------- iSAX

TEST(SaxTest, SymbolsTrackPaaMagnitude) {
  SaxConfig cfg{.series_length = 64, .num_segments = 4, .bits_per_segment = 8};
  // Strongly decreasing staircase: symbols must strictly decrease.
  std::vector<Value> v(64);
  for (int i = 0; i < 64; ++i) v[i] = static_cast<Value>(-i);
  auto norm = ZNormalized(v);
  SaxWord w = ComputeSax(norm, cfg);
  EXPECT_GT(w[0], w[1]);
  EXPECT_GT(w[1], w[2]);
  EXPECT_GT(w[2], w[3]);
}

TEST(SaxTest, ValidConfigBounds) {
  SaxConfig good;
  EXPECT_TRUE(good.Valid());
  SaxConfig bad1{.series_length = 8, .num_segments = 16, .bits_per_segment = 8};
  EXPECT_FALSE(bad1.Valid());
  SaxConfig bad2{.series_length = 256, .num_segments = 17,
                 .bits_per_segment = 8};
  EXPECT_FALSE(bad2.Valid());
  SaxConfig bad3{.series_length = 256, .num_segments = 16,
                 .bits_per_segment = 9};
  EXPECT_FALSE(bad3.Valid());
}

// ---------------------------------------------------------------- Sortable keys

class SortableKeyRoundTrip : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(SortableKeyRoundTrip, InterleaveIsLossless) {
  auto [segments, bits] = GetParam();
  SaxConfig cfg{.series_length = 256, .num_segments = segments,
                .bits_per_segment = bits};
  Rng rng(segments * 31 + bits);
  for (int trial = 0; trial < 200; ++trial) {
    SaxWord w{};
    for (int s = 0; s < segments; ++s) {
      w[s] = static_cast<uint8_t>(rng.NextBounded(1u << bits));
    }
    SortableKey key = InterleaveSax(w, cfg);
    SaxWord back = DeinterleaveKey(key, cfg);
    EXPECT_EQ(w, back);
  }
}

TEST_P(SortableKeyRoundTrip, SegmentMajorIsLossless) {
  auto [segments, bits] = GetParam();
  SaxConfig cfg{.series_length = 256, .num_segments = segments,
                .bits_per_segment = bits};
  Rng rng(segments * 17 + bits);
  for (int trial = 0; trial < 200; ++trial) {
    SaxWord w{};
    for (int s = 0; s < segments; ++s) {
      w[s] = static_cast<uint8_t>(rng.NextBounded(1u << bits));
    }
    SortableKey key = SegmentMajorKey(w, cfg);
    SaxWord back = SegmentMajorToSax(key, cfg);
    EXPECT_EQ(w, back);
  }
}

INSTANTIATE_TEST_SUITE_P(AllShapes, SortableKeyRoundTrip,
                         ::testing::Values(std::make_tuple(4, 2),
                                           std::make_tuple(8, 4),
                                           std::make_tuple(16, 8),
                                           std::make_tuple(16, 1),
                                           std::make_tuple(3, 5),
                                           std::make_tuple(16, 4)));

TEST(SortableKeyTest, OrderingMatchesBitInterleaving) {
  SaxConfig cfg{.series_length = 16, .num_segments = 2, .bits_per_segment = 2};
  // Symbols (a, b): interleaved bits are a1 b1 a0 b0 (MSB first).
  // (0,0) -> 0000, (0,1) -> 0101? No: a=0,b=1 -> bits a1=0,b1=0,a0=0,b0=1 = 0001.
  // Highest: (3,3) -> 1111.
  auto key = [&](uint8_t a, uint8_t b) {
    SaxWord w{};
    w[0] = a;
    w[1] = b;
    return InterleaveSax(w, cfg);
  };
  EXPECT_LT(key(0, 0), key(0, 1));
  EXPECT_LT(key(0, 1), key(1, 0));  // a's MSB round comes before b's LSB.
  EXPECT_LT(key(1, 3), key(2, 0));  // MSB of a dominates.
  EXPECT_LT(key(2, 2), key(3, 3));
  EXPECT_EQ(key(3, 3), SortableKey({0xF000000000000000ULL, 0}));
}

TEST(SortableKeyTest, InterleavedOrderClustersAllSegments) {
  // The core property: series similar in *all* segments sort nearby, while
  // segment-major order can place them far apart. Construct three words:
  //   q  = (128, 128, ..., 128)
  //   near = q with every symbol +1 (similar in all segments)
  //   far  = (128, 0, 0, ..., 0) (same first segment, wildly off elsewhere)
  SaxConfig cfg;  // 16 x 8 bits.
  SaxWord q{};
  SaxWord near_w{};
  SaxWord far_w{};
  for (int s = 0; s < 16; ++s) {
    q[s] = 128;
    near_w[s] = 129;
    far_w[s] = s == 0 ? 128 : 0;
  }
  auto dist = [](const SortableKey& a, const SortableKey& b) {
    // Compare by the more significant differing word, as a coarse "distance
    // along the sorted order".
    auto hi = [](const SortableKey& k) {
      return static_cast<double>(k.words[0]);
    };
    return std::abs(hi(a) - hi(b));
  };
  SortableKey kq = InterleaveSax(q, cfg);
  SortableKey kn = InterleaveSax(near_w, cfg);
  SortableKey kf = InterleaveSax(far_w, cfg);
  EXPECT_LT(dist(kq, kn), dist(kq, kf));

  // Segment-major puts far_w right next to q (same first byte) even though
  // it differs maximally in 15 of 16 segments.
  SortableKey mq = SegmentMajorKey(q, cfg);
  SortableKey mn = SegmentMajorKey(near_w, cfg);
  SortableKey mf = SegmentMajorKey(far_w, cfg);
  EXPECT_LT(dist(mq, mf), dist(mq, mn));
}

TEST(SortableKeyTest, MinMaxAndHex) {
  EXPECT_LT(SortableKey::Min(), SortableKey::Max());
  EXPECT_EQ(SortableKey::Min().ToHex(), std::string(32, '0'));
  EXPECT_EQ(SortableKey::Max().ToHex(), std::string(32, 'f'));
}

// The codec's original bit-at-a-time loops, kept as the reference the
// table-driven InterleaveSax/DeinterleaveKey must match bit for bit.
SortableKey ReferenceInterleave(const SaxWord& word, const SaxConfig& cfg) {
  SortableKey key;
  const int bits = cfg.bits_per_segment;
  const int segs = cfg.num_segments;
  for (int round = 0; round < bits; ++round) {
    for (int seg = 0; seg < segs; ++seg) {
      if (((word[seg] >> (bits - 1 - round)) & 1) != 0) {
        const int t = round * segs + seg;
        key.words[t / 64] |= 1ULL << (63 - (t % 64));
      }
    }
  }
  return key;
}

SaxWord ReferenceDeinterleave(const SortableKey& key, const SaxConfig& cfg) {
  SaxWord word{};
  const int bits = cfg.bits_per_segment;
  const int segs = cfg.num_segments;
  for (int round = 0; round < bits; ++round) {
    for (int seg = 0; seg < segs; ++seg) {
      const int t = round * segs + seg;
      if (((key.words[t / 64] >> (63 - (t % 64))) & 1ULL) != 0) {
        word[seg] =
            static_cast<uint8_t>(word[seg] | (1u << (bits - 1 - round)));
      }
    }
  }
  return word;
}

// Clears every key bit at or past `key_bits`.
SortableKey TruncateKey(SortableKey key, int key_bits) {
  for (int w = 0; w < 2; ++w) {
    const int keep = std::clamp(key_bits - 64 * w, 0, 64);
    key.words[w] = keep == 0 ? 0 : key.words[w] & (~0ULL << (64 - keep));
  }
  return key;
}

TEST(SortableKeyCodecTest, MatchesReferenceOnEveryShape) {
  for (int segments = 1; segments <= kMaxSegments; ++segments) {
    for (int bits = 1; bits <= 8; ++bits) {
      SCOPED_TRACE(::testing::Message() << segments << "x" << bits);
      SaxConfig cfg{.series_length = 256, .num_segments = segments,
                    .bits_per_segment = bits};
      Rng rng(static_cast<uint64_t>(segments * 131 + bits));
      for (int trial = 0; trial < 64; ++trial) {
        SaxWord w{};
        for (int s = 0; s < segments; ++s) {
          w[s] = static_cast<uint8_t>(rng.NextBounded(1u << bits));
        }
        const SortableKey expected = ReferenceInterleave(w, cfg);
        ASSERT_EQ(InterleaveSax(w, cfg), expected) << expected.ToHex();
        ASSERT_EQ(DeinterleaveKey(expected, cfg),
                  ReferenceDeinterleave(expected, cfg));

        SortableKey arbitrary;
        arbitrary.words = {rng.NextUint64(), rng.NextUint64()};
        arbitrary = TruncateKey(arbitrary, cfg.key_bits());
        const SaxWord decoded = DeinterleaveKey(arbitrary, cfg);
        ASSERT_EQ(decoded, ReferenceDeinterleave(arbitrary, cfg))
            << arbitrary.ToHex();
        ASSERT_EQ(InterleaveSax(decoded, cfg), arbitrary) << arbitrary.ToHex();
      }
    }
  }
}

TEST(SortableKeyCodecTest, GoldenKeysPinTheOnDiskFormat) {
  struct Golden {
    int segments;
    int bits;
    SaxWord word;
    SortableKey key;
  };
  auto word_of = [](int segments, auto symbol) {
    SaxWord w{};
    for (int s = 0; s < segments; ++s) w[s] = static_cast<uint8_t>(symbol(s));
    return w;
  };
  const Golden golden[] = {
      {16, 8, word_of(16, [](int s) { return s * 17; }),
       SortableKey({0x00ff0f0f33335555ULL, 0x00ff0f0f33335555ULL})},
      {16, 8, word_of(16, [](int s) { return (s * 73 + 41) & 255; }),
       SortableKey({0x264c4a95e1c366cdULL, 0xab541e1e6666aaaaULL})},
      {8, 4, word_of(8, [](int s) { return s * 2 + 1; }),
       SortableKey({0x0f3355ff00000000ULL, 0})},
      {5, 6, word_of(5, [](int s) { return (s * 37 + 11) & 63; }),
       SortableKey({0x53e659d400000000ULL, 0})},
      {3, 5, SaxWord{31, 0, 21}, SortableKey({0xb2ca000000000000ULL, 0})},
      {16, 1, word_of(16, [](int s) { return s & 1; }),
       SortableKey({0x5555000000000000ULL, 0})},
  };
  for (const Golden& g : golden) {
    SCOPED_TRACE(::testing::Message() << g.segments << "x" << g.bits);
    SaxConfig cfg{.series_length = 256, .num_segments = g.segments,
                  .bits_per_segment = g.bits};
    EXPECT_EQ(InterleaveSax(g.word, cfg).ToHex(), g.key.ToHex());
    EXPECT_EQ(DeinterleaveKey(g.key, cfg), g.word);
  }
}

// ---------------------------------------------------------------- distances

TEST(DistanceTest, EuclideanSquaredBasics) {
  std::vector<Value> a{0, 0, 0};
  std::vector<Value> b{1, 2, 2};
  EXPECT_DOUBLE_EQ(EuclideanSquared(a, b), 9.0);
  EXPECT_DOUBLE_EQ(EuclideanSquared(a, a), 0.0);
}

TEST(DistanceTest, EarlyAbandonMatchesWhenUnderThreshold) {
  Rng rng(5);
  auto a = RandomWalk(&rng, 256);
  auto b = RandomWalk(&rng, 256);
  double full = EuclideanSquared(a, b);
  EXPECT_DOUBLE_EQ(EuclideanSquaredEarlyAbandon(a, b, full + 1.0), full);
  // Abandoned result must still exceed the threshold.
  EXPECT_GT(EuclideanSquaredEarlyAbandon(a, b, full / 4), full / 4);
}

// Regression: mismatched span lengths used to read past the end of the
// shorter operand (the loop trusted a.size()). The kernel boundary now
// clamps to the common prefix; two spans sharing a prefix but differing in
// tail length must agree with the explicit prefix comparison, and an empty
// operand contributes distance zero.
TEST(DistanceTest, MismatchedLengthsCompareCommonPrefix) {
  Rng rng(11);
  auto a = RandomWalk(&rng, 100);
  auto b = RandomWalk(&rng, 64);
  const std::span<const Value> a64(a.data(), 64);
  EXPECT_DOUBLE_EQ(EuclideanSquared(a, b), EuclideanSquared(a64, b));
  EXPECT_DOUBLE_EQ(EuclideanSquared(b, a), EuclideanSquared(b, a64));
  const double inf = std::numeric_limits<double>::infinity();
  EXPECT_DOUBLE_EQ(EuclideanSquaredEarlyAbandon(a, b, inf),
                   EuclideanSquared(a64, b));
  EXPECT_DOUBLE_EQ(EuclideanSquared(a, std::span<const Value>()), 0.0);
  EXPECT_DOUBLE_EQ(
      EuclideanSquaredEarlyAbandon(std::span<const Value>(), b, inf), 0.0);
}

class MinDistLowerBound : public ::testing::TestWithParam<int> {};

TEST_P(MinDistLowerBound, HoldsForRandomPairs) {
  const int bits = GetParam();
  SaxConfig cfg{.series_length = 128, .num_segments = 8,
                .bits_per_segment = bits};
  Rng rng(77 + bits);
  for (int trial = 0; trial < 100; ++trial) {
    auto a = ZNormalized(RandomWalk(&rng, 128));
    auto b = ZNormalized(RandomWalk(&rng, 128));
    auto query_paa = ComputePaa(a, cfg.num_segments);
    SaxWord wb = ComputeSax(b, cfg);
    const double lb = MinDistSquaredToSax(query_paa, wb, cfg);
    const double actual = EuclideanSquared(a, b);
    EXPECT_LE(lb, actual + 1e-6)
        << "lower bound violated at trial " << trial << " bits " << bits;
  }
}

INSTANTIATE_TEST_SUITE_P(Cardinalities, MinDistLowerBound,
                         ::testing::Values(1, 2, 4, 8));

TEST(DistanceTest, MinDistZeroWhenPaaInsideRegion) {
  SaxConfig cfg{.series_length = 64, .num_segments = 4, .bits_per_segment = 4};
  Rng rng(9);
  auto a = ZNormalized(RandomWalk(&rng, 64));
  auto paa = ComputePaa(a, 4);
  SaxWord w = ComputeSaxFromPaa(paa, cfg);
  EXPECT_DOUBLE_EQ(MinDistSquaredToSax(paa, w, cfg), 0.0);
}

TEST(DistanceTest, RegionFromSymbolRangeContainsBoth) {
  SaxConfig cfg{.series_length = 64, .num_segments = 4, .bits_per_segment = 8};
  SaxWord lo{};
  SaxWord hi{};
  for (int s = 0; s < 4; ++s) {
    lo[s] = 10;
    hi[s] = 200;
  }
  SaxRegion r = RegionFromSymbolRange(lo, hi, cfg);
  for (int s = 0; s < 4; ++s) {
    EXPECT_LE(r.lower[s], Breakpoints::RegionLower(10, 8));
    EXPECT_GE(r.upper[s], Breakpoints::RegionUpper(200, 8));
  }
}

TEST(DistanceTest, RegionFromPrefixWidensWithFewerBits) {
  SaxConfig cfg{.series_length = 64, .num_segments = 2, .bits_per_segment = 8};
  SaxWord prefix{};
  prefix[0] = 2;  // Top 2 bits = binary 10.
  prefix[1] = 0;
  std::vector<uint8_t> bits2{2, 0};
  std::vector<uint8_t> bits4{2, 0};
  SaxRegion wide = RegionFromPrefix(prefix, bits2, cfg);
  // Unconstrained segment 1 must be infinite.
  EXPECT_EQ(wide.lower[1], -HUGE_VALF);
  EXPECT_EQ(wide.upper[1], HUGE_VALF);
  // Prefix "10" at 2 bits covers symbols [128, 191] at 8 bits.
  EXPECT_FLOAT_EQ(wide.lower[0],
                  static_cast<float>(Breakpoints::RegionLower(128, 8)));
  EXPECT_FLOAT_EQ(wide.upper[0],
                  static_cast<float>(Breakpoints::RegionUpper(191, 8)));
}

TEST(DistanceTest, PrefixRegionLowerBoundHolds) {
  // MINDIST through a prefix region must also lower-bound the true distance.
  SaxConfig cfg{.series_length = 128, .num_segments = 8,
                .bits_per_segment = 8};
  Rng rng(123);
  for (int trial = 0; trial < 50; ++trial) {
    auto a = ZNormalized(RandomWalk(&rng, 128));
    auto b = ZNormalized(RandomWalk(&rng, 128));
    auto query_paa = ComputePaa(a, cfg.num_segments);
    SaxWord wb = ComputeSax(b, cfg);
    // Keep only the top 3 bits of each symbol as prefix.
    SaxWord prefix{};
    std::vector<uint8_t> pbits(8, 3);
    for (int s = 0; s < 8; ++s) prefix[s] = wb[s] >> 5;
    SaxRegion region = RegionFromPrefix(prefix, pbits, cfg);
    const double lb = MinDistSquared(query_paa, region, cfg);
    EXPECT_LE(lb, EuclideanSquared(a, b) + 1e-6);
  }
}

}  // namespace
}  // namespace series
}  // namespace coconut
