#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "util/bytes.h"
#include "util/rng.h"
#include "util/status.h"

namespace vegvisir {
namespace {

TEST(BytesTest, HexRoundTrip) {
  const Bytes data = {0x00, 0x01, 0xab, 0xff, 0x7f};
  const std::string hex = ToHex(data);
  EXPECT_EQ(hex, "0001abff7f");
  Bytes back;
  ASSERT_TRUE(FromHex(hex, &back));
  EXPECT_EQ(back, data);
}

TEST(BytesTest, HexEmpty) {
  EXPECT_EQ(ToHex({}), "");
  Bytes out{1, 2, 3};
  ASSERT_TRUE(FromHex("", &out));
  EXPECT_TRUE(out.empty());
}

TEST(BytesTest, HexUppercaseAccepted) {
  Bytes out;
  ASSERT_TRUE(FromHex("ABCDEF", &out));
  EXPECT_EQ(out, (Bytes{0xab, 0xcd, 0xef}));
}

TEST(BytesTest, HexRejectsOddLength) {
  Bytes out{9};
  EXPECT_FALSE(FromHex("abc", &out));
  EXPECT_EQ(out, Bytes{9});  // untouched on failure
}

TEST(BytesTest, HexRejectsNonHexChars) {
  Bytes out;
  EXPECT_FALSE(FromHex("zz", &out));
  EXPECT_FALSE(FromHex("0g", &out));
  EXPECT_FALSE(FromHex("  ", &out));
}

TEST(BytesTest, TextRoundTrip) {
  const Bytes b = BytesOf("hello");
  EXPECT_EQ(TextOf(b), "hello");
  EXPECT_EQ(b.size(), 5u);
}

TEST(BytesTest, ConstantTimeEqual) {
  const Bytes a = {1, 2, 3};
  const Bytes b = {1, 2, 3};
  const Bytes c = {1, 2, 4};
  const Bytes d = {1, 2};
  EXPECT_TRUE(ConstantTimeEqual(a, b));
  EXPECT_FALSE(ConstantTimeEqual(a, c));
  EXPECT_FALSE(ConstantTimeEqual(a, d));
  EXPECT_TRUE(ConstantTimeEqual({}, {}));
}

TEST(BytesTest, Append) {
  Bytes dst = {1, 2};
  const Bytes src = {3, 4};
  Append(&dst, src);
  EXPECT_EQ(dst, (Bytes{1, 2, 3, 4}));
}

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), ErrorCode::kOk);
  EXPECT_EQ(s.ToString(), "ok");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  const Status s = NotFoundError("block xyz");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), ErrorCode::kNotFound);
  EXPECT_EQ(s.message(), "block xyz");
  EXPECT_EQ(s.ToString(), "not-found: block xyz");
}

TEST(StatusTest, AllErrorCodesHaveNames) {
  for (int c = 0; c <= static_cast<int>(ErrorCode::kInternal); ++c) {
    EXPECT_STRNE(ErrorCodeName(static_cast<ErrorCode>(c)), "unknown");
  }
}

TEST(StatusOrTest, HoldsValue) {
  StatusOr<int> v(42);
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(*v, 42);
}

TEST(StatusOrTest, HoldsError) {
  StatusOr<int> v(InvalidArgumentError("bad"));
  EXPECT_FALSE(v.ok());
  EXPECT_EQ(v.status().code(), ErrorCode::kInvalidArgument);
}

TEST(StatusOrTest, MoveOutValue) {
  StatusOr<std::string> v(std::string("payload"));
  const std::string s = std::move(v).value();
  EXPECT_EQ(s, "payload");
}

TEST(RngTest, DeterministicFromSeed) {
  Rng a(12345);
  Rng b(12345);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.NextU64(), b.NextU64());
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.NextU64() == b.NextU64()) ++same;
  }
  EXPECT_EQ(same, 0);
}

TEST(RngTest, NextBelowRespectsBound) {
  Rng rng(7);
  for (std::uint64_t bound : {1ull, 2ull, 10ull, 1000ull}) {
    for (int i = 0; i < 200; ++i) EXPECT_LT(rng.NextBelow(bound), bound);
  }
  EXPECT_EQ(rng.NextBelow(0), 0u);
}

TEST(RngTest, NextInRangeInclusive) {
  Rng rng(11);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    const std::int64_t v = rng.NextInRange(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    saw_lo |= (v == -3);
    saw_hi |= (v == 3);
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(RngTest, NextDoubleInUnitInterval) {
  Rng rng(3);
  for (int i = 0; i < 1000; ++i) {
    const double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(RngTest, NextBoolExtremes) {
  Rng rng(5);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.NextBool(0.0));
    EXPECT_TRUE(rng.NextBool(1.0));
  }
}

TEST(RngTest, NextBoolApproximatesProbability) {
  Rng rng(17);
  int hits = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) hits += rng.NextBool(0.3) ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.02);
}

TEST(RngTest, ExponentialHasRoughlyRightMean) {
  Rng rng(23);
  double sum = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) sum += rng.NextExponential(5.0);
  EXPECT_NEAR(sum / n, 5.0, 0.3);
}

TEST(RngTest, ShuffleIsPermutation) {
  Rng rng(31);
  std::vector<int> v = {1, 2, 3, 4, 5, 6, 7, 8};
  auto sorted = v;
  rng.Shuffle(&v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, sorted);
}

TEST(RngTest, PermutationCoversAllIndices) {
  Rng rng(37);
  const auto p = rng.Permutation(16);
  std::set<std::size_t> seen(p.begin(), p.end());
  EXPECT_EQ(seen.size(), 16u);
  EXPECT_EQ(*seen.begin(), 0u);
  EXPECT_EQ(*seen.rbegin(), 15u);
}

TEST(RngTest, ForkProducesIndependentStream) {
  Rng parent(41);
  Rng child = parent.Fork();
  // The child stream must not replay the parent stream.
  Rng parent_copy(41);
  (void)parent_copy.NextU64();  // consume the fork draw
  EXPECT_NE(child.NextU64(), parent_copy.NextU64());
}

TEST(SplitMix64Test, KnownSequenceIsStable) {
  SplitMix64 sm(0);
  const std::uint64_t first = sm.Next();
  SplitMix64 sm2(0);
  EXPECT_EQ(sm2.Next(), first);
  EXPECT_NE(sm.Next(), first);
}

}  // namespace
}  // namespace vegvisir
