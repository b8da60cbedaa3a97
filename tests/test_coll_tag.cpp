#include "core/coll_tag.hpp"

#include <gtest/gtest.h>

namespace qmb::core {
namespace {

TEST(BarrierTag, RoundTripsFields) {
  const std::uint32_t t = BarrierTag::encode(0x555, 0xAB, 0x201);
  EXPECT_TRUE(BarrierTag::is_barrier(t));
  EXPECT_EQ(BarrierTag::group(t), 0x555u);
  EXPECT_EQ(BarrierTag::seq_low(t), 0xABu);
  EXPECT_EQ(BarrierTag::edge_tag(t), 0x201u);
}

TEST(BarrierTag, ApplicationTagsAreNotBarriers) {
  EXPECT_FALSE(BarrierTag::is_barrier(0));
  EXPECT_FALSE(BarrierTag::is_barrier(0x7FFFFFFFu));
  EXPECT_TRUE(BarrierTag::is_barrier(BarrierTag::kBase));
}

TEST(BarrierTag, FieldsAreMasked) {
  // Oversized inputs must not bleed into neighbouring fields.
  const std::uint32_t t = BarrierTag::encode(0xFFFF, 0xFFFFF, 0xFFFFF);
  EXPECT_EQ(BarrierTag::group(t), 0x7FFu);
  EXPECT_EQ(BarrierTag::seq_low(t), 0xFFu);
  EXPECT_EQ(BarrierTag::edge_tag(t), 0xFFFu);
}

TEST(BarrierTag, GroupFieldHoldsThousands) {
  // The 11-bit group field is what lets thousands of concurrent tenant
  // groups coexist (validate() admits up to kGroupMask = 2047 groups).
  const std::uint32_t t = BarrierTag::encode(2047, 3, 7);
  EXPECT_EQ(BarrierTag::group(t), 2047u);
  EXPECT_EQ(BarrierTag::seq_low(t), 3u);
  EXPECT_EQ(BarrierTag::edge_tag(t), 7u);
}

TEST(BarrierTag, WidenSeqIdentityInWindow) {
  for (std::uint32_t seq : {0u, 1u, 5u, 100u, 254u, 1000u}) {
    EXPECT_EQ(BarrierTag::widen_seq(seq & BarrierTag::kSeqMask, seq), seq);
    EXPECT_EQ(BarrierTag::widen_seq((seq + 1) & BarrierTag::kSeqMask, seq), seq + 1);
  }
}

TEST(BarrierTag, WidenSeqAcrossWrap) {
  // Receiver progressed past a wrap boundary of the 256-value window; the
  // incoming low bits belong to the previous window period.
  const std::uint32_t next = 0x101;  // receiver will start 0x101 next
  EXPECT_EQ(BarrierTag::widen_seq(0xFF, next), 0xFFu);    // one behind
  EXPECT_EQ(BarrierTag::widen_seq(0x01, next), 0x101u);   // current
  EXPECT_EQ(BarrierTag::widen_seq(0x02, next), 0x102u);   // one ahead
}

TEST(BarrierTag, WidenSeqSeveralPeriodsIn) {
  const std::uint32_t next = 0x305;
  EXPECT_EQ(BarrierTag::widen_seq(0x04, next), 0x304u);  // just behind
  EXPECT_EQ(BarrierTag::widen_seq(0x06, next), 0x306u);  // just ahead
  EXPECT_EQ(BarrierTag::widen_seq(0xFE, next), 0x2FEu);  // previous period
}

TEST(BarrierTag, WidenSeqNearZero) {
  EXPECT_EQ(BarrierTag::widen_seq(0, 0), 0u);
  EXPECT_EQ(BarrierTag::widen_seq(1, 0), 1u);
  // Low bits far "above" a near-zero reference resolve to the small value,
  // never to a negative period.
  EXPECT_EQ(BarrierTag::widen_seq(0xFF, 1), 0xFFu);
}

TEST(BarrierTag, WidenSeqHalfWindowTieIsDeterministic) {
  // Exactly half a window away in both directions: the codec must pick one
  // candidate deterministically (the in-period one), not oscillate.
  EXPECT_EQ(BarrierTag::widen_seq(0, 0x80), 0u);
  EXPECT_EQ(BarrierTag::widen_seq(0x80, 0x100), 0x180u);
}

TEST(BarrierTag, WidenSeqWindowDwarfsOpWindow) {
  // The executors run a two-deep operation window; the 8-bit sequence
  // window must disambiguate arrivals at +/-2 operations with a wide
  // margin everywhere in the space.
  for (std::uint32_t next : {2u, 0xFFu, 0x100u, 0x101u, 0x4321u}) {
    for (int d = -2; d <= 2; ++d) {
      const std::uint32_t seq = next + static_cast<std::uint32_t>(d);
      EXPECT_EQ(BarrierTag::widen_seq(seq & BarrierTag::kSeqMask, next), seq)
          << "next=" << next << " d=" << d;
    }
  }
}

TEST(BarrierTag, DistinctGroupsDistinctTags) {
  const auto a = BarrierTag::encode(1, 5, 3);
  const auto b = BarrierTag::encode(2, 5, 3);
  EXPECT_NE(a, b);
  EXPECT_EQ(BarrierTag::seq_low(a), BarrierTag::seq_low(b));
}

}  // namespace
}  // namespace qmb::core
