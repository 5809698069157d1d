// Tests for the striping layout arithmetic: segment decomposition, unit and
// I/O-node assignment, and coverage/disjointness properties under
// parameterized sweeps of (offset, length) shapes.

#include <gtest/gtest.h>

#include "pfs/stripe.hpp"

namespace sio::pfs {
namespace {

constexpr std::uint64_t kUnit = 64 * 1024;

TEST(StripeLayout, UnitAssignmentIsRoundRobin) {
  StripeLayout l(kUnit, 16);
  for (std::uint64_t u = 0; u < 64; ++u) {
    EXPECT_EQ(l.io_node_of(u), static_cast<int>(u % 16));
    EXPECT_EQ(l.local_unit(u), u / 16);
  }
}

TEST(StripeLayout, UnitOfOffset) {
  StripeLayout l(kUnit, 16);
  EXPECT_EQ(l.unit_of(0), 0u);
  EXPECT_EQ(l.unit_of(kUnit - 1), 0u);
  EXPECT_EQ(l.unit_of(kUnit), 1u);
  EXPECT_EQ(l.unit_of(10 * kUnit + 5), 10u);
}

TEST(StripeLayout, SmallRequestIsOneSegment) {
  StripeLayout l(kUnit, 16);
  const auto segs = l.map(100, 2048);
  ASSERT_EQ(segs.size(), 1u);
  EXPECT_EQ(segs[0].io_node, 0);
  EXPECT_EQ(segs[0].unit_index, 0u);
  EXPECT_EQ(segs[0].offset_in_unit, 100u);
  EXPECT_EQ(segs[0].length, 2048u);
  EXPECT_EQ(segs[0].file_offset, 100u);
}

TEST(StripeLayout, UnitAlignedDoubleStripeHitsTwoNodes) {
  StripeLayout l(kUnit, 16);
  const auto segs = l.map(0, 2 * kUnit);
  ASSERT_EQ(segs.size(), 2u);
  EXPECT_EQ(segs[0].io_node, 0);
  EXPECT_EQ(segs[1].io_node, 1);
  EXPECT_EQ(l.spread(0, 2 * kUnit), 2);
}

TEST(StripeLayout, StraddlingRequestSplitsAtBoundary) {
  StripeLayout l(kUnit, 16);
  const auto segs = l.map(kUnit - 100, 300);
  ASSERT_EQ(segs.size(), 2u);
  EXPECT_EQ(segs[0].length, 100u);
  EXPECT_EQ(segs[1].length, 200u);
  EXPECT_EQ(segs[1].offset_in_unit, 0u);
}

TEST(StripeLayout, MoreUnitsThanNodesWrapsAround) {
  StripeLayout l(kUnit, 4);
  const auto segs = l.map(0, 6 * kUnit);
  ASSERT_EQ(segs.size(), 6u);
  EXPECT_EQ(segs[4].io_node, 0);
  EXPECT_EQ(segs[4].unit_index, 4u);
  EXPECT_EQ(l.spread(0, 6 * kUnit), 4);
}

TEST(StripeLayout, ZeroLengthMapsToNothing) {
  StripeLayout l(kUnit, 16);
  EXPECT_TRUE(l.map(1234, 0).empty());
  EXPECT_EQ(l.spread(1234, 0), 0);
}

bool same_segment(const StripeSegment& a, const StripeSegment& b) {
  return a.io_node == b.io_node && a.unit_index == b.unit_index &&
         a.offset_in_unit == b.offset_in_unit && a.length == b.length &&
         a.file_offset == b.file_offset;
}

// The single-segment fast path must build exactly what map() would: on unit
// boundaries, ending at a unit's last byte, and filling a whole unit.
TEST(StripeLayout, SingleSegmentEqualsMapFront) {
  StripeLayout l(kUnit, 16);
  struct Range {
    std::uint64_t offset;
    std::uint64_t length;
  };
  const Range ranges[] = {{0, 1},
                          {0, kUnit},
                          {kUnit, 1},
                          {kUnit - 1, 1},
                          {kUnit - 2048, 2048},
                          {17 * kUnit, kUnit},
                          {17 * kUnit + 100, kUnit - 100},
                          {31 * kUnit - 1, 1},
                          {5 * kUnit + 7, 2048}};
  for (const auto& r : ranges) {
    SCOPED_TRACE(testing::Message() << "offset=" << r.offset << " length=" << r.length);
    ASSERT_TRUE(l.in_one_unit(r.offset, r.length));
    const auto segs = l.map(r.offset, r.length);
    ASSERT_EQ(segs.size(), 1u);
    EXPECT_TRUE(same_segment(l.segment(r.offset, r.length), segs.front()));
  }
}

TEST(StripeLayout, InOneUnitRejectsEmptyAndStraddlingRanges) {
  StripeLayout l(kUnit, 16);
  EXPECT_FALSE(l.in_one_unit(0, 0));
  EXPECT_FALSE(l.in_one_unit(kUnit - 1, 2));
  EXPECT_FALSE(l.in_one_unit(0, kUnit + 1));
  EXPECT_FALSE(l.in_one_unit(3 * kUnit + 1, kUnit));
  EXPECT_EQ(l.map(kUnit - 1, 2).size(), 2u);
}

// Property sweep: segments exactly tile the requested range, in order,
// each within one unit, with consistent node assignment.
struct MapCase {
  std::uint64_t unit;
  int io_nodes;
  std::uint64_t offset;
  std::uint64_t length;
};

class StripeMapProperty : public ::testing::TestWithParam<MapCase> {};

TEST_P(StripeMapProperty, SegmentsTileTheRange) {
  const auto& p = GetParam();
  StripeLayout l(p.unit, p.io_nodes);
  const auto segs = l.map(p.offset, p.length);
  EXPECT_EQ(l.in_one_unit(p.offset, p.length), segs.size() == 1);

  std::uint64_t pos = p.offset;
  std::uint64_t total = 0;
  for (const auto& s : segs) {
    EXPECT_EQ(s.file_offset, pos);
    EXPECT_GT(s.length, 0u);
    EXPECT_LE(s.offset_in_unit + s.length, p.unit);
    EXPECT_EQ(s.unit_index, l.unit_of(s.file_offset));
    EXPECT_EQ(s.io_node, l.io_node_of(s.unit_index));
    EXPECT_EQ(s.offset_in_unit, s.file_offset - s.unit_index * p.unit);
    pos += s.length;
    total += s.length;
  }
  EXPECT_EQ(total, p.length);
  EXPECT_EQ(pos, p.offset + p.length);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, StripeMapProperty,
    ::testing::Values(MapCase{65536, 16, 0, 1}, MapCase{65536, 16, 65535, 2},
                      MapCase{65536, 16, 0, 128 * 1024}, MapCase{65536, 16, 131071, 300000},
                      MapCase{65536, 16, 7, 16 * 65536}, MapCase{4096, 3, 4095, 12289},
                      MapCase{1024, 1, 100, 10000}, MapCase{65536, 16, 155584, 155584},
                      MapCase{65536, 2, 1 << 20, 1 << 20}));

}  // namespace
}  // namespace sio::pfs
