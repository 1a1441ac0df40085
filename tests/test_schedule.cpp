#include "sched/schedule.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <vector>

#include "sched/blocks.hpp"

namespace bs = bine::sched;
using bine::i64;
using bine::u64;

TEST(Blocks, OffsetsAndSizesPartitionTheVector) {
  for (const i64 n : {0, 1, 7, 16, 100, 1023}) {
    for (const i64 B : {1, 2, 3, 8, 16, 40}) {
      i64 total = 0;
      for (i64 b = 0; b < B; ++b) {
        EXPECT_EQ(bs::block_offset(b, n, B) + bs::block_elems(b, n, B),
                  bs::block_offset(b + 1, n, B));
        total += bs::block_elems(b, n, B);
        EXPECT_GE(bs::block_elems(b, n, B), n / B);
        EXPECT_LE(bs::block_elems(b, n, B), n / B + 1);
      }
      EXPECT_EQ(total, n);
      EXPECT_EQ(bs::block_offset(0, n, B), 0);
      EXPECT_EQ(bs::block_offset(B, n, B), n);
    }
  }
}

TEST(Blocks, BlockSetExpandAndCount) {
  bs::BlockSet set = bs::BlockSet::run(6, 4);  // wraps 6,7,0,1 in B=8
  EXPECT_EQ(set.block_count(), 4);
  EXPECT_EQ(set.expand(8), (std::vector<i64>{6, 7, 0, 1}));
  EXPECT_EQ(set.memory_segments(8), 2);  // wrapped run = two memory segments
  EXPECT_EQ(bs::BlockSet::run(2, 3).memory_segments(8), 1);
  EXPECT_EQ(bs::BlockSet::all(8).memory_segments(8), 1);
}

TEST(Blocks, ElemCountMatchesExpandedSum) {
  for (const i64 n : {13, 40, 111}) {
    const i64 B = 8;
    for (i64 start = 0; start < B; ++start)
      for (i64 count = 0; count <= B; ++count) {
        const bs::BlockSet set = bs::BlockSet::run(start, count);
        i64 manual = 0;
        for (const i64 b : set.expand(B)) manual += bs::block_elems(b, n, B);
        EXPECT_EQ(set.elem_count(n, B), manual) << "n=" << n << " run " << start << "+"
                                                << count;
      }
  }
}

TEST(Blocks, FromIdsCoalescesAndWraps) {
  bs::ScheduleArena arena;
  const bs::BlockSet a = bs::blockset_from_ids({3, 1, 2}, 8, arena);
  ASSERT_EQ(a.ranges().size(), 1u);
  EXPECT_EQ(a.ranges()[0].begin, 1);
  EXPECT_EQ(a.ranges()[0].count, 3);

  const bs::BlockSet b = bs::blockset_from_ids({7, 0, 3}, 8, arena);
  // 7 and 0 glue circularly; 3 stays apart.
  EXPECT_EQ(b.block_count(), 3);
  EXPECT_EQ(b.memory_segments(8), 3);  // {3} + wrapped {7,0} counted as 2

  const bs::BlockSet c = bs::blockset_from_ids({0, 1, 2, 3, 4, 5, 6, 7}, 8, arena);
  ASSERT_EQ(c.ranges().size(), 1u);
  EXPECT_EQ(c.ranges()[0].count, 8);
}

// Property: expand() -> blockset_from_ids() is an exact round trip -- same
// ids in canonical (sorted-run, circularly merged) order -- for random id
// subsets, including ones that wrap at B-1. This is the invariant the
// ScheduleCache's size resolution leans on: the canonical form determines
// elem_count for every vector length.
TEST(Blocks, FromIdsExpandRoundTripOnRandomSets) {
  bs::ScheduleArena arena;
  std::mt19937_64 rng(20250731);
  for (const i64 B : {1, 2, 3, 8, 16, 37, 64}) {
    for (int trial = 0; trial < 200; ++trial) {
      // Random non-empty subset of [0, B), biased to include the wrap pair
      // {B-1, 0} in about half the trials.
      std::vector<i64> ids;
      const bool force_wrap = B > 1 && (trial % 2 == 0);
      for (i64 b = 0; b < B; ++b)
        if (rng() % 3 == 0) ids.push_back(b);
      if (force_wrap) {
        for (const i64 must : {i64{0}, B - 1})
          if (std::find(ids.begin(), ids.end(), must) == ids.end()) ids.push_back(must);
        std::sort(ids.begin(), ids.end());
      }
      if (ids.empty()) ids.push_back(static_cast<i64>(rng() % static_cast<u64>(B)));

      const bs::BlockSet set = bs::blockset_from_ids(ids, B, arena);
      EXPECT_EQ(set.block_count(), static_cast<i64>(ids.size()));

      // Expanded ids are the input set (as a set).
      std::vector<i64> expanded = set.expand(B);
      std::vector<i64> expanded_sorted = expanded;
      std::sort(expanded_sorted.begin(), expanded_sorted.end());
      std::vector<i64> input_sorted = ids;
      std::sort(input_sorted.begin(), input_sorted.end());
      ASSERT_EQ(expanded_sorted, input_sorted) << "B=" << B << " trial=" << trial;

      // Round trip through expand() reproduces the identical canonical form.
      const bs::BlockSet again = bs::blockset_from_ids(expanded, B, arena);
      ASSERT_EQ(std::vector<bs::BlockRange>(again.ranges().begin(), again.ranges().end()),
                std::vector<bs::BlockRange>(set.ranges().begin(), set.ranges().end()))
          << "B=" << B << " trial=" << trial;

      // Canonical-form invariants: every range non-empty, no range both
      // starting at 0 and another ending at B (they must have merged), and a
      // wrapped range only ever appears once, at the back.
      i64 wrapped = 0;
      bool starts_at_zero = false, ends_at_B = false;
      for (const bs::BlockRange& r : set.ranges()) {
        EXPECT_GT(r.count, 0);
        EXPECT_LE(r.count, B);
        if (r.begin + r.count > B) ++wrapped;
        starts_at_zero |= r.begin == 0;
        if (r.begin + r.count == B) ends_at_B = true;
      }
      EXPECT_LE(wrapped, 1);
      if (set.ranges().size() > 1) {
        EXPECT_FALSE(starts_at_zero && ends_at_B && wrapped == 0);
      }

      // elem_count matches the per-block sum for a non-divisible vector.
      const i64 n = 7 * B + 3;
      i64 manual = 0;
      for (const i64 b : expanded) manual += bs::block_elems(b, n, B);
      EXPECT_EQ(set.elem_count(n, B), manual);

      // memory_segments: a wrapped range costs two segments unless it covers
      // the whole space (then the memory image is one contiguous run).
      i64 expect_segs = 0;
      for (const bs::BlockRange& r : set.ranges())
        expect_segs += (r.begin + r.count > B && r.count < B) ? 2 : 1;
      EXPECT_EQ(set.memory_segments(B), expect_segs);
    }
  }
}

TEST(Blocks, FullCircleWrappedRunIsOneMemorySegment) {
  // run(3, 8) in B=8 covers every block: the memory image is the whole
  // vector, i.e. one contiguous segment, not a split pair.
  EXPECT_EQ(bs::BlockSet::run(3, 8).memory_segments(8), 1);
  EXPECT_EQ(bs::BlockSet::run(3, 7).memory_segments(8), 2);
}

TEST(Blocks, ArenaSpansAreStableAcrossGrowth) {
  bs::ScheduleArena arena;
  // Force many chunk growths and verify previously returned sets never move.
  std::vector<bs::BlockSet> sets;
  std::vector<std::vector<i64>> expect;
  for (i64 t = 0; t < 2000; ++t) {
    const i64 B = 64;
    std::vector<i64> ids;
    for (i64 b = 0; b < B; b += 2 + (t % 5)) ids.push_back(b);
    expect.push_back(ids);
    sets.push_back(bs::blockset_from_ids(ids, B, arena));
  }
  for (size_t t = 0; t < sets.size(); ++t) {
    std::vector<i64> got = sets[t].expand(64);
    std::sort(got.begin(), got.end());
    ASSERT_EQ(got, expect[t]) << "set " << t;
  }
  // Chunked doubling: storage grows in O(log n) allocations, not O(n).
  EXPECT_LE(arena.chunk_count(), 16u);
}

TEST(Schedule, ValidateCatchesByteMismatch) {
  bs::Schedule s;
  s.coll = bs::Collective::bcast;
  s.p = 2;
  s.nblocks = 2;
  s.elem_count = 8;
  s.elem_size = 4;
  s.steps.assign(2, {});
  s.add_exchange(0, 0, 1, bs::BlockSet::all(2), false);
  EXPECT_EQ(s.validate(), "");
  s.steps[1][0].ops[0].bytes += 1;
  EXPECT_NE(s.validate(), "");
}

TEST(Schedule, TotalWireBytes) {
  bs::Schedule s;
  s.coll = bs::Collective::bcast;
  s.p = 4;
  s.nblocks = 4;
  s.elem_count = 16;  // 4 elems per block
  s.elem_size = 4;
  s.steps.assign(4, {});
  s.add_exchange(0, 0, 1, bs::BlockSet::all(4), false);   // 64 bytes
  s.add_exchange(1, 0, 2, bs::BlockSet::single(2), false);  // 16 bytes
  s.normalize_steps();
  EXPECT_EQ(s.total_wire_bytes(), 64 + 16);
}

// Appending an op grows only the involved ranks' step vectors: generation is
// O(1) per exchange instead of O(p). normalize_steps() evens the ranks out.
TEST(Schedule, AddExchangeGrowsOnlyInvolvedRanks) {
  bs::Schedule sch;
  sch.p = 8;
  sch.nblocks = 8;
  sch.elem_count = 64;
  sch.steps.assign(8, {});
  sch.add_exchange(2, 1, 5, bs::BlockSet::all(8), false);
  sch.add_local(1, 6, sch.elem_count * sch.elem_size, 1);
  for (i64 r = 0; r < sch.p; ++r) {
    const size_t want = r == 1 || r == 5 ? 3 : r == 6 ? 2 : 0;
    EXPECT_EQ(sch.steps[static_cast<size_t>(r)].size(), want) << "rank " << r;
  }
  EXPECT_EQ(sch.num_steps(), 3u);
  sch.normalize_steps();
  for (const auto& rank_steps : sch.steps) EXPECT_EQ(rank_steps.size(), 3u);
  EXPECT_EQ(sch.validate(), "");
}
