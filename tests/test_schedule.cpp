#include "sched/schedule.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "coll/registry.hpp"
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

TEST(Schedule, ValidateChecksRanges) {
  bs::Schedule s;
  s.coll = bs::Collective::bcast;
  s.p = 2;
  s.nblocks = 2;
  s.elem_count = 8;
  s.elem_size = 4;
  s.add_exchange(0, 0, 1, bs::BlockSet::all(2), false);
  s.add_local(1, 1, 1);
  EXPECT_EQ(s.validate(), "");
  bs::Schedule bad_block = s;
  bad_block.add_exchange(1, 1, 0, bs::BlockSet::run(2, 1), false);  // ids are 0..1
  EXPECT_NE(bad_block.validate(), "");
  bs::Schedule bad_count = s;
  bad_count.add_exchange(1, 1, 0, bs::BlockSet::run(0, 3), false);
  EXPECT_NE(bad_count.validate(), "");
}

TEST(Schedule, TotalWireBytes) {
  bs::Schedule s;
  s.coll = bs::Collective::bcast;
  s.p = 4;
  s.nblocks = 4;
  s.elem_count = 16;  // 4 elems per block
  s.elem_size = 4;
  s.add_exchange(0, 0, 1, bs::BlockSet::all(4), false);   // 64 bytes
  s.add_exchange(1, 0, 2, bs::BlockSet::single(2), false);  // 16 bytes
  s.add_local(1, 3, 1);                                   // moves no wire bytes
  EXPECT_EQ(s.total_wire_bytes(), 64 + 16);
}

// One record per generator call; the canonical order expands each exchange
// into its send (at `from`) and recv (at `to`), resolves bytes at the
// schedule's size, and keeps an empty intermediate step's index.
TEST(Schedule, CanonicalOrderExpandsRecordsAndKeepsEmptySteps) {
  bs::Schedule sch;
  sch.p = 8;
  sch.nblocks = 8;
  sch.elem_count = 64;
  sch.add_exchange(3, 5, 1, bs::BlockSet::single(2), true);
  sch.add_exchange(3, 1, 5, bs::BlockSet::all(8), false);
  sch.add_local(1, 6, 2);
  EXPECT_EQ(sch.records().size(), 3u);
  EXPECT_EQ(sch.num_steps(), 4u);

  struct Seen {
    size_t step;
    i64 rank;
    bs::OpKind kind;
    i64 peer;
    i64 bytes;
  };
  std::vector<Seen> seen;
  std::vector<size_t> step_ends;
  size_t step = 0;
  bs::for_each_op_step_major(
      sch,
      [&](i64 r, const bs::Op& op) {
        seen.push_back({step, r, op.kind, op.peer, sch.bytes_of(op)});
      },
      [&](size_t t) {
        step_ends.push_back(t);
        step = t + 1;
      });
  EXPECT_EQ(step_ends, (std::vector<size_t>{0, 1, 2, 3}));
  ASSERT_EQ(seen.size(), 5u);
  // Step 1: rank 6's local op moves the full vector.
  EXPECT_EQ(seen[0].step, 1u);
  EXPECT_EQ(seen[0].rank, 6);
  EXPECT_EQ(seen[0].kind, bs::OpKind::local_perm);
  EXPECT_EQ(seen[0].bytes, 64 * 4);
  // Step 3: rank 1 (recv_reduce then send, in call order), then rank 5.
  const std::vector<std::pair<i64, bs::OpKind>> want = {
      {1, bs::OpKind::recv_reduce}, {1, bs::OpKind::send},
      {5, bs::OpKind::send}, {5, bs::OpKind::recv}};
  for (size_t k = 0; k < want.size(); ++k) {
    EXPECT_EQ(seen[k + 1].step, 3u);
    EXPECT_EQ(seen[k + 1].rank, want[k].first) << k;
    EXPECT_EQ(seen[k + 1].kind, want[k].second) << k;
  }
  EXPECT_EQ(seen[1].bytes, 8 * 4);   // one block of 8 elements
  EXPECT_EQ(seen[2].bytes, 64 * 4);  // all eight blocks
  EXPECT_EQ(seen[2].peer, 5);
  EXPECT_EQ(sch.validate(), "");
}

// The counting sort behind the canonical order must agree with a stable
// comparison sort by (step, rank) over every registry generator, at a pow2
// and a non-pow2 p.
TEST(Schedule, CanonicalOrderMatchesStableSortForEveryGenerator) {
  for (const i64 p : {16, 24}) {
    for (const bs::Collective c : bine::coll::all_collectives()) {
      for (const auto& entry : bine::coll::algorithms_for(c)) {
        if (entry.pow2_only && !bine::is_pow2(p)) continue;
        SCOPED_TRACE(entry.name + " p=" + std::to_string(p));
        bine::coll::Config cfg;
        cfg.p = p;
        cfg.elem_count = p;
        cfg.torus_dims = p == 16 ? std::vector<i64>{4, 4} : std::vector<i64>{2, 3, 4};
        const bs::Schedule sch = entry.make(cfg);
        ASSERT_EQ(sch.validate(), "");

        const auto recs = sch.records();
        std::vector<std::uint32_t> want;
        for (std::uint32_t i = 0; i < recs.size(); ++i) {
          want.push_back(2 * i);
          if (!recs[i].local()) want.push_back(2 * i + 1);
        }
        const auto key = [&](std::uint32_t ref) {
          const bs::Record& rec = recs[ref >> 1];
          return std::make_pair(rec.step, (ref & 1u) ? rec.to : rec.from);
        };
        std::stable_sort(want.begin(), want.end(),
                         [&](std::uint32_t a, std::uint32_t b) { return key(a) < key(b); });
        const bs::OpOrder order = bs::canonical_order(sch);
        EXPECT_EQ(order.ref, want);
        ASSERT_EQ(order.step_begin.size(), sch.num_steps() + 1);
        for (size_t t = 0; t < sch.num_steps(); ++t)
          for (std::uint32_t k = order.step_begin[t]; k < order.step_begin[t + 1]; ++k)
            EXPECT_EQ(key(order.ref[k]).first, t);
      }
    }
  }
}
