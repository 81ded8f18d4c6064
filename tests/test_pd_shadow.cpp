#include <gtest/gtest.h>

#include "wlp/core/shadow.hpp"
#include "wlp/sched/doall.hpp"
#include "wlp/support/prng.hpp"

namespace wlp {
namespace {

constexpr long kBig = 1L << 40;  // trip filter that keeps every mark

// ---- semantics shared by both marking policies ------------------------------
//
// Every test here runs against PDSharedShadow (atomic cells + striped locks)
// and PDPrivateShadow (per-worker plain-store segments): the verdicts — the
// PD test's observable behavior — must be identical.

template <class Shadow>
class PDShadowPolicy : public ::testing::Test {};

using ShadowPolicies = ::testing::Types<PDSharedShadow, PDPrivateShadow>;
TYPED_TEST_SUITE(PDShadowPolicy, ShadowPolicies);

// --- the paper's Figure 5 loops ---------------------------------------------

TYPED_TEST(PDShadowPolicy, Fig5a_ReadThenWriteSameIterationIsParallel) {
  // do i: A[i] = 2*A[i]  — loop-independent dependence only.
  TypeParam shadow(100);
  PDAccessorT<TypeParam> acc(shadow, 100);
  for (long i = 0; i < 100; ++i) {
    acc.begin_iteration(i);
    acc.on_read(static_cast<std::size_t>(i));   // exposed (read before write)
    acc.on_write(static_cast<std::size_t>(i));
  }
  const PDVerdict v = shadow.analyze_seq(kBig);
  EXPECT_EQ(v.conflicts, 0);
  EXPECT_EQ(v.multi_written, 0);
  EXPECT_TRUE(v.fully_parallel());
}

TYPED_TEST(PDShadowPolicy, Fig5b_PrivatizableTemporary) {
  // tmp = A[2i]; A[2i] = A[2i-1]; A[2i-1] = tmp — with tmp as a shared
  // location (slot 0): written then read each iteration -> reads are NOT
  // exposed, but the slot is written by many iterations (output deps).
  TypeParam shadow(1);
  PDAccessorT<TypeParam> acc(shadow, 1);
  for (long i = 0; i < 50; ++i) {
    acc.begin_iteration(i);
    acc.on_write(0);  // tmp = ...
    acc.on_read(0);   // ... = tmp  (covered by the same-iteration write)
  }
  const PDVerdict v = shadow.analyze_seq(kBig);
  EXPECT_EQ(v.conflicts, 0);
  EXPECT_EQ(v.multi_written, 1);
  EXPECT_FALSE(v.fully_parallel());
  EXPECT_TRUE(v.parallel_with_privatization());
}

TYPED_TEST(PDShadowPolicy, Fig5c_CrossIterationFlowFails) {
  // A[i] = A[i] + A[i-1]: iteration i exposed-reads A[i-1], written by i-1.
  TypeParam shadow(100);
  PDAccessorT<TypeParam> acc(shadow, 100);
  for (long i = 1; i < 100; ++i) {
    acc.begin_iteration(i);
    acc.on_read(static_cast<std::size_t>(i));
    acc.on_read(static_cast<std::size_t>(i - 1));
    acc.on_write(static_cast<std::size_t>(i));
  }
  const PDVerdict v = shadow.analyze_seq(kBig);
  EXPECT_GT(v.conflicts, 0);
  EXPECT_FALSE(v.parallel_with_privatization());
}

// --- overshoot filtering (the WHILE-loop extension) -------------------------

TYPED_TEST(PDShadowPolicy, MarksFromOvershotIterationsAreIgnored) {
  TypeParam shadow(10);
  PDAccessorT<TypeParam> acc(shadow, 10);
  // Valid region (iter < 5): element 0 written once by iteration 2.
  acc.begin_iteration(2);
  acc.on_write(0);
  // Overshoot: iteration 7 exposed-reads and re-writes element 0 — would be
  // both a flow and an output dependence if it counted.
  acc.begin_iteration(7);
  acc.on_read(0);
  acc.on_write(0);

  const PDVerdict full = shadow.analyze_seq(kBig);
  EXPECT_GT(full.conflicts, 0);

  const PDVerdict filtered = shadow.analyze_seq(5);
  EXPECT_EQ(filtered.conflicts, 0);
  EXPECT_EQ(filtered.multi_written, 0);
  EXPECT_EQ(filtered.written_elements, 1);
  // The overshot write still matters to the undo: element 0's stamp names
  // iteration 7, so undoing it would lose iteration 2's valid value.  The
  // element is straddled and the strict verdict rejects the run; the
  // privatized copy-out keeps the last valid writer and is unaffected.
  EXPECT_EQ(filtered.straddled, 1);
  EXPECT_FALSE(filtered.fully_parallel());
  EXPECT_TRUE(filtered.parallel_with_privatization());
}

TYPED_TEST(PDShadowPolicy, TwoSmallestWritersSurviveFiltering) {
  TypeParam shadow(1);
  shadow.mark_write(9, 0);
  shadow.mark_write(4, 0);
  shadow.mark_write(6, 0);
  shadow.mark_write(2, 0);
  EXPECT_EQ(shadow.first_writer(0), 2);
  EXPECT_EQ(shadow.second_writer(0), 4);
  // trip = 5: writers {2, 4} -> output dependence among valid iterations.
  EXPECT_EQ(shadow.analyze_seq(5).multi_written, 1);
  // trip = 3: only writer 2 counts.
  EXPECT_EQ(shadow.analyze_seq(3).multi_written, 0);
  EXPECT_EQ(shadow.analyze_seq(3).written_elements, 1);
}

TYPED_TEST(PDShadowPolicy, ConflictNeedsDistinctIterations) {
  TypeParam shadow(1);
  // Writer 3, exposed reader 3 (same iteration), another reader 8 (overshot).
  shadow.mark_write(3, 0);
  shadow.mark_exposed_read(3, 0);
  shadow.mark_exposed_read(8, 0);
  EXPECT_EQ(shadow.analyze_seq(5).conflicts, 0);  // reader 8 filtered
  EXPECT_GT(shadow.analyze_seq(9).conflicts, 0);  // reader 8 counts: 8 != 3
}

TYPED_TEST(PDShadowPolicy, TwoReadersOneWriterConflicts) {
  TypeParam shadow(1);
  shadow.mark_write(3, 0);
  shadow.mark_exposed_read(3, 0);
  shadow.mark_exposed_read(4, 0);
  EXPECT_GT(shadow.analyze_seq(kBig).conflicts, 0);
}

TYPED_TEST(PDShadowPolicy, DuplicateMarksFromOneIterationCollapse) {
  TypeParam shadow(1);
  for (int k = 0; k < 10; ++k) shadow.mark_write(5, 0);
  EXPECT_EQ(shadow.first_writer(0), 5);
  EXPECT_EQ(shadow.second_writer(0), -1);
  EXPECT_EQ(shadow.analyze_seq(kBig).multi_written, 0);
}

TYPED_TEST(PDShadowPolicy, ResetClearsEverything) {
  TypeParam shadow(4);
  shadow.mark_write(1, 2);
  shadow.mark_exposed_read(3, 2);
  shadow.reset();
  EXPECT_EQ(shadow.first_writer(2), -1);
  EXPECT_EQ(shadow.first_exposed_reader(2), -1);
  EXPECT_EQ(shadow.analyze_seq(kBig).written_elements, 0);
}

TYPED_TEST(PDShadowPolicy, MarksAfterResetStartFresh) {
  TypeParam shadow(2);
  shadow.mark_write(7, 0);
  shadow.mark_exposed_read(9, 1);
  shadow.reset();
  // New marks after the reset must not merge with pre-reset state — epoch
  // staleness (privatized) must behave exactly like the O(n) wipe (shared).
  shadow.mark_write(3, 0);
  EXPECT_EQ(shadow.first_writer(0), 3);
  EXPECT_EQ(shadow.second_writer(0), -1);
  EXPECT_EQ(shadow.first_exposed_reader(1), -1);
  const PDVerdict v = shadow.analyze_seq(kBig);
  EXPECT_EQ(v.written_elements, 1);
  EXPECT_EQ(v.exposed_read_elements, 0);
}

TYPED_TEST(PDShadowPolicy, ParallelAnalysisMatchesSequential) {
  ThreadPool pool(4);
  TypeParam shadow(5000, pool.size());
  Xoshiro256 rng(31);
  for (int k = 0; k < 20000; ++k) {
    const auto idx = static_cast<std::size_t>(rng.below(5000));
    const long iter = static_cast<long>(rng.below(1000));
    if (rng.chance(0.5))
      shadow.mark_write(iter, idx);
    else
      shadow.mark_exposed_read(iter, idx);
  }
  for (long trip : {0L, 100L, 500L, 1000L}) {
    const PDVerdict s = shadow.analyze_seq(trip);
    const PDVerdict p = shadow.analyze(pool, trip);
    EXPECT_EQ(s.written_elements, p.written_elements);
    EXPECT_EQ(s.multi_written, p.multi_written);
    EXPECT_EQ(s.exposed_read_elements, p.exposed_read_elements);
    EXPECT_EQ(s.conflicts, p.conflicts);
  }
}

TYPED_TEST(PDShadowPolicy, AccessorExposureResetsPerIteration) {
  TypeParam shadow(2);
  PDAccessorT<TypeParam> acc(shadow, 2);
  acc.begin_iteration(0);
  acc.on_write(1);
  acc.on_read(1);  // covered
  acc.begin_iteration(1);
  acc.on_read(1);  // exposed: iteration 1 did not write slot 1 yet
  EXPECT_EQ(shadow.first_exposed_reader(1), 1);
}

TYPED_TEST(PDShadowPolicy, AccessorResetInvalidatesLastWriteTable) {
  // Two runs of the "same loop" against one reused (accessor, shadow) pair.
  // Without the generation stamp the second run's read of slot 0 at
  // iteration 4 would be suppressed by the FIRST run's write stamp — hiding
  // a genuine exposed read.
  TypeParam shadow(1);
  PDAccessorT<TypeParam> acc(shadow, 1);
  acc.begin_iteration(4);
  acc.on_write(0);

  shadow.reset();
  acc.reset();

  acc.begin_iteration(4);
  acc.on_read(0);  // nothing written this run: exposed
  EXPECT_EQ(shadow.first_exposed_reader(0), 4);
}

TYPED_TEST(PDShadowPolicy, AccessorCountsMarks) {
  TypeParam shadow(8);
  PDAccessorT<TypeParam> acc(shadow, 8);
  acc.begin_iteration(0);
  acc.on_write(3);  // mark
  acc.on_read(3);   // covered: no mark
  acc.on_read(4);   // mark
  EXPECT_EQ(acc.marks(), 2);
  acc.reset();
  EXPECT_EQ(acc.marks(), 0);
}

// ---- shared-policy specifics ------------------------------------------------

TEST(PDSharedShadow, ConcurrentMarkingKeepsTwoSmallest) {
  ThreadPool pool(8);
  PDSharedShadow shadow(1);
  doall(pool, 0, 1000, [&](long i, unsigned) { shadow.mark_write(i, 0); });
  EXPECT_EQ(shadow.first_writer(0), 0);
  EXPECT_EQ(shadow.second_writer(0), 1);
}

TEST(PDSharedShadow, MonotoneHiFastPathStaysExact) {
  // In-order marking arms the documented early exit (lo and hi full, iter >
  // hi skips the lock); a later out-of-order smaller iteration must still
  // displace correctly.
  PDSharedShadow shadow(1);
  for (long i = 10; i < 200; ++i) shadow.mark_write(i, 0);  // fast path for i>11
  EXPECT_EQ(shadow.first_writer(0), 10);
  EXPECT_EQ(shadow.second_writer(0), 11);
  shadow.mark_write(3, 0);  // smaller than both: takes the slow path
  EXPECT_EQ(shadow.first_writer(0), 3);
  EXPECT_EQ(shadow.second_writer(0), 10);
  shadow.mark_write(7, 0);  // between the two
  EXPECT_EQ(shadow.first_writer(0), 3);
  EXPECT_EQ(shadow.second_writer(0), 7);
}

TEST(PDSharedShadow, ResetPaysOneSweepPerCall) {
  PDSharedShadow shadow(64);
  for (int k = 0; k < 5; ++k) shadow.reset();
  EXPECT_EQ(shadow.stats().resets, 5);
  EXPECT_EQ(shadow.stats().cell_sweeps, 5);  // the O(n) cost being replaced
}

// ---- privatized-policy specifics --------------------------------------------

TEST(PDPrivateShadow, MergesMarksAcrossWorkerSegments) {
  PDPrivateShadow shadow(2, /*workers=*/4);
  // The two smallest writers of slot 0 live in DIFFERENT segments.
  shadow.mark_write(0u, 9, 0);
  shadow.mark_write(1u, 4, 0);
  shadow.mark_write(2u, 6, 0);
  shadow.mark_write(3u, 2, 0);
  EXPECT_EQ(shadow.first_writer(0), 2);
  EXPECT_EQ(shadow.second_writer(0), 4);
  // Duplicate iteration from two workers collapses in the merge.
  shadow.mark_exposed_read(0u, 5, 1);
  shadow.mark_exposed_read(1u, 5, 1);
  EXPECT_EQ(shadow.first_exposed_reader(1), 5);
  EXPECT_EQ(shadow.second_exposed_reader(1), -1);
  EXPECT_EQ(shadow.analyze_seq(kBig).multi_written, 1);
}

TEST(PDPrivateShadow, VerdictMatchesSharedUnderSplitMarking) {
  // The same random mark stream, routed to the shared store and scattered
  // round-robin across the privatized segments, must yield equal verdicts.
  ThreadPool pool(4);
  const std::size_t n = 512;
  PDSharedShadow shared(n);
  PDPrivateShadow priv(n, 4);
  Xoshiro256 rng(77);
  for (int k = 0; k < 5000; ++k) {
    const auto idx = static_cast<std::size_t>(rng.below(n));
    const long iter = static_cast<long>(rng.below(300));
    const unsigned vpn = static_cast<unsigned>(k % 4);
    if (rng.chance(0.5)) {
      shared.mark_write(iter, idx);
      priv.mark_write(vpn, iter, idx);
    } else {
      shared.mark_exposed_read(iter, idx);
      priv.mark_exposed_read(vpn, iter, idx);
    }
  }
  for (long trip : {0L, 50L, 150L, 300L}) {
    const PDVerdict a = shared.analyze(pool, trip);
    const PDVerdict b = priv.analyze(pool, trip);
    EXPECT_EQ(a.written_elements, b.written_elements) << trip;
    EXPECT_EQ(a.multi_written, b.multi_written) << trip;
    EXPECT_EQ(a.exposed_read_elements, b.exposed_read_elements) << trip;
    EXPECT_EQ(a.conflicts, b.conflicts) << trip;
  }
}

TEST(PDPrivateShadow, SegmentsAreLazyAndPooled) {
  PDPrivateShadow shadow(1024, /*workers=*/8);
  EXPECT_EQ(shadow.stats().segment_allocs, 0);  // nothing until first mark
  shadow.mark_write(2u, 1, 0);
  shadow.mark_write(2u, 2, 7);
  EXPECT_EQ(shadow.stats().segment_allocs, 1);  // only vpn 2's segment
  shadow.mark_write(5u, 1, 3);
  EXPECT_EQ(shadow.stats().segment_allocs, 2);
  // Resets reuse the pooled segments: no re-allocation, ever.
  for (int round = 0; round < 100; ++round) {
    shadow.reset();
    shadow.mark_write(2u, round, 0);
    shadow.mark_write(5u, round, 3);
  }
  EXPECT_EQ(shadow.stats().segment_allocs, 2);
  EXPECT_EQ(shadow.stats().cell_sweeps, 0);  // reset never sweeps
  EXPECT_EQ(shadow.stats().resets, 100);
}

TEST(PDPrivateShadow, StaleSegmentFromEarlierEpochIsInvisible) {
  PDPrivateShadow shadow(4, /*workers=*/2);
  shadow.mark_write(0u, 1, 2);
  shadow.mark_write(1u, 3, 2);
  shadow.reset();
  // Only worker 0 marks this epoch; worker 1's segment holds stale cells.
  shadow.mark_write(0u, 8, 2);
  EXPECT_EQ(shadow.first_writer(2), 8);
  EXPECT_EQ(shadow.second_writer(2), -1);
  EXPECT_EQ(shadow.analyze_seq(kBig).multi_written, 0);
}

// ---- the satellite regression: no O(n) cost per retry ----------------------

TEST(PDPrivateShadow, HundredStripRetriesPayNoPerRetryAllocationsOrFills) {
  // Models 100 short strip retries against one pooled (shadow, accessors)
  // set, as the strip/run-twice/window drivers do via reset_marks().  The
  // seed paid: O(n) shadow sweep per retry + O(n) last-write zero-fill per
  // (array, worker, run).  The epoch scheme must pay neither.
  const std::size_t n = 4096;
  const unsigned workers = 4;
  PDPrivateShadow shadow(n, workers);
  std::vector<PDPrivateAccessor> accs;
  for (unsigned w = 0; w < workers; ++w) accs.emplace_back(shadow, n, w);

  for (int strip = 0; strip < 100; ++strip) {
    shadow.reset();
    for (auto& a : accs) a.reset();
    // A short strip touches a handful of elements per worker.
    for (unsigned w = 0; w < workers; ++w) {
      accs[w].begin_iteration(strip * 4 + w);
      accs[w].on_write((static_cast<std::size_t>(strip) * 7 + w) % n);
      accs[w].on_read((static_cast<std::size_t>(strip) * 13 + w) % n);
    }
    const PDVerdict v = shadow.analyze_seq(kBig);
    EXPECT_LE(v.written_elements, static_cast<long>(workers));
  }

  const PDShadowStats st = shadow.stats();
  EXPECT_EQ(st.resets, 100);
  EXPECT_EQ(st.cell_sweeps, 0);                          // no O(n) resets
  EXPECT_EQ(st.segment_allocs, static_cast<long>(workers));  // one-time
  for (auto& a : accs) EXPECT_EQ(a.fills(), 1);          // construction only
}

}  // namespace
}  // namespace wlp
