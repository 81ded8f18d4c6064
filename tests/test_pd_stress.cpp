// Concurrency stress for the PD shadow policies, written to run under TSan
// (the CI TSan job includes these suites): concurrent mark_write /
// mark_exposed_read streams, the parallel analyze() merge, and epoch resets
// interleaved across rounds.  Each round's verdict is checked against a
// sequentially-built reference, so the tests catch both races (TSan) and
// lost/duplicated marks (the equality checks).
#include <gtest/gtest.h>

#include <cstddef>
#include <vector>

#include "wlp/core/shadow.hpp"
#include "wlp/sched/thread_pool.hpp"
#include "wlp/support/prng.hpp"

namespace wlp {
namespace {

struct Mark {
  bool write;
  long iter;
  std::size_t idx;
};

/// Deterministic per-worker mark stream.  The tail marks ascending
/// iterations into one shared cell, which is exactly what arms the
/// monotone-`hi` fast-path early exit in PDSharedShadow::insert once both
/// slots fill — the stress must cover that racy two-load shortcut.
std::vector<Mark> stream_for(unsigned vpn, std::size_t n, int round) {
  std::vector<Mark> ms;
  Xoshiro256 rng(1000 * (vpn + 1) + static_cast<unsigned>(round));
  for (int k = 0; k < 2000; ++k) {
    ms.push_back({rng.chance(0.5), static_cast<long>(rng.below(500)),
                  static_cast<std::size_t>(rng.below(n))});
  }
  for (long i = 0; i < 500; ++i) ms.push_back({true, i, 0});
  return ms;
}

void expect_equal(const PDVerdict& a, const PDVerdict& b, long trip) {
  EXPECT_EQ(a.written_elements, b.written_elements) << "trip " << trip;
  EXPECT_EQ(a.multi_written, b.multi_written) << "trip " << trip;
  EXPECT_EQ(a.exposed_read_elements, b.exposed_read_elements) << "trip " << trip;
  EXPECT_EQ(a.conflicts, b.conflicts) << "trip " << trip;
  EXPECT_EQ(a.straddled, b.straddled) << "trip " << trip;
}

TEST(PDSharedStress, ConcurrentMarkingAnalysisAndResetRounds) {
  ThreadPool pool(8);
  const std::size_t n = 256;
  PDSharedShadow shadow(n, pool.size());

  for (int round = 0; round < 10; ++round) {
    // All workers mark concurrently into the SAME cells (the shared policy
    // allows it), including the ascending same-cell tail that exercises the
    // monotone-hi fast path under contention.
    pool.parallel([&](unsigned vpn) {
      for (const Mark& m : stream_for(vpn, n, round)) {
        if (m.write)
          shadow.mark_write(vpn, m.iter, m.idx);
        else
          shadow.mark_exposed_read(vpn, m.iter, m.idx);
      }
    });

    // Reference: the union of all streams applied single-threaded.
    PDSharedShadow ref(n);
    for (unsigned vpn = 0; vpn < pool.size(); ++vpn)
      for (const Mark& m : stream_for(vpn, n, round)) {
        if (m.write)
          ref.mark_write(m.iter, m.idx);
        else
          ref.mark_exposed_read(m.iter, m.idx);
      }

    for (long trip : {100L, 500L}) {
      expect_equal(shadow.analyze(pool, trip), ref.analyze_seq(trip), trip);
    }
    EXPECT_EQ(shadow.first_writer(0), 0);  // the ascending tail's minimum
    EXPECT_EQ(shadow.second_writer(0), 1);
    shadow.reset();
  }
}

TEST(PDPrivateStress, ConcurrentPerWorkerMarkingAnalysisAndEpochResetRounds) {
  ThreadPool pool(8);
  const std::size_t n = 256;
  PDPrivateShadow shadow(n, pool.size());

  for (int round = 0; round < 10; ++round) {
    // Each worker marks ONLY under its own vpn — the privatized policy's
    // contract — so the plain stores are race-free by segment ownership;
    // TSan verifies that claim, including the lazy first-mark allocation
    // and the lazy stale-cell re-initialization after the epoch bump.
    pool.parallel([&](unsigned vpn) {
      for (const Mark& m : stream_for(vpn, n, round)) {
        if (m.write)
          shadow.mark_write(vpn, m.iter, m.idx);
        else
          shadow.mark_exposed_read(vpn, m.iter, m.idx);
      }
    });

    PDSharedShadow ref(n);
    for (unsigned vpn = 0; vpn < pool.size(); ++vpn)
      for (const Mark& m : stream_for(vpn, n, round)) {
        if (m.write)
          ref.mark_write(m.iter, m.idx);
        else
          ref.mark_exposed_read(m.iter, m.idx);
      }

    for (long trip : {100L, 500L}) {
      expect_equal(shadow.analyze(pool, trip), ref.analyze_seq(trip), trip);
      expect_equal(shadow.analyze_seq(trip), ref.analyze_seq(trip), trip);
    }
    EXPECT_EQ(shadow.first_writer(0), 0);
    EXPECT_EQ(shadow.second_writer(0), 1);
    shadow.reset();  // O(1) epoch bump between rounds
  }

  const PDShadowStats st = shadow.stats();
  EXPECT_EQ(st.cell_sweeps, 0);
  EXPECT_LE(st.segment_allocs, static_cast<long>(pool.size()));
}

TEST(PDPrivateStress, ConcurrentMarkingWithAccessorsMatchesReference) {
  // The full per-worker pipeline the speculative drivers run: accessor
  // exposure filtering feeding vpn-qualified marks, reused across epochs.
  ThreadPool pool(4);
  const std::size_t n = 128;
  PDPrivateShadow shadow(n, pool.size());
  std::vector<PDPrivateAccessor> accs;
  for (unsigned w = 0; w < pool.size(); ++w) accs.emplace_back(shadow, n, w);

  for (int round = 0; round < 20; ++round) {
    shadow.reset();
    for (auto& a : accs) a.reset();

    // Worker w owns iterations i with i % p == w (static cyclic).
    pool.parallel([&](unsigned vpn) {
      PDPrivateAccessor& acc = accs[vpn];
      for (long i = vpn; i < 200; i += static_cast<long>(pool.size())) {
        acc.begin_iteration(i);
        const auto idx = static_cast<std::size_t>((i * 17 + round) % n);
        acc.on_read(idx);       // exposed (no earlier write this iteration)
        acc.on_write(idx);
        acc.on_read(idx);       // covered
      }
    });

    // Same accesses, single-threaded, against the shared policy.
    PDSharedShadow ref(n);
    PDAccessor racc(ref, n);
    for (long i = 0; i < 200; ++i) {
      racc.begin_iteration(i);
      const auto idx = static_cast<std::size_t>((i * 17 + round) % n);
      racc.on_read(idx);
      racc.on_write(idx);
      racc.on_read(idx);
    }

    expect_equal(shadow.analyze(pool, 200), ref.analyze_seq(200), 200);
    long marks = 0;
    for (const auto& a : accs) marks += a.marks();
    EXPECT_EQ(marks, racc.marks());  // 2 per iteration (1 read + 1 write)
    EXPECT_EQ(marks, 400);
  }
  for (const auto& a : accs) EXPECT_EQ(a.fills(), 1);
}

}  // namespace
}  // namespace wlp
