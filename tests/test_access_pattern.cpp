// Trip-aligned siblings over one AccessPattern: one stamp index, one PD
// shadow and one set of accessors for arrays written through the same
// subscript.  Sharing must never let a dependent loop pass, must keep the
// final state equal to the sequential loop's, and must pay each mark and
// each analysis once.
#include <gtest/gtest.h>

#include <span>
#include <vector>

#include "wlp/core/speculative.hpp"
#include "wlp/pd/verdict_cache.hpp"
#include "wlp/workloads/track.hpp"

namespace wlp {
namespace {

TEST(AccessPattern, TrackSpeculativeEqualsSequential) {
  for (unsigned p : {1u, 2u, 4u}) {
    ThreadPool pool(p);
    for (std::uint64_t seed : {3ull, 11ull, 29ull, 101ull}) {
      const workloads::TrackLoop loop(workloads::TrackConfig{4000, 0.9, seed});
      std::vector<double> spos = loop.fresh_positions();
      std::vector<double> svel = loop.fresh_velocities();
      const long seq_trip = loop.run_sequential(spos, svel);

      std::vector<double> pos = loop.fresh_positions();
      std::vector<double> vel = loop.fresh_velocities();
      const ExecReport r = loop.run_speculative(pool, pos, vel);
      EXPECT_EQ(r.trip, seq_trip) << "p=" << p << " seed=" << seed;
      EXPECT_TRUE(r.pd_passed) << "p=" << p << " seed=" << seed;
      EXPECT_EQ(pos, spos) << "p=" << p << " seed=" << seed;
      EXPECT_EQ(vel, svel) << "p=" << p << " seed=" << seed;
    }
  }
}

TEST(AccessPattern, TrackCountsEachMarkOnce) {
  // Every TRACK iteration but the exit writes pos[sub[i]] and vel[sub[i]];
  // the pair shares one accessor, so each such iteration is one write mark.
  ThreadPool pool(4);
  const workloads::TrackLoop loop(workloads::TrackConfig{4000, 0.9, 5});
  std::vector<double> pos = loop.fresh_positions();
  std::vector<double> vel = loop.fresh_velocities();
  const ExecReport r = loop.run_speculative(pool, pos, vel);
  ASSERT_TRUE(r.pd_passed);
  EXPECT_EQ(r.shadow_marks, r.started - 1);  // the exit iteration stores nothing
}

TEST(AccessPattern, SiblingFlowDependenceFailsTheRound) {
  // The owner scatters through a permutation; only the sibling, through a
  // different subscript, carries a flow dependence (B[i] = B[i-1] + 1).  The
  // shared shadow marks the union of both patterns and must still reject it.
  const long n = 600;
  for (unsigned p : {1u, 4u}) {
    ThreadPool pool(p);
    SpecArray<double> a(std::vector<double>(static_cast<std::size_t>(n), 0.0),
                        pool.size(), /*run_pd_test=*/true);
    SpecArray<double> b(std::vector<double>(static_cast<std::size_t>(n), 0.0),
                        a.shared_pattern());
    SpecTarget* targets[] = {&a, &b};

    const ExecReport r = speculative_while(
        pool, n, std::span<SpecTarget* const>(targets, 2),
        [&](long i, unsigned vpn) {
          a.begin_iteration(vpn, i);
          a.set(vpn, i, static_cast<std::size_t>((i * 7) % n), 1.0);
          if (i > 0) {
            const double prev = b.get(vpn, static_cast<std::size_t>(i - 1));
            b.set(vpn, i, static_cast<std::size_t>(i), prev + 1.0);
          }
          return IterAction::kContinue;
        },
        [&] {
          for (long i = 0; i < n; ++i) {
            a.data()[static_cast<std::size_t>((i * 7) % n)] = 1.0;
            if (i > 0)
              b.data()[static_cast<std::size_t>(i)] =
                  b.data()[static_cast<std::size_t>(i - 1)] + 1.0;
          }
          return n;
        });

    EXPECT_TRUE(r.pd_tested) << "p=" << p;
    EXPECT_FALSE(r.pd_passed) << "p=" << p;
    EXPECT_TRUE(r.reexecuted_sequentially) << "p=" << p;
    for (long i = 0; i < n; ++i) {
      ASSERT_EQ(a.data()[static_cast<std::size_t>(i)], 1.0) << i;
      ASSERT_EQ(b.data()[static_cast<std::size_t>(i)], static_cast<double>(i))
          << i;
    }
  }
}

TEST(AccessPattern, SharedShadowIsAnalysedOncePerRound) {
  // Two siblings over one pattern plus an array with its own: the round
  // probes the verdict cache once per distinct shadow, i.e. twice.
  ThreadPool pool(2);
  const long n = 2048, exit_at = 1500;
  SpecArray<double> a(std::vector<double>(static_cast<std::size_t>(n), 0.0),
                      pool.size(), /*run_pd_test=*/true);
  SpecArray<double> b(std::vector<double>(static_cast<std::size_t>(n), 0.0),
                      a.shared_pattern());
  SpecArray<double> c(std::vector<double>(static_cast<std::size_t>(n), 0.0),
                      pool.size(), /*run_pd_test=*/true);
  SpecTarget* targets[] = {&a, &b, &c};
  SpecTransaction txn(std::span<SpecTarget* const>(targets, 3));
  EXPECT_EQ(txn.shadowed_targets().size(), 2u);
  EXPECT_EQ(txn.shared_groups(), 2u);

  pdcache::VerdictCache cache;
  SpecOptions opts;
  opts.verdict_cache = &cache;
  const ExecReport r = speculative_while(
      pool, n, std::span<SpecTarget* const>(targets, 3),
      [&](long i, unsigned vpn) {
        a.begin_iteration(vpn, i);
        c.begin_iteration(vpn, i);
        if (i == exit_at) return IterAction::kExit;
        const auto idx = static_cast<std::size_t>(i);
        a.set(vpn, i, idx, 1.0);
        b.set(vpn, i, idx, 2.0);
        c.set(vpn, i, static_cast<std::size_t>(n - 1 - i), 3.0);
        return IterAction::kContinue;
      },
      [&] { return exit_at; }, opts);

  ASSERT_TRUE(r.pd_passed);
  EXPECT_EQ(r.verdict_probes, 2);
  for (long i = 0; i < n; ++i) {
    const auto idx = static_cast<std::size_t>(i);
    ASSERT_EQ(a.data()[idx], i < exit_at ? 1.0 : 0.0) << i;
    ASSERT_EQ(b.data()[idx], i < exit_at ? 2.0 : 0.0) << i;
    ASSERT_EQ(c.data()[static_cast<std::size_t>(n - 1 - i)],
              i < exit_at ? 3.0 : 0.0)
        << i;
  }
}

TEST(AccessPattern, SiblingsShareOneShadowAndOneIndex) {
  ThreadPool pool(2);
  const std::size_t n = 1024;
  SpecArray<double> a(std::vector<double>(n, 0.0), pool.size(), true);
  SpecArray<long> b(std::vector<long>(n, 0), a.shared_pattern());
  EXPECT_EQ(a.shadow_key(), b.shadow_key());
  EXPECT_EQ(a.txn_index(), b.txn_index());
  EXPECT_TRUE(b.shadowed());

  // One iteration writing both siblings at one element is one mark.
  SpecTarget* targets[] = {&a, &b};
  SpecTransaction txn(std::span<SpecTarget* const>(targets, 2));
  txn.begin(nullptr);
  a.begin_iteration(0, 4);
  a.set(0, 4, 9, 1.0);
  b.set(0, 4, 9, 7);
  b.set(0, 4, 9, 8);  // a repeated write by the same iteration: no new mark
  EXPECT_EQ(txn.marks(), 1);
  EXPECT_TRUE(a.analyze(pool, 5).fully_parallel());
  EXPECT_EQ(a.analyze(pool, 5).written_elements, 1);
}

}  // namespace
}  // namespace wlp
