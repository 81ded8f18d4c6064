#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <set>
#include <vector>

#include "wlp/sched/doall.hpp"

namespace wlp {
namespace {

struct DoallSchedCase {
  Sched sched;
  long chunk;
  const char* name;
};

class DoallAllSchedules : public ::testing::TestWithParam<DoallSchedCase> {};

TEST_P(DoallAllSchedules, PlainDoallCoversRangeExactlyOnce) {
  ThreadPool pool(4);
  const long n = 1000;
  std::vector<std::atomic<int>> hits(n);
  DoallOptions opts;
  opts.sched = GetParam().sched;
  opts.chunk = GetParam().chunk;
  doall(pool, 0, n, [&](long i, unsigned) { hits[static_cast<std::size_t>(i)]++; },
        opts);
  for (long i = 0; i < n; ++i) EXPECT_EQ(hits[static_cast<std::size_t>(i)].load(), 1);
}

TEST_P(DoallAllSchedules, QuitTripIsExactAndPrefixComplete) {
  ThreadPool pool(4);
  const long n = 2000;
  const long exit_at = 777;
  std::vector<std::atomic<int>> hits(n);
  DoallOptions opts;
  opts.sched = GetParam().sched;
  opts.chunk = GetParam().chunk;
  const QuitResult qr = doall_quit(
      pool, 0, n,
      [&](long i, unsigned) {
        hits[static_cast<std::size_t>(i)]++;
        return i >= exit_at ? IterAction::kExit : IterAction::kContinue;
      },
      opts);
  EXPECT_EQ(qr.trip, exit_at);
  // Every iteration below the trip count must have executed exactly once.
  for (long i = 0; i < exit_at; ++i)
    EXPECT_EQ(hits[static_cast<std::size_t>(i)].load(), 1) << "iteration " << i;
  // No iteration ran twice.
  long started = 0;
  for (long i = 0; i < n; ++i) {
    EXPECT_LE(hits[static_cast<std::size_t>(i)].load(), 1);
    started += hits[static_cast<std::size_t>(i)].load();
  }
  EXPECT_EQ(started, qr.started);
}

INSTANTIATE_TEST_SUITE_P(
    Schedules, DoallAllSchedules,
    ::testing::Values(DoallSchedCase{Sched::kDynamic, kSelfSizedClaims, "dyn_self"},
                      DoallSchedCase{Sched::kDynamic, 1, "dyn1"},
                      DoallSchedCase{Sched::kDynamic, 16, "dyn16"},
                      DoallSchedCase{Sched::kStaticCyclic, 1, "cyclic"},
                      DoallSchedCase{Sched::kStaticBlock, 1, "block"},
                      DoallSchedCase{Sched::kGuided, 1, "guided1"},
                      DoallSchedCase{Sched::kGuided, 8, "guided8"}),
    [](const auto& info) { return info.param.name; });

// Guided self-scheduling must deliver identical semantics to kDynamic (the
// parameterized suite above covers trip/coverage/QUIT) while touching the
// shared iteration counter geometrically fewer times.
TEST(DoallGuided, ClaimsFarFewerChunksThanDynamic) {
  ThreadPool pool(4);
  const long n = 20000;
  auto count_claims = [&](Sched sched) {
    DoallOptions opts;
    opts.sched = sched;
    opts.chunk = 1;
    const QuitResult qr = doall_quit(
        pool, 0, n, [](long, unsigned) { return IterAction::kContinue; }, opts);
    EXPECT_EQ(qr.trip, n);
    EXPECT_EQ(qr.started, n);
    return qr.claims;
  };
  const long dynamic_claims = count_claims(Sched::kDynamic);
  const long guided_claims = count_claims(Sched::kGuided);
  EXPECT_EQ(dynamic_claims, n);  // chunk 1: one claim per iteration
  EXPECT_GT(guided_claims, 0);
  // Guided claim count is O(p log(n/p)) — orders of magnitude below n.
  EXPECT_LT(guided_claims, n / 20);
}

TEST(DoallGuided, ChunkFloorBoundsClaimSize) {
  ThreadPool pool(4);
  const long n = 1000;
  DoallOptions opts;
  opts.sched = Sched::kGuided;
  opts.chunk = 64;  // floor: tail grabs never shrink below this
  std::atomic<long> ran{0};
  const QuitResult qr = doall_quit(
      pool, 0, n,
      [&](long, unsigned) {
        ran.fetch_add(1, std::memory_order_relaxed);
        return IterAction::kContinue;
      },
      opts);
  EXPECT_EQ(qr.trip, n);
  EXPECT_EQ(ran.load(), n);
  // With a floor of 64, at most ceil(1000/64) + p claims can happen.
  EXPECT_LE(qr.claims, n / 64 + 1 + 4);
}

TEST(DoallGuided, QuitCutsOvershootMidChunk) {
  ThreadPool pool(4);
  const long n = 100000;
  DoallOptions opts;
  opts.sched = Sched::kGuided;
  const QuitResult qr = doall_quit(
      pool, 0, n,
      [](long i, unsigned) {
        return i == 10 ? IterAction::kExit : IterAction::kContinue;
      },
      opts);
  EXPECT_EQ(qr.trip, 10);
  // The first grabs are ~n/p iterations, but the in-chunk cut must stop
  // them soon after the QUIT lands — the whole range must not execute.
  EXPECT_LT(qr.started, n / 2);
}

TEST(DoallQuit, ExitAfterCountsTheIteration) {
  ThreadPool pool(4);
  const QuitResult qr = doall_quit(pool, 0, 100, [&](long i, unsigned) {
    return i == 40 ? IterAction::kExitAfter : IterAction::kContinue;
  });
  EXPECT_EQ(qr.trip, 41);
}

TEST(DoallQuit, MinimumOfMultipleExitsWins) {
  ThreadPool pool(8);
  const QuitResult qr = doall_quit(pool, 0, 500, [&](long i, unsigned) {
    if (i == 200 || i == 150 || i == 420) return IterAction::kExit;
    return IterAction::kContinue;
  });
  EXPECT_EQ(qr.trip, 150);
}

TEST(DoallQuit, NoExitMeansTripIsUpperBound) {
  ThreadPool pool(4);
  const QuitResult qr =
      doall_quit(pool, 0, 321, [](long, unsigned) { return IterAction::kContinue; });
  EXPECT_EQ(qr.trip, 321);
  EXPECT_EQ(qr.started, 321);
}

TEST(DoallQuit, EmptyRange) {
  ThreadPool pool(4);
  const QuitResult qr =
      doall_quit(pool, 0, 0, [](long, unsigned) { return IterAction::kExit; });
  EXPECT_EQ(qr.trip, 0);
  EXPECT_EQ(qr.started, 0);
}

TEST(DoallQuit, UseQuitFalseExecutesEverything) {
  ThreadPool pool(4);
  DoallOptions opts;
  opts.use_quit = false;
  const QuitResult qr = doall_quit(
      pool, 0, 300,
      [](long i, unsigned) {
        return i == 10 ? IterAction::kExit : IterAction::kContinue;
      },
      opts);
  EXPECT_EQ(qr.trip, 10);
  EXPECT_EQ(qr.started, 300);  // Induction-1: no QUIT hardware
}

TEST(DoallQuit, UseQuitTrueCutsOvershoot) {
  // Default options: self-sized claims start at one iteration and every
  // claim still checks the QUIT per iteration, so an early exit cuts the
  // range.
  ThreadPool pool(4);
  const QuitResult qr = doall_quit(pool, 0, 100000, [](long i, unsigned) {
    return i == 10 ? IterAction::kExit : IterAction::kContinue;
  });
  EXPECT_EQ(qr.trip, 10);
  // The cut must prevent the vast majority of the range from running.
  EXPECT_LT(qr.started, 1000);
}

TEST(DoallQuit, NonZeroLowerBound) {
  ThreadPool pool(4);
  std::atomic<long> sum{0};
  const QuitResult qr = doall_quit(pool, 100, 200, [&](long i, unsigned) {
    sum += i;
    return IterAction::kContinue;
  });
  EXPECT_EQ(qr.trip, 200);
  EXPECT_EQ(sum.load(), (100 + 199) * 100 / 2);
}

// Self-sized claims (DoallOptions{} default, sched/claim.hpp).  Bounds on
// claim counts are loose: claim sizes follow the clock, and the suite also
// runs under TSan on an oversubscribed host.

/// Deterministic RV exits: iteration i exits (before or after its work)
/// when a hash of (seed, i) lands in a 1-in-`rate` bucket.
IterAction random_exit(std::uint64_t seed, long i, long rate) {
  std::uint64_t x = seed * 0x9e3779b97f4a7c15ULL + static_cast<std::uint64_t>(i);
  x ^= x >> 31;
  x *= 0xbf58476d1ce4e5b9ULL;
  x ^= x >> 29;
  if (x % static_cast<std::uint64_t>(rate) != 0) return IterAction::kContinue;
  return (x >> 40) & 1 ? IterAction::kExitAfter : IterAction::kExit;
}

/// Spin for about `us` microseconds (an iteration far above a claim's cost).
void spin_us(long us) {
  const auto until = std::chrono::steady_clock::now() + std::chrono::microseconds(us);
  while (std::chrono::steady_clock::now() < until) {
  }
}

TEST(DoallSelfSized, RandomExitsKeepTripAndExecuteOnce) {
  const long n = 20000;
  for (unsigned p : {1u, 2u, 4u, 8u}) {
    ThreadPool pool(p);
    for (std::uint64_t seed = 1; seed <= 6; ++seed) {
      long expect = n;
      for (long i = 0; i < n && expect == n; ++i) {
        const IterAction a = random_exit(seed, i, 4000);
        if (a == IterAction::kExit) expect = i;
        if (a == IterAction::kExitAfter) expect = i + 1;
      }
      std::vector<std::atomic<int>> hits(n);
      const QuitResult qr = doall_quit(pool, 0, n, [&](long i, unsigned) {
        hits[static_cast<std::size_t>(i)]++;
        return random_exit(seed, i, 4000);
      });
      ASSERT_EQ(qr.trip, expect) << "p=" << p << " seed=" << seed;
      long started = 0;
      for (long i = 0; i < n; ++i) {
        const int h = hits[static_cast<std::size_t>(i)].load();
        if (i < expect) {
          ASSERT_EQ(h, 1) << "p=" << p << " iteration " << i;
        }
        ASSERT_LE(h, 1);
        started += h;
      }
      EXPECT_EQ(started, qr.started);
    }
  }
}

TEST(DoallSelfSized, CheapLoopClaimsFarFewerThanIterations) {
  ThreadPool pool(4);
  const long n = 1L << 18;
  std::vector<std::uint64_t> sink(4 * 8, 0);
  const QuitResult qr = doall_quit(pool, 0, n, [&](long i, unsigned vpn) {
    sink[vpn * 8] += static_cast<std::uint64_t>(i);
    return IterAction::kContinue;
  });
  EXPECT_EQ(qr.started, n);
  EXPECT_GT(qr.claims, 0);
  EXPECT_LT(qr.claims, n / 64);
}

TEST(DoallSelfSized, SlowBodyStaysNearOneIterationPerClaim) {
  ThreadPool pool(4);
  const long n = 120;
  const QuitResult qr = doall_quit(pool, 0, n, [](long, unsigned) {
    spin_us(50);
    return IterAction::kContinue;
  });
  EXPECT_EQ(qr.started, n);
  // 50 us per iteration is above the claim target, so claims never grow.
  EXPECT_GE(qr.claims, n * 3 / 4);
}

TEST(DoallSelfSized, ExplicitChunkKeepsFixedClaims) {
  ThreadPool pool(4);
  const long n = 1000;
  DoallOptions opts;
  opts.chunk = 16;
  const QuitResult qr = doall_quit(
      pool, 0, n, [](long, unsigned) { return IterAction::kContinue; }, opts);
  EXPECT_EQ(qr.started, n);
  EXPECT_EQ(qr.claims, (n + 15) / 16);
}

TEST(QuitBound, FetchMinSemantics) {
  QuitBound q;
  EXPECT_FALSE(q.cut(1000000));
  q.quit(50);
  q.quit(70);
  q.quit(20);
  EXPECT_EQ(q.bound(), 20);
  EXPECT_TRUE(q.cut(20));
  EXPECT_TRUE(q.cut(21));
  EXPECT_FALSE(q.cut(19));
}

}  // namespace
}  // namespace wlp
