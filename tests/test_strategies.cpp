#include <gtest/gtest.h>

#include <atomic>
#include <stdexcept>
#include <vector>

#include "wlp/core/strategies.hpp"

namespace wlp {
namespace {

TEST(StripMined, TripExactAndOvershootBoundedByStrip) {
  ThreadPool pool(4);
  const long u = 10000, strip = 128, exit_at = 5000;
  std::atomic<long> runs{0};
  const ExecReport r = strip_mined_while(pool, u, strip, [&](long i, unsigned) {
    runs.fetch_add(1);
    return i == exit_at ? IterAction::kExit : IterAction::kContinue;
  });
  EXPECT_EQ(r.method, Method::kStripMined);
  EXPECT_EQ(r.trip, exit_at);
  EXPECT_LE(r.overshot, strip);
  // Started: all complete strips + part of the exit strip.
  EXPECT_LE(r.started, ((exit_at / strip) + 1) * strip);
}

TEST(StripMinedTuned, CostModelScheduleRecoversExactTrip) {
  ThreadPool pool(4);
  const long u = 10000, strip = 512, exit_at = 4321;
  std::vector<std::atomic<int>> hit(u);
  const ExecReport r = strip_mined_while_tuned(
      pool, u, strip, /*expected_trip=*/4000.0, /*iter_cost_cv=*/0.0,
      [&](long i, unsigned) {
        hit[static_cast<std::size_t>(i)].fetch_add(1);
        return i == exit_at ? IterAction::kExit : IterAction::kContinue;
      });
  EXPECT_EQ(r.trip, exit_at);
  for (long i = 0; i < exit_at; ++i)
    ASSERT_EQ(hit[static_cast<std::size_t>(i)].load(), 1) << i;
  for (long i = 0; i < u; ++i) ASSERT_LE(hit[static_cast<std::size_t>(i)].load(), 1);
  EXPECT_LE(r.overshot, strip);
}

TEST(StripMinedTuned, UnknownTripStillCorrect) {
  ThreadPool pool(4);
  std::atomic<long> runs{0};
  const ExecReport r = strip_mined_while_tuned(
      pool, 2000, 256, /*expected_trip=*/0.0, /*iter_cost_cv=*/2.0,
      [&](long, unsigned) {
        runs.fetch_add(1);
        return IterAction::kContinue;
      });
  EXPECT_EQ(r.trip, 2000);
  EXPECT_EQ(runs.load(), 2000);
}

TEST(StripMined, NoExitRunsAllStrips) {
  ThreadPool pool(4);
  std::atomic<long> runs{0};
  const ExecReport r = strip_mined_while(pool, 1000, 64, [&](long, unsigned) {
    runs.fetch_add(1);
    return IterAction::kContinue;
  });
  EXPECT_EQ(r.trip, 1000);
  EXPECT_EQ(runs.load(), 1000);
}

TEST(StripMined, StripLargerThanRange) {
  ThreadPool pool(4);
  const ExecReport r = strip_mined_while(pool, 50, 1000, [&](long i, unsigned) {
    return i == 20 ? IterAction::kExit : IterAction::kContinue;
  });
  EXPECT_EQ(r.trip, 20);
}

TEST(StampThreshold, FromEstimateScalesByConfidence) {
  const StampThreshold t = StampThreshold::from_estimate(1000, 0.9);
  EXPECT_EQ(t.value, 900);
  EXPECT_FALSE(t.should_stamp(899));
  EXPECT_TRUE(t.should_stamp(900));
  EXPECT_TRUE(t.should_stamp(1500));
}

TEST(StatsEnhanced, GoodEstimateUndoesOnlyStampedTail) {
  ThreadPool pool(4);
  const long n = 2000, exit_at = 1900;
  SpecArray<double> arr(std::vector<double>(static_cast<std::size_t>(n), 0.0),
                        pool.size(), false);
  SpecTarget* targets[] = {&arr};
  const StampThreshold thr = StampThreshold::from_estimate(exit_at, 0.9);  // 1710

  // RV shape: the work (and its write) happens BEFORE the error is
  // detected, so overshot iterations really do write — and must be undone
  // through their stamps.
  const ExecReport r = stats_enhanced_while(
      pool, n, thr, std::span<SpecTarget* const>(targets, 1),
      [&](long i, unsigned vpn, bool stamped) {
        arr.begin_iteration(vpn, i);
        if (stamped) {
          arr.set(vpn, i, static_cast<std::size_t>(i), 1.0);
        } else {
          arr.data()[static_cast<std::size_t>(i)] = 1.0;  // unstamped fast path
        }
        return i == exit_at ? IterAction::kExitAfter : IterAction::kContinue;
      },
      [&] { return exit_at + 1; });

  EXPECT_FALSE(r.reexecuted_sequentially);
  EXPECT_EQ(r.trip, exit_at + 1);
  EXPECT_EQ(r.undone_writes, r.overshot);  // every overshot write undone
  for (long i = 0; i < n; ++i)
    EXPECT_EQ(arr.data()[static_cast<std::size_t>(i)], i <= exit_at ? 1.0 : 0.0) << i;
}

TEST(StatsEnhanced, BadEstimateFallsBackToSequential) {
  ThreadPool pool(4);
  const long n = 2000, exit_at = 100;  // far below the threshold
  SpecArray<double> arr(std::vector<double>(static_cast<std::size_t>(n), 0.0),
                        pool.size(), false);
  SpecTarget* targets[] = {&arr};
  const StampThreshold thr = StampThreshold::from_estimate(1900, 0.9);

  const ExecReport r = stats_enhanced_while(
      pool, n, thr, std::span<SpecTarget* const>(targets, 1),
      [&](long i, unsigned vpn, bool stamped) {
        arr.begin_iteration(vpn, i);
        if (i >= exit_at) return IterAction::kExit;
        if (stamped) {
          arr.set(vpn, i, static_cast<std::size_t>(i), 1.0);
        } else {
          arr.data()[static_cast<std::size_t>(i)] = 1.0;
        }
        return IterAction::kContinue;
      },
      [&] {
        for (long i = 0; i < exit_at; ++i)
          arr.data()[static_cast<std::size_t>(i)] = 1.0;
        return exit_at;
      });

  EXPECT_TRUE(r.reexecuted_sequentially);
  EXPECT_EQ(r.trip, exit_at);
  for (long i = 0; i < n; ++i)
    EXPECT_EQ(arr.data()[static_cast<std::size_t>(i)], i < exit_at ? 1.0 : 0.0) << i;
}

TEST(StatsEnhanced, ShadowedFlowDependenceFallsBack) {
  ThreadPool pool(4);
  const long n = 500;
  SpecArray<double> arr(std::vector<double>(static_cast<std::size_t>(n), 0.0),
                        pool.size(), /*run_pd_test=*/true);
  SpecTarget* targets[] = {&arr};

  // Threshold 0: every write is stamped and marked, so only the PD test can
  // catch the a[i] = a[i-1] + 1 chain.
  const ExecReport r = stats_enhanced_while(
      pool, n, StampThreshold{}, std::span<SpecTarget* const>(targets, 1),
      [&](long i, unsigned vpn, bool) {
        arr.begin_iteration(vpn, i);
        if (i == 0) return IterAction::kContinue;
        const double prev = arr.get(vpn, static_cast<std::size_t>(i - 1));
        arr.set(vpn, i, static_cast<std::size_t>(i), prev + 1.0);
        return IterAction::kContinue;
      },
      [&] {
        auto& d = arr.data();
        for (long i = 1; i < n; ++i)
          d[static_cast<std::size_t>(i)] = d[static_cast<std::size_t>(i - 1)] + 1.0;
        return n;
      });

  EXPECT_TRUE(r.pd_tested);
  EXPECT_FALSE(r.pd_passed);
  EXPECT_TRUE(r.reexecuted_sequentially);
  EXPECT_EQ(r.trip, n);
  for (long i = 0; i < n; ++i)
    ASSERT_EQ(arr.data()[static_cast<std::size_t>(i)], static_cast<double>(i)) << i;
}

TEST(StatsEnhanced, ExceptionRestoresAndReexecutes) {
  ThreadPool pool(4);
  const long n = 500, throw_at = 250;
  SpecArray<double> arr(std::vector<double>(static_cast<std::size_t>(n), 0.0),
                        pool.size(), false);
  SpecTarget* targets[] = {&arr};
  const StampThreshold thr = StampThreshold::from_estimate(n, 0.8);  // 400

  // Section 5.1: the fault at 250 fails the round.  Iterations below the
  // threshold wrote unstamped, so only a full restore rolls them back.
  const ExecReport r = stats_enhanced_while(
      pool, n, thr, std::span<SpecTarget* const>(targets, 1),
      [&](long i, unsigned vpn, bool stamped) {
        arr.begin_iteration(vpn, i);
        if (stamped) {
          arr.set(vpn, i, static_cast<std::size_t>(i), 1.0);
        } else {
          arr.data()[static_cast<std::size_t>(i)] = 1.0;
        }
        if (i == throw_at) throw std::runtime_error("simulated fault");
        return IterAction::kContinue;
      },
      [&] {
        for (long i = 0; i < throw_at; ++i)
          arr.data()[static_cast<std::size_t>(i)] = 1.0;
        return throw_at;
      });

  EXPECT_TRUE(r.reexecuted_sequentially);
  EXPECT_EQ(r.trip, throw_at);
  for (long i = 0; i < n; ++i)
    ASSERT_EQ(arr.data()[static_cast<std::size_t>(i)], i < throw_at ? 1.0 : 0.0)
        << i;
}

TEST(Hedge, ParallelWinsWhenSpeculationSucceeds) {
  const HedgeOutcome h = one_processor_hedge(
      [] {
        ExecReport r;
        r.trip = 50;
        return r;
      },
      [] { return 50L; });
  EXPECT_TRUE(h.parallel_won);
  EXPECT_EQ(h.parallel.trip, h.sequential_trip);
}

TEST(Hedge, SequentialWinsOnFailedSpeculation) {
  const HedgeOutcome h = one_processor_hedge(
      [] {
        ExecReport r;
        r.reexecuted_sequentially = true;
        r.trip = 50;
        return r;
      },
      [] { return 50L; });
  EXPECT_FALSE(h.parallel_won);
}

}  // namespace
}  // namespace wlp
