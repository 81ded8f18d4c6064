// The speculation round (spec_round) through every driver that calls it:
// the same loop must give the same trip, final state and accounting
// whichever driver schedules the round.
#include <gtest/gtest.h>

#include <algorithm>
#include <ostream>
#include <stdexcept>
#include <string>
#include <tuple>
#include <vector>

#include "wlp/core/sliding_window.hpp"
#include "wlp/core/speculative_strips.hpp"
#include "wlp/core/strategies.hpp"
#include "wlp/obs/obs.hpp"

namespace wlp {
namespace {

enum class Driver { kSpeculative, kStrips, kWindow, kStatsEnhanced };

constexpr Driver kDrivers[] = {Driver::kSpeculative, Driver::kStrips,
                               Driver::kWindow, Driver::kStatsEnhanced};

std::string driver_name(Driver d) {
  switch (d) {
    case Driver::kSpeculative:   return "speculative";
    case Driver::kStrips:        return "strips";
    case Driver::kWindow:        return "window";
    case Driver::kStatsEnhanced: return "stats_enhanced";
  }
  return "?";
}

void PrintTo(Driver d, std::ostream* os) { *os << driver_name(d); }

/// Runs `body(i, vpn)` over [0, u) through driver `d`.  `seq(base, end) ->
/// trip` is the sequential fallback over a range; the single-round drivers
/// call it over [0, u).  `*rounds` receives the number of rounds run.
template <class Body, class Seq>
ExecReport run_driver(Driver d, ThreadPool& pool, long u, long strip,
                      std::span<SpecTarget* const> targets, Body&& body,
                      Seq&& seq, long* rounds) {
  *rounds = 1;
  auto seq_all = [&] { return seq(0L, u); };
  switch (d) {
    case Driver::kSpeculative:
      return speculative_while(pool, u, targets, body, seq_all);
    case Driver::kStrips: {
      const StripSpecReport s =
          strip_speculative_while(pool, u, strip, targets, body, seq);
      *rounds = s.strips_run;
      return s.exec;
    }
    case Driver::kWindow:
      return sliding_window_speculative_while(pool, u, targets, body, seq_all)
          .exec;
    case Driver::kStatsEnhanced:
      // Threshold 0: every iteration stamps, so only the round's own
      // failure causes apply.
      return stats_enhanced_while(
          pool, u, StampThreshold{}, targets,
          [&](long i, unsigned vpn, bool) { return body(i, vpn); }, seq_all);
  }
  return {};
}

std::uint64_t spec_rounds_counter() {
  return obs::Registry::instance().counter("wlp.spec.rounds").value();
}

// ---- success path and exceptions: every driver at p = 1, 2, 4 --------------

class SpecRound
    : public ::testing::TestWithParam<std::tuple<Driver, unsigned>> {};

TEST_P(SpecRound, IndependentRvExitUndoesOvershoot) {
  const auto [driver, p] = GetParam();
  ThreadPool pool(p);
  const long n = 4000, exit_at = 2500;
  SpecArray<double> arr(std::vector<double>(static_cast<std::size_t>(n), 0.0),
                        pool.size(), /*run_pd_test=*/true);
  SpecTarget* targets[] = {&arr};

  const std::uint64_t rounds0 = spec_rounds_counter();
  long rounds = 0;
  // RV exit: the exit-discovering iteration writes before it tests, so every
  // body at or past the trip leaves one write for the undo.
  const ExecReport r = run_driver(
      driver, pool, n, n / 4, std::span<SpecTarget* const>(targets, 1),
      [&](long i, unsigned vpn) {
        arr.begin_iteration(vpn, i);
        arr.set(vpn, i, static_cast<std::size_t>(i), static_cast<double>(i) + 1.0);
        return i == exit_at ? IterAction::kExit : IterAction::kContinue;
      },
      [](long, long) -> long {
        ADD_FAILURE() << "an independent loop must not fall back";
        return 0;
      },
      &rounds);

  EXPECT_EQ(r.trip, exit_at);
  EXPECT_TRUE(r.pd_tested);
  EXPECT_TRUE(r.pd_passed);
  EXPECT_FALSE(r.reexecuted_sequentially);
  EXPECT_GE(r.overshot, 1);  // the exit-discovering iteration itself
  EXPECT_EQ(r.undone_writes, r.overshot);
  EXPECT_GT(r.peak_spec_bytes, 0u);
  if (obs::compiled_in()) {
    EXPECT_EQ(spec_rounds_counter() - rounds0,
              static_cast<std::uint64_t>(rounds));
  }
  for (long i = 0; i < n; ++i)
    ASSERT_EQ(arr.data()[static_cast<std::size_t>(i)],
              i < exit_at ? static_cast<double>(i) + 1.0 : 0.0)
        << i;
}

TEST_P(SpecRound, ExceptionRestoresAndReexecutes) {
  const auto [driver, p] = GetParam();
  ThreadPool pool(p);
  const long n = 1000, throw_at = 300;
  SpecArray<double> arr(std::vector<double>(static_cast<std::size_t>(n), 0.0),
                        pool.size(), /*run_pd_test=*/true);
  SpecTarget* targets[] = {&arr};

  // Section 5.1: the parallel body faults at iteration 300 after writing;
  // the sequential loop exits there instead.  The strips driver commits
  // [0, 250) speculatively and fails only the strip holding the fault.
  long rounds = 0;
  const ExecReport r = run_driver(
      driver, pool, n, n / 4, std::span<SpecTarget* const>(targets, 1),
      [&](long i, unsigned vpn) {
        arr.begin_iteration(vpn, i);
        arr.set(vpn, i, static_cast<std::size_t>(i), 1.0);
        if (i == throw_at) throw std::runtime_error("simulated fault");
        return IterAction::kContinue;
      },
      [&](long base, long end) {
        for (long i = base; i < end; ++i) {
          if (i == throw_at) return i;
          arr.data()[static_cast<std::size_t>(i)] = 1.0;
        }
        return end;
      },
      &rounds);

  EXPECT_TRUE(r.reexecuted_sequentially);
  EXPECT_EQ(r.trip, throw_at);
  for (long i = 0; i < n; ++i)
    ASSERT_EQ(arr.data()[static_cast<std::size_t>(i)], i < throw_at ? 1.0 : 0.0)
        << i;
}

TEST_P(SpecRound, ReportsAnalysisAndSequentialRerunTimes) {
  // Td (analyze_ns) and Tseq (seq_ns) are summed per round like Tb and Ta:
  // a passing round spends time in the PD test and none re-running; a
  // failing one (here a flow dependence) re-runs sequentially.
  const auto [driver, p] = GetParam();
  ThreadPool pool(p);
  const long n = 2000;
  SpecArray<double> arr(std::vector<double>(static_cast<std::size_t>(n), 0.0),
                        pool.size(), /*run_pd_test=*/true);
  SpecTarget* targets[] = {&arr};
  long rounds = 0;

  const ExecReport pass = run_driver(
      driver, pool, n, n / 4, std::span<SpecTarget* const>(targets, 1),
      [&](long i, unsigned vpn) {
        arr.begin_iteration(vpn, i);
        arr.set(vpn, i, static_cast<std::size_t>(i), 1.0);
        return IterAction::kContinue;
      },
      [](long, long end) { return end; }, &rounds);
  ASSERT_TRUE(pass.pd_passed);
  EXPECT_GT(pass.analyze_ns, 0.0);
  EXPECT_EQ(pass.seq_ns, 0.0);

  const ExecReport fail = run_driver(
      driver, pool, n, n, std::span<SpecTarget* const>(targets, 1),
      [&](long i, unsigned vpn) {
        arr.begin_iteration(vpn, i);
        if (i == 0) return IterAction::kContinue;
        const double prev = arr.get(vpn, static_cast<std::size_t>(i - 1));
        arr.set(vpn, i, static_cast<std::size_t>(i), prev + 1.0);
        return IterAction::kContinue;
      },
      [&](long base, long end) {
        auto& d = arr.data();
        for (long i = std::max(base, 1L); i < end; ++i)
          d[static_cast<std::size_t>(i)] = d[static_cast<std::size_t>(i - 1)] + 1.0;
        return end;
      },
      &rounds);
  ASSERT_TRUE(fail.reexecuted_sequentially);
  EXPECT_GT(fail.seq_ns, 0.0);
  EXPECT_GT(fail.analyze_ns, 0.0);
}

TEST_P(SpecRound, ValidAndOvershotWriterCollisionReexecutes) {
  // Iteration 2 writes A[0] and so does iteration 5, which discovers the
  // exit after its write (RV exit), so both writers run under every driver
  // and schedule.  The one-writer-per-element undo cannot keep iteration 2's
  // value while undoing iteration 5's: the round must fail and re-run.
  const auto [driver, p] = GetParam();
  ThreadPool pool(p);
  const long n = 10, exit_at = 5;
  SpecArray<double> arr(std::vector<double>(4, -1.0), pool.size(),
                        /*run_pd_test=*/true);
  SpecTarget* targets[] = {&arr};

  long rounds = 0;
  const ExecReport r = run_driver(
      driver, pool, n, /*strip=*/n, std::span<SpecTarget* const>(targets, 1),
      [&](long i, unsigned vpn) {
        arr.begin_iteration(vpn, i);
        if (i == 2 || i == exit_at) arr.set(vpn, i, 0, static_cast<double>(i));
        return i == exit_at ? IterAction::kExit : IterAction::kContinue;
      },
      [&](long base, long end) {
        for (long i = base; i < end; ++i) {
          if (i == exit_at) return i;
          if (i == 2) arr.data()[0] = 2.0;
        }
        return end;
      },
      &rounds);

  EXPECT_TRUE(r.pd_tested);
  EXPECT_FALSE(r.pd_passed);
  EXPECT_TRUE(r.reexecuted_sequentially);
  EXPECT_EQ(r.trip, exit_at);
  EXPECT_EQ(arr.data()[0], 2.0);
}

INSTANTIATE_TEST_SUITE_P(
    Drivers, SpecRound,
    ::testing::Combine(::testing::ValuesIn(kDrivers),
                       ::testing::Values(1u, 2u, 4u)),
    [](const ::testing::TestParamInfo<SpecRound::ParamType>& info) {
      return driver_name(std::get<0>(info.param)) + "_p" +
             std::to_string(std::get<1>(info.param));
    });

// ---- failure accounting: one rule for every driver --------------------------

class SpecFailureAccounting : public ::testing::TestWithParam<Driver> {};

TEST_P(SpecFailureAccounting, OvershotRecomputedAfterSequentialFallback) {
  // PD fails (flow dependence) and the sequential re-run redefines the trip:
  // the overshoot is every speculative body at or past the NEW trip, all
  // rolled back by the restore.  One worker keeps the dependent accesses
  // from racing; the PD verdict fails regardless of execution order.
  ThreadPool pool(1);
  const long n = 3000, seq_trip = 100;
  SpecArray<double> arr(std::vector<double>(static_cast<std::size_t>(n), 0.0),
                        pool.size(), /*run_pd_test=*/true);
  SpecTarget* targets[] = {&arr};

  long rounds = 0;
  const ExecReport r = run_driver(
      GetParam(), pool, n, /*strip=*/n, std::span<SpecTarget* const>(targets, 1),
      [&](long i, unsigned vpn) {
        arr.begin_iteration(vpn, i);
        if (i == 0) return IterAction::kContinue;
        const double prev = arr.get(vpn, static_cast<std::size_t>(i - 1));
        arr.set(vpn, i, static_cast<std::size_t>(i), prev + 1.0);
        return IterAction::kContinue;
      },
      [&](long, long) {
        auto& d = arr.data();
        for (long i = 0; i < seq_trip; ++i)
          d[static_cast<std::size_t>(i)] = static_cast<double>(i);
        return seq_trip;
      },
      &rounds);

  EXPECT_TRUE(r.pd_tested);
  EXPECT_FALSE(r.pd_passed);
  EXPECT_TRUE(r.reexecuted_sequentially);
  EXPECT_EQ(r.trip, seq_trip);
  EXPECT_EQ(r.started, n);
  EXPECT_EQ(r.overshot, n - seq_trip);
  EXPECT_EQ(arr.data()[5], 5.0);
  EXPECT_EQ(arr.data()[200], 0.0);  // restored, then never re-executed
}

INSTANTIATE_TEST_SUITE_P(
    Drivers, SpecFailureAccounting, ::testing::ValuesIn(kDrivers),
    [](const ::testing::TestParamInfo<Driver>& info) {
      return driver_name(info.param);
    });

}  // namespace
}  // namespace wlp
