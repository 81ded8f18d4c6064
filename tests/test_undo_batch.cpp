// Driver-level coverage of the block-batched backup/undo layer:
//   * sparse-backup capacity overflow degrades into a clean sequential
//     fall-back (no exception escapes a pool worker),
//   * steady-state strip retries allocate nothing (pooled checkpoint buffer,
//     epoch-bump resets),
//   * the sliding-window memory budget controller reacts to the backups'
//     MEASURED footprint (memory_bytes) instead of a bytes-per-iteration
//     guess,
//   * ExecReport carries the measured Tb/Ta and LoopStatistics feeds them
//     into the cost model's overhead terms.
#include <gtest/gtest.h>

#include <span>
#include <vector>

#include "wlp/core/adaptive.hpp"
#include "wlp/core/sliding_window.hpp"
#include "wlp/core/speculative.hpp"
#include "wlp/core/speculative_strips.hpp"
#include "wlp/core/txn.hpp"

namespace wlp {
namespace {

TEST(BackupOverflow, SpeculationFallsBackSequentially) {
  ThreadPool pool(4);
  const long n = 2000;  // far more distinct writes than the backup can hold
  // expected_writes = 8 -> 16-ish slots: guaranteed overflow.
  AdaptiveSpecArray<double> sparse(std::vector<double>(8192, -1.0),
                                   pool.size(), 8, /*run_pd_test=*/true);
  ASSERT_EQ(sparse.backup_kind(), BackupKind::kHash);
  const std::vector<double>& state = sparse.data();
  SpecTarget* targets[] = {&sparse};

  const ExecReport r = speculative_while(
      pool, n, std::span<SpecTarget* const>(targets, 1),
      [&](long i, unsigned vpn) {
        sparse.begin_iteration(vpn, i);
        sparse.set(vpn, i, static_cast<std::size_t>(i), static_cast<double>(i));
        return IterAction::kContinue;
      },
      [&] {
        for (long i = 0; i < n; ++i)
          sparse.data()[static_cast<std::size_t>(i)] = static_cast<double>(i);
        return n;
      });

  EXPECT_TRUE(r.backup_overflow);
  EXPECT_TRUE(r.reexecuted_sequentially);
  EXPECT_EQ(r.trip, n);
  // The fall-back ran against the exact pre-loop state: every location holds
  // the sequential result, nothing was lost to the dropped records.
  for (long i = 0; i < n; ++i)
    ASSERT_EQ(state[static_cast<std::size_t>(i)], static_cast<double>(i)) << i;
  for (std::size_t i = static_cast<std::size_t>(n); i < state.size(); ++i)
    ASSERT_EQ(state[i], -1.0) << i;
}

TEST(BackupOverflow, StripDriverContainsOverflowToOneStrip) {
  ThreadPool pool(4);
  const long n = 1024, strip = 256;
  // 200 expected writes -> 512 slots: room for one plain strip (~256 distinct
  // locations) but NOT for the burst strip below (4 per iteration = 1024).
  AdaptiveSpecArray<double> sparse(std::vector<double>(4096, 0.0),
                                   pool.size(), 200, true);
  ASSERT_EQ(sparse.backup_kind(), BackupKind::kHash);
  const std::vector<double>& state = sparse.data();
  SpecTarget* targets[] = {&sparse};

  auto body = [&](long i, unsigned vpn) {
    sparse.begin_iteration(vpn, i);
    if (i >= 256 && i < 512) {
      // The overflowing strip: 4 writes per iteration = ~1024 distinct slots.
      for (long k = 0; k < 4; ++k)
        sparse.set(vpn, i, static_cast<std::size_t>(1024 + (i - 256) * 4 + k),
                   1.0);
    } else {
      sparse.set(vpn, i, static_cast<std::size_t>(i), 1.0);
    }
    return IterAction::kContinue;
  };
  auto seq_strip = [&](long base, long end) {
    for (long i = base; i < end; ++i) {
      if (i >= 256 && i < 512) {
        for (long k = 0; k < 4; ++k)
          sparse.data()[static_cast<std::size_t>(1024 + (i - 256) * 4 + k)] = 1.0;
      } else {
        sparse.data()[static_cast<std::size_t>(i)] = 1.0;
      }
    }
    return end;
  };

  const StripSpecReport r = strip_speculative_while(
      pool, n, strip, std::span<SpecTarget* const>(targets, 1), body, seq_strip);

  EXPECT_TRUE(r.exec.backup_overflow);
  EXPECT_EQ(r.strips_failed, 1);  // only the burst strip fell back
  EXPECT_EQ(r.strips_run, n / strip);
  EXPECT_EQ(r.exec.trip, n);
  for (long i = 0; i < 256; ++i)
    ASSERT_EQ(state[static_cast<std::size_t>(i)], 1.0) << i;
  for (long i = 512; i < n; ++i)
    ASSERT_EQ(state[static_cast<std::size_t>(i)], 1.0) << i;
  for (long i = 0; i < 1024; ++i)
    ASSERT_EQ(state[static_cast<std::size_t>(1024 + i)], 1.0) << i;
}

TEST(StripRetries, SteadyStateAllocatesNothing) {
  // PR 3/4 pattern: pin the O(n) work counters.  Across 100 strips the
  // checkpoint buffer is pooled (memory_bytes constant) and every stamp
  // reset is the O(1) epoch bump (sweeps stays 0).
  ThreadPool pool(4);
  const long n = 64 * 256, strip = 256;
  SpecArray<double> arr(std::vector<double>(static_cast<std::size_t>(n), 0.0),
                        pool.size(), /*run_pd_test=*/true);
  SpecTarget* targets[] = {&arr};

  auto run_once = [&] {
    return strip_speculative_while(
        pool, n, strip, std::span<SpecTarget* const>(targets, 1),
        [&](long i, unsigned vpn) {
          arr.begin_iteration(vpn, i);
          arr.set(vpn, i, static_cast<std::size_t>(i), 1.0);
          return IterAction::kContinue;
        },
        [&](long, long end) { return end; });
  };

  // Warm-up run allocates the pooled buffers.
  const StripSpecReport warm = run_once();
  ASSERT_EQ(warm.strips_failed, 0);
  const std::size_t bytes_after_warmup = arr.memory_bytes();
  const UndoStats warm_stats = arr.undo_stats();

  const StripSpecReport hot = run_once();
  ASSERT_EQ(hot.strips_failed, 0);
  const UndoStats hot_stats = arr.undo_stats();

  EXPECT_EQ(arr.memory_bytes(), bytes_after_warmup);  // zero new allocation
  EXPECT_EQ(hot_stats.sweeps, warm_stats.sweeps);     // zero O(n) sweeps
  EXPECT_EQ(hot_stats.checkpoints - warm_stats.checkpoints, n / strip);
  EXPECT_EQ(hot_stats.resets - warm_stats.resets, n / strip);
}

TEST(WindowBudget, ControllerUsesMeasuredBackupBytes) {
  ThreadPool pool(4);
  const long n = 4000;
  // Large enough that the n-write hint sits below the hash crossover.
  AdaptiveSpecArray<double> sparse(std::vector<double>(1 << 16, 0.0),
                                   pool.size(), static_cast<std::size_t>(n),
                                   true);
  ASSERT_EQ(sparse.backup_kind(), BackupKind::kHash);
  const std::vector<double>& state = sparse.data();
  SpecTarget* targets[] = {&sparse};

  WindowOptions opts;
  opts.window = 64;
  opts.min_window = 2;
  // No bytes_per_iteration guess AT ALL: only the measured footprint can
  // drive the controller.  The budget is small enough that the growing
  // touched set must force the window down.
  opts.memory_budget = 2048;

  const WindowReport wr = sliding_window_speculative_while(
      pool, n, std::span<SpecTarget* const>(targets, 1),
      [&](long i, unsigned vpn) {
        sparse.begin_iteration(vpn, i);
        sparse.set(vpn, i, static_cast<std::size_t>(i), 1.0);
        return IterAction::kContinue;
      },
      [&] { return n; }, opts);

  ASSERT_TRUE(wr.exec.pd_passed);
  ASSERT_FALSE(wr.exec.reexecuted_sequentially);
  EXPECT_EQ(wr.exec.trip, n);
  // The backup's live bytes blew through the budget early, so the measured
  // controller must have (a) observed it and (b) shrunk the window to the
  // floor.  A guess-based controller with no bytes_per_iteration would have
  // done neither.
  EXPECT_GT(wr.peak_stamp_bytes, opts.memory_budget / 2);
  EXPECT_EQ(wr.final_window, opts.min_window);
  for (long i = 0; i < n; ++i)
    ASSERT_EQ(state[static_cast<std::size_t>(i)], 1.0) << i;
}

TEST(MeasuredOverheads, ReportsFeedCostModelTerms) {
  ThreadPool pool(4);
  const long n = 1 << 16, exit_at = 3 * (n / 4);
  SpecArray<double> arr(std::vector<double>(static_cast<std::size_t>(n), 0.0),
                        pool.size(), true);
  SpecTarget* targets[] = {&arr};

  const ExecReport r = speculative_while(
      pool, n, std::span<SpecTarget* const>(targets, 1),
      [&](long i, unsigned vpn) {
        arr.begin_iteration(vpn, i);
        if (i >= exit_at) return IterAction::kExit;
        arr.set(vpn, i, static_cast<std::size_t>(i), 1.0);
        return IterAction::kContinue;
      },
      [&] { return exit_at; });

  ASSERT_TRUE(r.pd_passed);
  // The run measured its own Tb and Ta.
  EXPECT_GT(r.checkpoint_ns, 0.0);
  EXPECT_GT(r.undo_ns, 0.0);

  // LoopStatistics accumulates them and observed_profile() forwards them as
  // measured_tb/measured_ta, which overhead_terms() prefers over the a/p
  // worst-case model.
  LoopStatistics stats;
  stats.record(r);
  EXPECT_GT(stats.mean_checkpoint_seconds(), 0.0);
  EXPECT_GT(stats.mean_undo_seconds(), 0.0);

  const double seconds_per_unit = 1e-9;  // express LoopTiming in nanoseconds
  const OverheadProfile o =
      stats.observed_profile(true, true, 1.0, seconds_per_unit);
  EXPECT_GT(o.measured_tb, 0.0);
  EXPECT_GT(o.measured_ta, 0.0);
  const OverheadTerms terms = overhead_terms(o, pool.size(), 4.0);
  EXPECT_DOUBLE_EQ(terms.t_b, o.measured_tb);
  // t_a = measured undo + the PD analysis a/p term.
  EXPECT_GE(terms.t_a, o.measured_ta);

  // Unmeasured profiles keep the model terms.
  OverheadProfile model = o;
  model.measured_tb = model.measured_ta = -1.0;
  const OverheadTerms mterms = overhead_terms(model, pool.size(), 4.0);
  const double a = static_cast<double>(model.accesses) * model.access_cost;
  EXPECT_DOUBLE_EQ(mterms.t_b, a / static_cast<double>(pool.size()));
}

}  // namespace
}  // namespace wlp
