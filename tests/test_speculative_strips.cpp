#include <gtest/gtest.h>

#include <vector>

#include "wlp/core/speculative_strips.hpp"
#include "wlp/core/txn.hpp"

namespace wlp {
namespace {

TEST(StripSpeculation, CleanLoopCommitsStripByStrip) {
  ThreadPool pool(4);
  const long n = 4000, strip = 512, exit_at = 2500;
  SpecArray<double> arr(std::vector<double>(static_cast<std::size_t>(n), 0.0),
                        pool.size(), true);
  SpecTarget* targets[] = {&arr};

  const StripSpecReport r = strip_speculative_while(
      pool, n, strip, std::span<SpecTarget* const>(targets, 1),
      [&](long i, unsigned vpn) {
        arr.begin_iteration(vpn, i);
        if (i >= exit_at) return IterAction::kExit;
        arr.set(vpn, i, static_cast<std::size_t>(i), 1.0);
        return IterAction::kContinue;
      },
      [&](long, long) { return 0L; });  // never needed here

  EXPECT_EQ(r.exec.trip, exit_at);
  EXPECT_EQ(r.strips_failed, 0);
  EXPECT_EQ(r.strips_run, exit_at / strip + 1);
  for (long i = 0; i < n; ++i)
    EXPECT_EQ(arr.data()[static_cast<std::size_t>(i)], i < exit_at ? 1.0 : 0.0) << i;
}

/// A loop whose first strip carries a genuine flow dependence: that strip
/// must fall back to sequential execution, and the REMAINING strips must
/// still run speculatively (the per-strip containment the paper prescribes
/// for dependence-corrupted terminators).
TEST(StripSpeculation, FailingStripFallsBackAndExecutionContinues) {
  ThreadPool pool(4);
  const long n = 1024, strip = 256;
  SpecArray<double> arr(std::vector<double>(static_cast<std::size_t>(n), 0.0),
                        pool.size(), true);
  SpecTarget* targets[] = {&arr};

  auto sequential_strip = [&](long base, long end) {
    auto& d = arr.data();
    for (long i = base; i < end; ++i) {
      if (i > 0 && i < 200) {
        d[static_cast<std::size_t>(i)] = d[static_cast<std::size_t>(i - 1)] + 1.0;
      } else {
        d[static_cast<std::size_t>(i)] = 1.0;
      }
    }
    return end;
  };

  const StripSpecReport r = strip_speculative_while(
      pool, n, strip, std::span<SpecTarget* const>(targets, 1),
      [&](long i, unsigned vpn) {
        arr.begin_iteration(vpn, i);
        if (i > 0 && i < 200) {
          // Chain within the first strip only.
          const double prev = arr.get(vpn, static_cast<std::size_t>(i - 1));
          arr.set(vpn, i, static_cast<std::size_t>(i), prev + 1.0);
        } else {
          arr.set(vpn, i, static_cast<std::size_t>(i), 1.0);
        }
        return IterAction::kContinue;
      },
      sequential_strip);

  EXPECT_EQ(r.exec.trip, n);
  EXPECT_EQ(r.strips_failed, 1);
  EXPECT_EQ(r.strips_run, n / strip);

  // Final state must equal the fully sequential execution.
  std::vector<double> expect(static_cast<std::size_t>(n), 1.0);
  for (long i = 1; i < 200; ++i)
    expect[static_cast<std::size_t>(i)] = expect[static_cast<std::size_t>(i - 1)] + 1.0;
  EXPECT_EQ(arr.data(), expect);
}

TEST(StripSpeculation, ExitInsideFailedStripStopsEverything) {
  ThreadPool pool(4);
  const long n = 1000, strip = 250;
  SpecArray<double> arr(std::vector<double>(static_cast<std::size_t>(n), 0.0),
                        pool.size(), true);
  SpecTarget* targets[] = {&arr};

  // Every strip fails (a self-chain through slot 0); the sequential re-run
  // of strip 2 hits the exit at iteration 600.
  const StripSpecReport r = strip_speculative_while(
      pool, n, strip, std::span<SpecTarget* const>(targets, 1),
      [&](long i, unsigned vpn) {
        arr.begin_iteration(vpn, i);
        arr.set(vpn, i, 0, arr.get(vpn, 0) + 1.0);
        return IterAction::kContinue;
      },
      [&](long base, long end) {
        for (long i = base; i < end; ++i) {
          if (i == 600) return i;
          arr.data()[0] += 1.0;
        }
        return end;
      });

  EXPECT_EQ(r.exec.trip, 600);
  EXPECT_TRUE(r.exec.reexecuted_sequentially);
  EXPECT_EQ(arr.data()[0], 600.0);
}

// --- the hash-backed sparse target through the standard driver --------------

TEST(SparseSpec, UndoThroughHashBackup) {
  ThreadPool pool(4);
  const long big = 1 << 20;  // a large state array nobody wants to copy
  const long iters = 5000, exit_at = 3500;
  AdaptiveSpecArray<double> sparse(
      std::vector<double>(static_cast<std::size_t>(big), 0.0), pool.size(),
      static_cast<std::size_t>(iters), true);
  ASSERT_EQ(sparse.backup_kind(), BackupKind::kHash);
  SpecTarget* targets[] = {&sparse};

  const ExecReport r = speculative_while(
      pool, iters, std::span<SpecTarget* const>(targets, 1),
      [&](long i, unsigned vpn) {
        sparse.begin_iteration(vpn, i);
        if (i >= exit_at) return IterAction::kExit;
        sparse.set(vpn, i, static_cast<std::size_t>((i * 7919) % big),
                   static_cast<double>(i));
        return IterAction::kContinue;
      },
      [&] { return exit_at; });

  EXPECT_TRUE(r.pd_passed);
  EXPECT_FALSE(r.reexecuted_sequentially);
  EXPECT_EQ(r.trip, exit_at);
  // Backup memory ~ touched set, not the array.
  EXPECT_LE(sparse.backup_entries(), static_cast<std::size_t>(exit_at + 64));

  std::vector<double> expect(static_cast<std::size_t>(big), 0.0);
  for (long i = 0; i < exit_at; ++i)
    expect[static_cast<std::size_t>((i * 7919) % big)] = static_cast<double>(i);
  EXPECT_EQ(sparse.data(), expect);
}

TEST(SparseSpec, FailedSpeculationRestoresThroughBackup) {
  ThreadPool pool(4);
  // Large enough that the 2048-write hint sits below the hash crossover.
  AdaptiveSpecArray<double> sparse(std::vector<double>(1 << 15, 3.0),
                                   pool.size(), 2048, true);
  ASSERT_EQ(sparse.backup_kind(), BackupKind::kHash);
  const std::vector<double>& state = sparse.data();
  SpecTarget* targets[] = {&sparse};

  const ExecReport r = speculative_while(
      pool, 500, std::span<SpecTarget* const>(targets, 1),
      [&](long i, unsigned vpn) {
        sparse.begin_iteration(vpn, i);
        sparse.set(vpn, i, 7, static_cast<double>(i));  // output dependence
        return IterAction::kContinue;
      },
      [&] {
        sparse.data()[7] = 499.0;
        return 500L;
      });

  EXPECT_FALSE(r.pd_passed);
  EXPECT_TRUE(r.reexecuted_sequentially);
  EXPECT_EQ(state[7], 499.0);
  for (std::size_t i = 0; i < state.size(); ++i) {
    if (i != 7) {
      EXPECT_EQ(state[i], 3.0);
    }
  }
}

}  // namespace
}  // namespace wlp
