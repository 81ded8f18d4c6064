// Multi-array speculation transactions (SpecTransaction, txn.hpp):
//   * the fused multi-array undo agrees with the per-element reference pass
//     on every member, shared index or not,
//   * index sharing between trip-aligned members actually halves stamp
//     memory and the transaction reports the savings,
//   * mixed dense+hash transactions survive concurrent writers straddling
//     shared stamp words (the CI TSan job runs them),
//   * an AdaptiveSpecArray's hash overflow falls back to dense without
//     disturbing its siblings,
//   * epoch wrap with live multi-array stamps sweeps the shared index once
//     and stays exact,
//   * cost_model::choose_backup picks the documented sides of the crossover
//     and clamps the measured theta,
//   * steady-state strip retries over a 2-array transaction allocate
//     nothing (wlp.mem Budget deltas pinned to zero).
#include <gtest/gtest.h>

#include <cstddef>
#include <span>
#include <vector>

#include "wlp/core/speculative.hpp"
#include "wlp/core/speculative_strips.hpp"
#include "wlp/core/txn.hpp"
#include "wlp/mem/budget.hpp"
#include "wlp/support/prng.hpp"

namespace wlp {
namespace {

TEST(TxnFused, MultiArrayUndoMatchesPerElementOracle) {
  // Two trip-aligned members over ONE shared index plus a third with its
  // own index, undone by the fused transaction pass; three independent
  // VersionedArrays with the same writes, undone by the unbatched
  // per-element reference.  Every element must agree.
  ThreadPool pool(4);
  const std::size_t n = 1 << 14;
  const long iters = 4000, trip = 1700;

  SpecArray<long> a(std::vector<long>(n, -1), pool.size(), false);
  SpecArray<long> b(std::vector<long>(n, -2), a.shared_pattern());
  SpecArray<long> c(std::vector<long>(n, -3), pool.size(), false);
  SpecTarget* targets[] = {&a, &b, &c};
  SpecTransaction txn(std::span<SpecTarget* const>(targets, 3));
  EXPECT_EQ(txn.shared_groups(), 2u);  // {a,b} and {c}
  EXPECT_EQ(txn.fused_targets(), 3u);

  VersionedArray<long> ra(std::vector<long>(n, -1));
  VersionedArray<long> rb(std::vector<long>(n, -2));
  VersionedArray<long> rc(std::vector<long>(n, -3));

  txn.begin(&pool);
  ra.checkpoint();
  rb.checkpoint();
  rc.checkpoint();

  Xoshiro256 rng(0x5eedull);
  for (long i = 0; i < iters; ++i) {
    // a and b are trip-aligned: the SAME indices every iteration (the
    // shared-index write-set contract).  c scatters independently.
    const auto idx = static_cast<std::size_t>(rng() % n);
    a.set(0, i, idx, i);
    b.set(0, i, idx, 10 * i);
    ra.write(i, idx, i);
    rb.write(i, idx, 10 * i);
    const auto cidx = static_cast<std::size_t>(rng() % n);
    c.set(0, i, cidx, -i);
    rc.write(i, cidx, -i);
  }

  const long fused_undone = txn.undo_beyond(trip, &pool);
  const long ref_undone = ra.undo_beyond_per_element(trip) +
                          rb.undo_beyond_per_element(trip) +
                          rc.undo_beyond_per_element(trip);
  EXPECT_EQ(fused_undone, ref_undone);
  for (std::size_t i = 0; i < n; ++i) {
    ASSERT_EQ(a.data()[i], ra.get(i)) << i;
    ASSERT_EQ(b.data()[i], rb.get(i)) << i;
    ASSERT_EQ(c.data()[i], rc.get(i)) << i;
  }
}

TEST(TxnFused, RestoreAllReturnsEveryMemberToEntryState) {
  ThreadPool pool(4);
  const std::size_t n = 1 << 12;
  SpecArray<double> a(std::vector<double>(n, 1.5), pool.size(), false);
  SpecArray<double> b(std::vector<double>(n, 2.5), a.shared_pattern());
  AdaptiveSpecArray<double> s(std::vector<double>(n, 3.5), pool.size(), 256,
                              false);
  ASSERT_EQ(s.backup_kind(), BackupKind::kHash);
  const std::vector<double>& sparse_data = s.data();
  SpecTarget* targets[] = {&a, &b, &s};
  SpecTransaction txn(std::span<SpecTarget* const>(targets, 3));

  txn.begin(&pool);
  for (long i = 0; i < 500; ++i) {
    const auto idx = static_cast<std::size_t>(i * 7 % n);
    a.set(0, i, idx, -1.0);
    b.set(0, i, idx, -2.0);
    s.set(0, i, static_cast<std::size_t>(i), -3.0);
  }
  txn.restore_all(&pool);
  for (std::size_t i = 0; i < n; ++i) {
    ASSERT_EQ(a.data()[i], 1.5) << i;
    ASSERT_EQ(b.data()[i], 2.5) << i;
    ASSERT_EQ(sparse_data[i], 3.5) << i;
  }
  // Stamps cleared by the restore: nothing left to undo.
  EXPECT_EQ(txn.undo_beyond(0, &pool), 0);
}

TEST(TxnSharedStamps, SharingHalvesStampMemory) {
  const std::size_t n = 1 << 14;
  ThreadPool pool(2);
  SpecArray<double> a(std::vector<double>(n, 0.0), pool.size(), false);
  SpecArray<double> b(std::vector<double>(n, 0.0), a.shared_pattern());
  SpecTarget* shared_pair[] = {&a, &b};
  SpecTransaction shared_txn(std::span<SpecTarget* const>(shared_pair, 2));

  SpecArray<double> c(std::vector<double>(n, 0.0), pool.size(), false);
  SpecArray<double> d(std::vector<double>(n, 0.0), pool.size(), false);
  SpecTarget* private_pair[] = {&c, &d};
  SpecTransaction private_txn(std::span<SpecTarget* const>(private_pair, 2));

  // One group, and the saving equals exactly one index's bytes (the second
  // member would have owned a private one).
  EXPECT_EQ(shared_txn.shared_groups(), 1u);
  const std::size_t index_bytes = a.shared_pattern()->index()->memory_bytes();
  EXPECT_EQ(shared_txn.stamp_bytes_saved(), index_bytes);
  EXPECT_EQ(private_txn.stamp_bytes_saved(), 0u);

  // The budget-visible footprint reflects it: the shared pair pins one
  // index where the private pair pins two.  (Backup buffers are identical
  // on both sides, so the delta is the index bytes.)
  EXPECT_EQ(private_txn.memory_bytes() - shared_txn.memory_bytes(),
            index_bytes);
  // And the index itself dominates its dense n: ~12.25 bytes/element
  // (8 stamp + summary) versus twice that unshared.
  EXPECT_GE(index_bytes, n * sizeof(std::uint64_t));
}

TEST(TxnStress, MixedDenseHashConcurrentWritersSharedWords) {
  // TSan coverage: two dense members share one access pattern, so
  // concurrent workers store to the same stamp and summary words and mark
  // through the same accessors; a hash member's record()
  // races on its slot tags in the same run.  Chunk 1 dynamic scheduling
  // maximizes interleaving; the exit lands exactly on a 64-element block
  // boundary so the undo threshold splits a summary word.
  ThreadPool pool(4);
  const long n = 1 << 14;
  const long exit_at = 4096;  // 64 * 64: exact block boundary
  SpecArray<double> a(std::vector<double>(static_cast<std::size_t>(n), 0.0),
                      pool.size(), true);
  SpecArray<double> b(std::vector<double>(static_cast<std::size_t>(n), 0.0),
                      a.shared_pattern());
  // The hash member's array is 16x the written range, so the n-write hint
  // sits below the hash crossover.
  AdaptiveSpecArray<double> s(
      std::vector<double>(static_cast<std::size_t>(16 * n), 0.0), pool.size(),
      static_cast<std::size_t>(n), true);
  ASSERT_EQ(s.backup_kind(), BackupKind::kHash);
  const std::vector<double>& sdata = s.data();
  SpecTarget* targets[] = {&a, &b, &s};

  SpecOptions opts;
  opts.doall.sched = Sched::kDynamic;
  opts.doall.chunk = 1;

  const ExecReport r = speculative_while(
      pool, n, std::span<SpecTarget* const>(targets, 3),
      [&](long i, unsigned vpn) {
        a.begin_iteration(vpn, i);
        b.begin_iteration(vpn, i);
        s.begin_iteration(vpn, i);
        // Write BEFORE testing the exit: every overshot iteration leaves
        // writes in all three members that the fused undo must take back.
        const auto idx = static_cast<std::size_t>(i);
        a.set(vpn, i, idx, static_cast<double>(i));
        b.set(vpn, i, idx, static_cast<double>(2 * i));
        s.set(vpn, i, idx, 1.0);
        return i >= exit_at ? IterAction::kExit : IterAction::kContinue;
      },
      [&] { return exit_at; }, opts);

  ASSERT_TRUE(r.pd_passed);
  ASSERT_FALSE(r.reexecuted_sequentially);
  EXPECT_EQ(r.trip, exit_at);
  for (long i = 0; i < n; ++i) {
    const auto idx = static_cast<std::size_t>(i);
    ASSERT_EQ(a.data()[idx], i < exit_at ? static_cast<double>(i) : 0.0) << i;
    ASSERT_EQ(b.data()[idx], i < exit_at ? static_cast<double>(2 * i) : 0.0)
        << i;
  }
  for (std::size_t i = 0; i < sdata.size(); ++i)
    ASSERT_EQ(sdata[i], static_cast<long>(i) < exit_at ? 1.0 : 0.0) << i;
}

TEST(TxnAdaptive, PicksHashForSparseAndDenseForDenseTouches) {
  ThreadPool pool(2);
  const std::size_t n = 1 << 14;
  // Hint says ~0.4% of the array: well under theta -> hash.
  AdaptiveSpecArray<double> sparse(std::vector<double>(n, 0.0), pool.size(),
                                   64, false);
  EXPECT_EQ(sparse.backup_kind(), BackupKind::kHash);
  // Hint says every element: dense.
  AdaptiveSpecArray<double> dense(std::vector<double>(n, 0.0), pool.size(), n,
                                  false);
  EXPECT_EQ(dense.backup_kind(), BackupKind::kDense);

  // After a retry the tallied writes replace the hint: run the sparse one
  // through a dense-touch retry and watch it flip.
  SpecTarget* targets[] = {&sparse};
  SpecTransaction txn(std::span<SpecTarget* const>(targets, 1));
  txn.begin(&pool);  // decision from the hint: still hash
  EXPECT_EQ(sparse.backup_kind(), BackupKind::kHash);
  for (std::size_t i = 0; i < n; ++i)
    sparse.set(0, static_cast<long>(i % 64), i, 1.0);
  // The 64-hint table overflowed under n distinct writes; the data stayed
  // consistent (overflowing writes were skipped) and the next begin() both
  // re-decides from the measured n touches AND latches the overflow ban.
  EXPECT_TRUE(sparse.overflowed());
  txn.restore_all(&pool);
  txn.begin(&pool);
  EXPECT_EQ(sparse.backup_kind(), BackupKind::kDense);
}

TEST(TxnAdaptive, HashOverflowFallsBackDenseWithoutDisturbingSibling) {
  ThreadPool pool(4);
  const std::size_t n = 1 << 13;
  // A: tiny hash table, will overflow.  B: plain dense sibling in the same
  // transaction, whose state and backend must be unaffected.
  AdaptiveSpecArray<double> a_arr(std::vector<double>(n, 5.0), pool.size(), 16,
                                  false);
  AdaptiveSpecArray<double> b_arr(std::vector<double>(n, 6.0), pool.size(), n,
                                  false);
  ASSERT_EQ(a_arr.backup_kind(), BackupKind::kHash);
  ASSERT_EQ(b_arr.backup_kind(), BackupKind::kDense);
  SpecTarget* targets[] = {&a_arr, &b_arr};
  SpecTransaction txn(std::span<SpecTarget* const>(targets, 2));

  txn.begin(&pool);
  for (std::size_t i = 0; i < n; ++i) {
    a_arr.set(0, 0, i, -1.0);  // blows through the 16-entry hint
    b_arr.set(0, 0, i, -2.0);
  }
  ASSERT_TRUE(txn.overflowed());

  // Failed speculation path: restore everything, then the next begin()
  // re-decides.  A is banned from hash for good; B keeps its backend.
  txn.restore_all(&pool);
  for (std::size_t i = 0; i < n; ++i) {
    ASSERT_EQ(a_arr.data()[i], 5.0) << i;
    ASSERT_EQ(b_arr.data()[i], 6.0) << i;
  }
  txn.begin(&pool);
  EXPECT_EQ(a_arr.backup_kind(), BackupKind::kDense);
  EXPECT_EQ(b_arr.backup_kind(), BackupKind::kDense);

  // The ban is permanent even if the touch set shrinks back to sparse.
  a_arr.set(0, 0, 3, -1.0);
  b_arr.set(0, 0, 3, -2.0);
  txn.undo_beyond(0, &pool);
  txn.begin(&pool);
  EXPECT_EQ(a_arr.backup_kind(), BackupKind::kDense);
}

TEST(TxnEpochWrap, SharedIndexWrapsOnceAndStaysExact) {
  // Jump the shared index to the edge of the 32-bit epoch space with LIVE
  // multi-array state, then cross the wrap: exactly one real sweep, and the
  // undo after the wrap still restores exactly the overshot writes.
  const std::size_t n = 4096;
  VersionedArray<long> a(std::vector<long>(n, -1));
  VersionedArray<long> b(std::vector<long>(n, -2), a.shared_index());
  a.set_epoch_for_test(0xffffffffu);  // next bump wraps

  const long sweeps0 = a.shared_index()->sweeps();
  a.checkpoint();
  b.checkpoint();
  a.write(9, 100, 1);
  b.write(9, 100, 2);
  // Strip commit: both members clear, the clearer bumps the shared epoch
  // once — crossing the wrap, which forces the one real sweep.
  a.clear_stamps();
  b.clear_stamps();
  EXPECT_EQ(a.shared_index()->sweeps(), sweeps0 + 1);

  // Post-wrap stamps are exact: stale pre-wrap residue can't alias.
  a.checkpoint();
  b.checkpoint();
  a.write(3, 50, 30);   // valid at trip 5
  b.write(3, 50, 300);
  a.write(7, 60, 70);   // overshot
  b.write(7, 60, 700);
  EXPECT_EQ(a.undo_beyond(5) + b.undo_beyond(5), 2);
  EXPECT_EQ(a.get(50), 30);
  EXPECT_EQ(b.get(50), 300);
  EXPECT_EQ(a.get(60), -1);
  EXPECT_EQ(b.get(60), -2);
  EXPECT_EQ(a.get(100), 1);  // pre-wrap strip committed, not undone
  EXPECT_EQ(b.get(100), 2);
}

TEST(TxnChooseBackup, CrossoverAndClamps) {
  const std::size_t n = 1 << 16;
  // Far below the default theta (1/6): hash.
  const BackupDecision sparse = choose_backup(n, n / 100);
  EXPECT_EQ(sparse.kind, BackupKind::kHash);
  EXPECT_NEAR(sparse.density, static_cast<double>(n / 100) / n, 1e-12);
  // Above it: dense.
  const BackupDecision dense = choose_backup(n, n / 2);
  EXPECT_EQ(dense.kind, BackupKind::kDense);
  // Touch counts are write tallies and may exceed n: still dense, density
  // just saturates past 1.
  EXPECT_EQ(choose_backup(n, 4 * n).kind, BackupKind::kDense);
  // Empty loop: nothing touched -> hash (a zero-entry table is free).
  EXPECT_EQ(choose_backup(n, 0).kind, BackupKind::kHash);

  // Measured-cost corrections move theta but never out of [1/64, 1/2].
  const BackupDecision cheap_copy =
      choose_backup(n, n / 4, /*measured_tb=*/1.0, /*measured_ta=*/1e9);
  EXPECT_GE(cheap_copy.theta, 1.0 / 64.0);
  const BackupDecision dear_copy =
      choose_backup(n, n / 4, /*measured_tb=*/1e9, /*measured_ta=*/1.0);
  EXPECT_LE(dear_copy.theta, 0.5);
  EXPECT_GE(sparse.theta, 1.0 / 64.0);
  EXPECT_LE(sparse.theta, 0.5);
}

TEST(TxnSteadyState, TwoArrayStripRetriesAllocateNothing) {
  // The multi-array version of StripRetries.SteadyStateAllocatesNothing:
  // the strip driver keeps ONE SpecTransaction across strips, so a warm
  // 2-array loop must run every later strip with zero arena traffic, zero
  // O(n) sweeps, and a constant budget-visible footprint.
  ThreadPool pool(4);
  const long n = 64 * 256, strip = 256;
  SpecArray<double> a(std::vector<double>(static_cast<std::size_t>(n), 0.0),
                      pool.size(), true);
  SpecArray<double> b(std::vector<double>(static_cast<std::size_t>(n), 0.0),
                      a.shared_pattern());
  SpecTarget* targets[] = {&a, &b};

  // Static issue: every worker deterministically participates in every
  // strip, so the warm run first-touches every worker's lazily allocated
  // shadow segment (a self-sized dynamic claim may leave a worker idle).
  SpecOptions opts;
  opts.doall.sched = Sched::kStaticCyclic;
  auto run_once = [&] {
    return strip_speculative_while(
        pool, n, strip, std::span<SpecTarget* const>(targets, 2),
        [&](long i, unsigned vpn) {
          a.begin_iteration(vpn, i);
          b.begin_iteration(vpn, i);
          a.set(vpn, i, static_cast<std::size_t>(i), 1.0);
          b.set(vpn, i, static_cast<std::size_t>(i), 2.0);
          return IterAction::kContinue;
        },
        [&](long, long end) { return end; }, opts);
  };

  // Two warm-up rounds: the second covers a worker that sat out the first
  // and would otherwise take its lazy arena allocation during the pinned
  // run.
  ASSERT_EQ(run_once().strips_failed, 0);
  const StripSpecReport warm = run_once();
  ASSERT_EQ(warm.strips_failed, 0);
  const std::size_t bytes_warm = a.memory_bytes() + b.memory_bytes();
  const UndoStats stats_warm = a.undo_stats();
  const long sweeps_warm = a.shared_pattern()->index()->sweeps();
  const mem::BudgetSnapshot mem_warm = mem::Budget::process().snapshot();

  const StripSpecReport hot = run_once();
  ASSERT_EQ(hot.strips_failed, 0);
  const UndoStats stats_hot = a.undo_stats();
  const mem::BudgetSnapshot mem_hot = mem::Budget::process().snapshot();

  EXPECT_EQ(a.memory_bytes() + b.memory_bytes(), bytes_warm);
  EXPECT_EQ(a.shared_pattern()->index()->sweeps(), sweeps_warm);
  EXPECT_EQ(stats_hot.checkpoints - stats_warm.checkpoints, n / strip);
  EXPECT_EQ(stats_hot.resets - stats_warm.resets, n / strip);
  // The process-wide ledger agrees: nothing reached the OS in steady state.
  EXPECT_EQ(mem_hot.slow_allocs, mem_warm.slow_allocs);

  for (long i = 0; i < n; ++i) {
    ASSERT_EQ(a.data()[static_cast<std::size_t>(i)], 1.0) << i;
    ASSERT_EQ(b.data()[static_cast<std::size_t>(i)], 2.0) << i;
  }
}

}  // namespace
}  // namespace wlp
