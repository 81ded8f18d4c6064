// The cross-strip verdict cache (wlp::pdcache): signature algebra, table
// semantics, the fused-verdict == full-verdict oracle, driver integration,
// epoch-wrap slot recycling, concurrency (the TSan target), and the
// steady-state allocation budget.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <span>
#include <vector>

#include "wlp/core/sliding_window.hpp"
#include "wlp/core/speculative.hpp"
#include "wlp/core/speculative_strips.hpp"
#include "wlp/core/txn.hpp"
#include "wlp/mem/budget.hpp"
#include "wlp/pd/verdict_cache.hpp"

namespace wlp {
namespace {

using pdcache::AccessSignature;
using pdcache::StrideClass;
using pdcache::Verdict;
using pdcache::VerdictCache;

bool same_sig(const AccessSignature& a, const AccessSignature& b) {
  return a.key == b.key && a.check == b.check;
}

// ---- signature algebra ------------------------------------------------------

TEST(PDCacheSignature, StrideClassification) {
  EXPECT_EQ(pdcache::classify_stride(0, 0, 0), StrideClass::kEmpty);
  // 64 marks over span 64: every element hit.
  EXPECT_EQ(pdcache::classify_stride(64, 100, 163), StrideClass::kDense);
  // 64 marks over span 512: every 8th element.
  EXPECT_EQ(pdcache::classify_stride(64, 0, 511), StrideClass::kStrided);
  // 4 marks over span 4096.
  EXPECT_EQ(pdcache::classify_stride(4, 0, 4095), StrideClass::kSparse);
}

/// The core steady-state property: strip k's marks at iterations
/// [base, base+s) hash EQUAL to strip 0's marks at [0, s) when the
/// (element, iteration - base) pattern matches — the moment sums rebase
/// exactly, and min/max indices are identical by construction.
TEST(PDCacheSignature, BaseRebaseInvariance) {
  PDAccessSummary s0, s1;
  const long base = 7 * 512;
  for (long j = 0; j < 512; ++j) {
    s0.note_write(j, static_cast<std::size_t>(j % 64));
    s1.note_write(base + j, static_cast<std::size_t>(j % 64));
    if (j % 3 == 0) {
      s0.note_exposed_read(j, static_cast<std::size_t>(j % 64));
      s1.note_exposed_read(base + j, static_cast<std::size_t>(j % 64));
    }
  }
  const AccessSignature a = pdcache::make_signature(s0, 0, 512, 1);
  const AccessSignature b = pdcache::make_signature(s1, base, 512, 1);
  EXPECT_TRUE(same_sig(a, b));
}

/// Worker-split invariance: the same mark multiset accumulated into two
/// per-worker summaries and merged hashes equal to the single-summary fold
/// (everything is a commutative sum / min / max).
TEST(PDCacheSignature, ScheduleInvariance) {
  PDAccessSummary whole, w0, w1;
  for (long j = 0; j < 256; ++j) {
    const auto idx = static_cast<std::size_t>((j * 17) % 96);
    whole.note_write(j, idx);
    (j % 2 == 0 ? w0 : w1).note_write(j, idx);
  }
  w0.merge(w1);
  EXPECT_TRUE(same_sig(pdcache::make_signature(whole, 0, 256, 0),
                       pdcache::make_signature(w0, 0, 256, 0)));
}

TEST(PDCacheSignature, DiscriminatesPatterns) {
  PDAccessSummary s0;
  for (long j = 0; j < 128; ++j) s0.note_write(j, static_cast<std::size_t>(j));
  const AccessSignature base_sig = pdcache::make_signature(s0, 0, 128, 2);

  {  // one element differs
    PDAccessSummary s;
    for (long j = 0; j < 128; ++j)
      s.note_write(j, static_cast<std::size_t>(j == 77 ? 78 : j));
    EXPECT_FALSE(same_sig(pdcache::make_signature(s, 0, 128, 2), base_sig));
  }
  {  // same elements, two iterations swapped (idx<->iter binding)
    PDAccessSummary s;
    for (long j = 0; j < 128; ++j) {
      long it = j;
      if (j == 3) it = 4;
      if (j == 4) it = 3;
      s.note_write(it, static_cast<std::size_t>(j));
    }
    EXPECT_FALSE(same_sig(pdcache::make_signature(s, 0, 128, 2), base_sig));
  }
  {  // a write turned into an exposed read
    PDAccessSummary s;
    for (long j = 0; j < 128; ++j) {
      if (j == 50)
        s.note_exposed_read(j, static_cast<std::size_t>(j));
      else
        s.note_write(j, static_cast<std::size_t>(j));
    }
    EXPECT_FALSE(same_sig(pdcache::make_signature(s, 0, 128, 2), base_sig));
  }
  // Different relative trip or write density: different verdict domain.
  EXPECT_FALSE(same_sig(pdcache::make_signature(s0, 0, 100, 2), base_sig));
  EXPECT_FALSE(same_sig(pdcache::make_signature(s0, 0, 128, 3), base_sig));
}

// ---- table semantics --------------------------------------------------------

PDVerdict fake_verdict(long w, long mw, long er, long cf) {
  PDVerdict v;
  v.written_elements = w;
  v.multi_written = mw;
  v.exposed_read_elements = er;
  v.conflicts = cf;
  return v;
}

AccessSignature sig_of(std::uint64_t n) {
  PDAccessSummary s;
  s.note_write(static_cast<long>(n % 1000), static_cast<std::size_t>(n));
  return pdcache::make_signature(s, 0, 1, 0);
}

TEST(PDCacheTable, HitMissInvalidate) {
  VerdictCache cache(64);
  const AccessSignature sig = sig_of(42);

  Verdict out;
  EXPECT_FALSE(cache.lookup(sig, &out));
  cache.insert(sig, Verdict::from(fake_verdict(10, 1, 2, 0)));
  ASSERT_TRUE(cache.lookup(sig, &out));
  EXPECT_EQ(out.pd.written_elements, 10);
  EXPECT_EQ(out.pd.multi_written, 1);
  EXPECT_EQ(out.pd.exposed_read_elements, 2);
  EXPECT_EQ(out.pd.conflicts, 0);
  EXPECT_FALSE(out.independent);   // multi_written != 0
  EXPECT_TRUE(out.doall_safe);     // conflicts == 0
  EXPECT_FALSE(out.doacross_chain);
  EXPECT_FALSE(cache.lookup(sig_of(43), &out));

  cache.invalidate_all();
  EXPECT_FALSE(cache.lookup(sig, &out));  // O(1) epoch bump dropped it

  const pdcache::CacheStats st = cache.stats();
  EXPECT_EQ(st.hits, 1);
  EXPECT_EQ(st.misses, 3);
  EXPECT_EQ(st.invalidations, 1);
  EXPECT_EQ(st.bytes, cache.memory_bytes());
  EXPECT_GE(cache.capacity(), 64u);
}

TEST(PDCacheTable, LossyInsertNeverCorrupts) {
  VerdictCache cache(16);  // far more signatures than slots
  for (std::uint64_t n = 0; n < 500; ++n)
    cache.insert(sig_of(n), Verdict::from(fake_verdict(static_cast<long>(n),
                                                       0, 0, 0)));
  long hits = 0;
  for (std::uint64_t n = 0; n < 500; ++n) {
    Verdict out;
    if (cache.lookup(sig_of(n), &out)) {
      ++hits;
      // A hit must return THAT signature's verdict, never another's.
      EXPECT_EQ(out.pd.written_elements, static_cast<long>(n));
    }
  }
  EXPECT_GT(hits, 0);        // the table retained something
  EXPECT_LE(hits, 16);       // ...but at most its capacity
}

TEST(PDCacheEpochWrap, RecycledSlotsAfterSweep) {
  VerdictCache cache(32);
  const AccessSignature sig = sig_of(7);
  cache.insert(sig, Verdict::from(fake_verdict(1, 0, 0, 0)));
  Verdict out;
  ASSERT_TRUE(cache.lookup(sig, &out));

  // Park the epoch one bump before the 32-bit wrap: the jump itself sweeps
  // (dropping the entry), and the NEXT invalidations cross 2^32.
  cache.jump_epoch_for_test(0xFFFFFFFEu);
  EXPECT_FALSE(cache.lookup(sig, &out));
  cache.insert(sig, Verdict::from(fake_verdict(2, 0, 0, 0)));
  ASSERT_TRUE(cache.lookup(sig, &out));
  EXPECT_EQ(out.pd.written_elements, 2);

  const long sweeps_before = cache.sweeps();
  cache.invalidate_all();  // -> 0xFFFFFFFF
  cache.invalidate_all();  // wraps: sweep, restart at 1
  EXPECT_EQ(cache.sweeps(), sweeps_before + 1);
  EXPECT_EQ(cache.epoch(), 1u);

  // Recycled slots under the restarted counter: no pre-wrap ghost may hit,
  // and fresh inserts work.
  EXPECT_FALSE(cache.lookup(sig, &out));
  cache.insert(sig, Verdict::from(fake_verdict(3, 0, 0, 0)));
  ASSERT_TRUE(cache.lookup(sig, &out));
  EXPECT_EQ(out.pd.written_elements, 3);
}

// ---- oracle: fused verdict == full PD verdict on every strip ----------------

void expect_same_verdict(const PDVerdict& a, const PDVerdict& b, long strip) {
  EXPECT_EQ(a.written_elements, b.written_elements) << "strip " << strip;
  EXPECT_EQ(a.multi_written, b.multi_written) << "strip " << strip;
  EXPECT_EQ(a.exposed_read_elements, b.exposed_read_elements)
      << "strip " << strip;
  EXPECT_EQ(a.conflicts, b.conflicts) << "strip " << strip;
}

/// Cross-check harness: run a strip loop by hand, and on EVERY strip compare
/// analyze_with_cache (which may serve a memoized verdict) against a direct
/// full analysis of the same shadow state.  Covers steady-state repeats
/// (hits), a marching pattern (all misses — the adversarial case), and a
/// conflicting pattern (non-trivial PD counts served from the cache).
TEST(PDCacheOracle, FusedVerdictEqualsFullVerdictOnEveryStrip) {
  ThreadPool pool(4);
  const long n = 1024, strip = 128, strips = 24;
  VerdictCache cache;
  SpecArray<double> arr(std::vector<double>(static_cast<std::size_t>(n), 0.0),
                        pool.size(), true);
  arr.enable_access_signatures(true);
  SpecTarget* t = &arr;

  long hits_total = 0;
  for (long k = 0; k < strips; ++k) {
    const long base = k * strip, end = base + strip;
    t->reset_marks();
    for (long i = base; i < end; ++i) {
      arr.begin_iteration(0, i);
      const long rel = i - base;
      if (k < 8) {
        // Steady state: same relative pattern every strip -> hits after
        // strip 0, including exposed reads and repeated writes.
        arr.set(0, i, static_cast<std::size_t>(rel % 64), 1.0);
        if (rel % 4 == 0)
          (void)arr.get(0, static_cast<std::size_t>((rel + 32) % 64));
      } else if (k < 16) {
        // Marching/adversarial: the touched window moves with the absolute
        // iteration, so every strip's signature is new.
        arr.set(0, i, static_cast<std::size_t>(i % n), 1.0);
      } else {
        // Steady state with genuine cross-iteration conflicts: iteration
        // rel reads what rel-1 wrote.  The memoized verdict must carry the
        // full non-trivial counts.
        if (rel > 0) (void)arr.get(0, static_cast<std::size_t>(rel - 1));
        arr.set(0, i, static_cast<std::size_t>(rel), 1.0);
      }
    }
    bool hit = false;
    const PDVerdict fused =
        pdcache::analyze_with_cache(&cache, *t, pool, base, end, &hit);
    const PDVerdict full = t->analyze(pool, end);
    expect_same_verdict(fused, full, k);
    if (hit) ++hits_total;
  }
  // 8 steady strips (7 repeats) + 8 conflict strips (7 repeats) must hit;
  // the 8 marching strips must all miss.
  EXPECT_EQ(hits_total, 14);
  EXPECT_EQ(cache.stats().misses, strips - 14);
}

// ---- driver integration -----------------------------------------------------

TEST(PDCacheDriver, StripDriverSteadyStateHitsWithIdenticalResults) {
  ThreadPool pool(4);
  const long n = 4096, strip = 512;
  auto run = [&](VerdictCache* cache) {
    SpecArray<double> arr(
        std::vector<double>(static_cast<std::size_t>(n), 0.0), pool.size(),
        true);
    SpecTarget* targets[] = {&arr};
    SpecOptions opts;
    opts.verdict_cache = cache;
    const StripSpecReport r = strip_speculative_while(
        pool, n, strip, std::span<SpecTarget* const>(targets, 1),
        [&](long i, unsigned vpn) {
          arr.begin_iteration(vpn, i);
          arr.set(vpn, i, static_cast<std::size_t>(i % strip),
                  static_cast<double>(i));
          return IterAction::kContinue;
        },
        [&](long, long end) { return end; }, opts);
    return std::make_pair(r, arr.data());
  };

  VerdictCache cache;
  const auto [with_cache, data_cached] = run(&cache);
  const auto [without, data_plain] = run(nullptr);

  EXPECT_EQ(with_cache.exec.trip, without.exec.trip);
  EXPECT_EQ(data_cached, data_plain);
  EXPECT_EQ(with_cache.strips_failed, 0);
  EXPECT_EQ(with_cache.exec.verdict_probes, with_cache.strips_run);
  // Same relative pattern every strip: everything after strip 0 hits.
  EXPECT_EQ(with_cache.exec.verdict_hits, with_cache.strips_run - 1);
  EXPECT_EQ(without.exec.verdict_probes, 0);
}

TEST(PDCacheDriver, MisspeculationInvalidatesCache) {
  ThreadPool pool(4);
  const long n = 1024, strip = 256;
  VerdictCache cache;
  SpecArray<double> arr(std::vector<double>(static_cast<std::size_t>(n), 0.0),
                        pool.size(), true);
  SpecTarget* targets[] = {&arr};
  SpecOptions opts;
  opts.verdict_cache = &cache;

  const StripSpecReport r = strip_speculative_while(
      pool, n, strip, std::span<SpecTarget* const>(targets, 1),
      [&](long i, unsigned vpn) {
        arr.begin_iteration(vpn, i);
        if (i >= 512 && i < 768) {
          // Strip 2 carries a flow dependence through slot 0.
          arr.set(vpn, i, 0, arr.get(vpn, 0) + 1.0);
        } else {
          arr.set(vpn, i, static_cast<std::size_t>(i % strip), 1.0);
        }
        return IterAction::kContinue;
      },
      [&](long base, long end) {
        for (long i = base; i < end; ++i) arr.data()[0] += 1.0;
        return end;
      },
      opts);

  EXPECT_EQ(r.strips_failed, 1);
  EXPECT_GE(cache.stats().invalidations, 1L);
  // The strips after the failure re-miss (their memoized verdicts were
  // dropped), then resume hitting: strip 0 miss, strip 1 hit, strip 2
  // fails (probe + invalidate), strip 3 misses again.
  EXPECT_EQ(r.exec.trip, n);
}

TEST(PDCacheDriver, SpeculativeWhileReusesCacheAcrossRounds) {
  ThreadPool pool(4);
  const long u = 600;
  VerdictCache cache;
  SpecArray<double> arr(std::vector<double>(1024, 0.0), pool.size(), true);
  SpecTarget* targets[] = {&arr};
  SpecOptions opts;
  opts.verdict_cache = &cache;

  auto round = [&] {
    return speculative_while(
        pool, u, std::span<SpecTarget* const>(targets, 1),
        [&](long i, unsigned vpn) {
          arr.begin_iteration(vpn, i);
          arr.set(vpn, i, static_cast<std::size_t>(i), 1.0);
          return IterAction::kContinue;
        },
        [&] { return u; }, opts);
  };

  const ExecReport r0 = round();
  const ExecReport r1 = round();
  EXPECT_TRUE(r0.pd_passed);
  EXPECT_TRUE(r1.pd_passed);
  EXPECT_EQ(r0.verdict_probes, 1);
  EXPECT_EQ(r0.verdict_hits, 0);
  EXPECT_EQ(r1.verdict_hits, 1);  // identical round, memoized verdict
}

TEST(PDCacheDriver, SlidingWindowConsultsCache) {
  ThreadPool pool(4);
  const long u = 512;
  VerdictCache cache;
  SpecArray<double> arr(std::vector<double>(1024, 0.0), pool.size(), true);
  SpecTarget* targets[] = {&arr};
  WindowOptions wopts;
  wopts.window = 64;
  wopts.verdict_cache = &cache;

  auto round = [&] {
    return sliding_window_speculative_while(
        pool, u, std::span<SpecTarget* const>(targets, 1),
        [&](long i, unsigned vpn) {
          arr.begin_iteration(vpn, i);
          arr.set(vpn, i, static_cast<std::size_t>(i), 2.0);
          return IterAction::kContinue;
        },
        [&] { return u; }, wopts);
  };

  const WindowReport r0 = round();
  const WindowReport r1 = round();
  EXPECT_TRUE(r0.exec.pd_passed);
  EXPECT_EQ(r0.exec.verdict_probes, 1);
  EXPECT_EQ(r1.exec.verdict_hits, 1);
  for (long i = 0; i < u; ++i)
    EXPECT_EQ(arr.data()[static_cast<std::size_t>(i)], 2.0);
}

TEST(PDCacheDriver, SharedShadowPolicyBypassesCache) {
  ThreadPool pool(2);
  VerdictCache cache;
  // The shared-policy shadow has no summary support: access_summary() stays
  // false and analyze_with_cache must fall through to the full analysis.
  SpecArray<double, PDSharedShadow> arr(std::vector<double>(64, 0.0),
                                        pool.size(), true);
  SpecTarget* t = &arr;
  t->enable_access_signatures(true);  // must be a harmless no-op
  t->reset_marks();
  arr.begin_iteration(0, 0);
  arr.set(0, 0, 3, 1.0);
  bool hit = true;
  const PDVerdict v = pdcache::analyze_with_cache(&cache, *t, pool, 0, 1, &hit);
  EXPECT_FALSE(hit);
  EXPECT_EQ(v.written_elements, 1);
  EXPECT_EQ(cache.stats().hits + cache.stats().misses, 0);  // never probed
}

// ---- dirty-block write density ----------------------------------------------

TEST(PDCacheDirtyBlocks, DenseStampsAndSparseBackupAgreeOnUnits) {
  ThreadPool pool(2);
  SpecArray<double> dense(std::vector<double>(1024, 0.0), pool.size(), false);
  SpecTarget* td = &dense;
  EXPECT_EQ(td->dirty_block_count(), 0);
  SpecTransaction txn(std::span<SpecTarget* const>(&td, 1));
  txn.begin(nullptr);
  // 130 writes into the first 130 elements: blocks 0 and 1 full, block 2
  // partially touched -> 3 dirty 64-element blocks.
  for (long i = 0; i < 130; ++i)
    dense.set(0, i, static_cast<std::size_t>(i), 1.0);
  EXPECT_EQ(td->dirty_block_count(), 3);
  td->reset_marks();  // epoch bump clears the stamps
  EXPECT_EQ(td->dirty_block_count(), 0);

  AdaptiveSpecArray<double> sparse(std::vector<double>(1 << 16, 0.0),
                                   pool.size(), 256, false);
  ASSERT_EQ(sparse.backup_kind(), BackupKind::kHash);
  SpecTarget* ts = &sparse;
  EXPECT_EQ(ts->dirty_block_count(), 0);
  // Stride 503: 129 * 503 = 64887 keeps every index inside the 2^16 array.
  for (long i = 0; i < 130; ++i)
    sparse.set(0, i, static_cast<std::size_t>(i * 503), 1.0);
  // 130 distinct recorded locations -> ceil(130/64) = 3 blocks-equivalent.
  EXPECT_EQ(ts->dirty_block_count(), 3);
  ts->reset_marks();
  EXPECT_EQ(ts->dirty_block_count(), 0);

  // The base-class default (no override): 0.
  EXPECT_EQ(HashBackup<double>(64).dirty_block_count(), 0);
}

// ---- concurrency (the TSan target) ------------------------------------------

TEST(PDCacheStress, ConcurrentStripsSharingOneCache) {
  ThreadPool pool(4);
  VerdictCache cache(128);
  std::atomic<long> hits{0};
  const long tasks = 4000;
  // Workers concurrently probe/insert 32 recurring signatures while every
  // 512th task invalidates the whole table — the racing lookup/insert/
  // invalidate triangle the slot tags are designed for.
  doall(pool, 0, tasks, [&](long i, unsigned) {
    if (i % 512 == 0) {
      cache.invalidate_all();
      return;
    }
    PDAccessSummary s;
    const long pattern = i % 32;
    for (long j = 0; j < 16; ++j)
      s.note_write(j, static_cast<std::size_t>(pattern * 16 + j));
    const AccessSignature sig = pdcache::make_signature(s, 0, 16, 0);
    Verdict out;
    if (cache.lookup(sig, &out)) {
      hits.fetch_add(1, std::memory_order_relaxed);
      ASSERT_EQ(out.pd.written_elements, pattern);  // never another's payload
    } else {
      cache.insert(sig, Verdict::from(fake_verdict(pattern, 0, 0, 0)));
    }
  });
  const pdcache::CacheStats st = cache.stats();
  EXPECT_EQ(st.hits, hits.load());
  EXPECT_EQ(st.hits + st.misses, tasks - (tasks + 511) / 512);
  EXPECT_GT(st.hits, 0);
}

TEST(PDCacheStress, ConcurrentDriversSharingOneCache) {
  ThreadPool pool(4);
  VerdictCache cache;
  const long n = 512, strip = 128;
  // Two strip loops over separate arrays sharing ONE cache, run back to
  // back from worker threads via std::thread to overlap their probes.
  auto run_loop = [&](double tag) {
    ThreadPool local(2);
    SpecArray<double> arr(
        std::vector<double>(static_cast<std::size_t>(n), 0.0), local.size(),
        true);
    SpecTarget* targets[] = {&arr};
    SpecOptions opts;
    opts.verdict_cache = &cache;
    const StripSpecReport r = strip_speculative_while(
        local, n, strip, std::span<SpecTarget* const>(targets, 1),
        [&](long i, unsigned vpn) {
          arr.begin_iteration(vpn, i);
          arr.set(vpn, i, static_cast<std::size_t>(i % strip), tag);
          return IterAction::kContinue;
        },
        [&](long, long end) { return end; }, opts);
    EXPECT_EQ(r.exec.trip, n);
    EXPECT_EQ(r.strips_failed, 0);
  };
  std::thread t1([&] { run_loop(1.0); });
  std::thread t2([&] { run_loop(2.0); });
  t1.join();
  t2.join();
  const pdcache::CacheStats st = cache.stats();
  EXPECT_EQ(st.hits + st.misses, 2 * (n / strip));
  EXPECT_GT(st.hits, 0);  // at least the later loop's repeats hit
}

// ---- steady-state allocations -----------------------------------------------

TEST(PDCacheSteadyState, WarmStripLoopAllocatesNothing) {
  ThreadPool pool(4);
  const long n = 32 * 256, strip = 256;
  VerdictCache cache;
  SpecArray<double> arr(std::vector<double>(static_cast<std::size_t>(n), 0.0),
                        pool.size(), true);
  SpecTarget* targets[] = {&arr};
  SpecOptions opts;
  opts.verdict_cache = &cache;
  // Static issue: every worker deterministically participates in every
  // round, so the warm runs first-touch ALL lazily-built per-worker state
  // (arena blocks, pooled backups) before the measured window opens.
  opts.doall.sched = Sched::kStaticCyclic;
  auto run_once = [&] {
    return strip_speculative_while(
        pool, n, strip, std::span<SpecTarget* const>(targets, 1),
        [&](long i, unsigned vpn) {
          arr.begin_iteration(vpn, i);
          arr.set(vpn, i, static_cast<std::size_t>(i % strip), 1.0);
          return IterAction::kContinue;
        },
        [&](long, long end) { return end; }, opts);
  };
  (void)run_once();  // warm: table slots, shadow segments, pooled backups
  (void)run_once();
  const mem::BudgetSnapshot s0 = mem::Budget::process().snapshot();
  long hits = 0;
  for (int round = 0; round < 10; ++round) {
    const StripSpecReport r = run_once();
    ASSERT_EQ(r.strips_failed, 0);
    hits += r.exec.verdict_hits;
  }
  const mem::BudgetSnapshot s1 = mem::Budget::process().snapshot();
  EXPECT_EQ(s1.arena_allocs - s0.arena_allocs, 0);
  EXPECT_EQ(s1.slow_allocs - s0.slow_allocs, 0);
  // And the warm rounds really were served by the cache, every strip.
  EXPECT_EQ(hits, 10 * (n / strip));
}

}  // namespace
}  // namespace wlp
