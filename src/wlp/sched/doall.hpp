// DOALL scheduling with Alliant-style QUIT semantics.
//
// The paper's transformed WHILE loops all execute as DOALLs over an upper
// bound `u` of the iteration space, with each processor recording the lowest
// iteration on which it observed the termination condition (Figure 2).  A
// QUIT issued by iteration q guarantees that no iteration with a larger loop
// counter is *begun* after the QUIT lands; iterations already in flight may
// complete (that is exactly the overshoot the undo machinery handles).
//
// Four schedules are provided:
//   * kDynamic      — self-scheduled from a shared counter (iterations are
//                     therefore *issued in order*, like the Alliant FX/80)
//                     through claim_loop (sched/claim.hpp): claims of a
//                     fixed `chunk`, or self-sized claims when chunk is 0.
//   * kStaticCyclic — iteration i goes to processor i mod p (General-2's
//                     static assignment).
//   * kStaticBlock  — contiguous blocks of u/p iterations per processor.
//   * kGuided       — guided self-scheduling (Polychronopoulos & Kuck):
//                     each grab claims max(remaining/p, chunk) iterations,
//                     so contention on the shared counter decays
//                     geometrically while the tail still load-balances at
//                     `chunk` granularity.  Issue order stays monotone, so
//                     QUIT semantics are identical to kDynamic.
#pragma once

#include <algorithm>
#include <atomic>
#include <limits>

#include "wlp/obs/obs.hpp"
#include "wlp/sched/claim.hpp"
#include "wlp/sched/thread_pool.hpp"
#include "wlp/support/cacheline.hpp"

namespace wlp {

/// What an iteration body tells the scheduler.
enum class IterAction {
  kContinue,   ///< keep going
  kExit,       ///< terminator held *before* this iteration's work: iteration
               ///< `i` itself is not part of the sequential execution
  kExitAfter,  ///< conditional exit taken *after* this iteration's work:
               ///< iteration `i` is the last valid one
};

enum class Sched { kDynamic, kStaticCyclic, kStaticBlock, kGuided };

struct DoallOptions {
  Sched sched = Sched::kDynamic;
  long chunk = kSelfSizedClaims;  ///< claim granularity for kDynamic (0 =
                                  ///< self-sized, see sched/claim.hpp; >= 1 =
                                  ///< fixed); floor for kGuided (0 acts as 1)
  bool use_quit = true; ///< honor the QUIT (false = machines without it:
                        ///< every iteration in [lo, u) executes, as in the
                        ///< unoptimized Induction-1 of Fig. 2)
};

/// Shared monotonically-decreasing cut bound (the QUIT).
class QuitBound {
 public:
  /// Record that iteration `i` requested termination.
  void quit(long i) noexcept {
    long cur = bound_.load(std::memory_order_relaxed);
    while (i < cur &&
           !bound_.compare_exchange_weak(cur, i, std::memory_order_acq_rel)) {
    }
  }

  /// True if iteration `i` must not be begun.
  bool cut(long i) const noexcept {
    return i >= bound_.load(std::memory_order_acquire);
  }

  long bound() const noexcept { return bound_.load(std::memory_order_acquire); }

  static constexpr long kUnset = std::numeric_limits<long>::max();

 private:
  std::atomic<long> bound_{kUnset};
};

struct QuitResult {
  long trip = 0;     ///< sequential trip count (first invalid iteration index)
  long started = 0;  ///< iterations whose body actually ran in the parallel run
  long claims = 0;   ///< grabs against the shared counter (1 per worker for
                     ///< the static schedules) — the contention metric the
                     ///< guided schedule exists to shrink
};

namespace detail {

/// Runs `body(i, vpn) -> IterAction` over [lo, u) under `opts`, honoring the
/// QUIT.  Returns per the contract of doall_quit below.
template <class Body>
QuitResult doall_quit_impl(ThreadPool& pool, long lo, long u, Body&& body,
                           const DoallOptions& opts) {
  const unsigned p = pool.size();
  QuitBound quit;
  // cut(i) respects opts.use_quit: a machine without QUIT executes every
  // iteration in [lo, u) and relies purely on the post-loop min-reduction.
  const auto cut = [&](long i) { return opts.use_quit && quit.cut(i); };
  // Per-processor minimum candidate trip count (the paper's L[vpn], Fig. 2),
  // and per-processor started-iteration counts.
  PerWorker<long> local_trip(p, std::numeric_limits<long>::max());
  PerWorker<long> local_started(p, 0);
  PerWorker<long> local_claims(p, 0);
  std::atomic<long> next{lo};

  auto run_iter = [&](long i, unsigned vpn) {
    ++local_started[vpn];
    switch (body(i, vpn)) {
      case IterAction::kContinue:
        break;
      case IterAction::kExit:
        local_trip[vpn] = std::min(local_trip[vpn], i);
        quit.quit(i);
        break;
      case IterAction::kExitAfter:
        local_trip[vpn] = std::min(local_trip[vpn], i + 1);
        quit.quit(i + 1);
        break;
    }
  };

  switch (opts.sched) {
    case Sched::kDynamic:
      pool.parallel([&](unsigned vpn) {
        local_claims[vpn] =
            claim_loop(next, u, opts.chunk, cut, [&](long base, long end) {
              for (long i = base; i < end; ++i) {
                if (cut(i) && i > base) return false;  // claim interior: stop
                run_iter(i, vpn);
              }
              return true;
            });
      });
      break;
    case Sched::kGuided:
      pool.parallel([&](unsigned vpn) {
        for (;;) {
          long base = next.load(std::memory_order_relaxed);
          long take;
          do {
            if (base >= u || cut(base)) return;
            take = std::max({1L, opts.chunk, (u - base) / static_cast<long>(p)});
          } while (!next.compare_exchange_weak(base, base + take,
                                               std::memory_order_relaxed));
          ++local_claims[vpn];
          WLP_TRACE_SCOPE("claim", base, take);
          const long end = std::min(base + take, u);
          for (long i = base; i < end; ++i) {
            if (cut(i) && i > base) return;  // chunk interior: stop early
            run_iter(i, vpn);
          }
        }
      });
      break;
    case Sched::kStaticCyclic:
      pool.parallel([&](unsigned vpn) {
        if (lo + vpn < u) ++local_claims[vpn];
        WLP_TRACE_SCOPE("claim", lo + vpn, u - lo);
        for (long i = lo + vpn; i < u; i += p) {
          if (cut(i)) return;
          run_iter(i, vpn);
        }
      });
      break;
    case Sched::kStaticBlock:
      pool.parallel([&](unsigned vpn) {
        const long n = u - lo;
        const long blk = (n + p - 1) / p;
        const long b = lo + static_cast<long>(vpn) * blk;
        const long e = std::min(b + blk, u);
        if (b < e) ++local_claims[vpn];
        WLP_TRACE_SCOPE("claim", b, e - b);
        for (long i = b; i < e; ++i) {
          if (cut(i)) return;
          run_iter(i, vpn);
        }
      });
      break;
  }

  QuitResult r;
  const long min_candidate =
      local_trip.reduce(std::numeric_limits<long>::max(),
                        [](long a, long b) { return std::min(a, b); });
  r.trip = std::min(min_candidate, u);
  r.started = local_started.reduce(0L, [](long a, long b) { return a + b; });
  r.claims = local_claims.reduce(0L, [](long a, long b) { return a + b; });
  // Aggregated once per DOALL (never per iteration): the claim-contention
  // and overshoot figures the cost model's schedule choice is judged by.
  WLP_OBS_COUNT("wlp.doall.runs", 1);
  publish_claims(r.claims, r.started);
  WLP_OBS_HIST("wlp.doall.overshoot", std::max(0L, r.started - r.trip));
  return r;
}

}  // namespace detail

/// Execute a WHILE loop body speculatively as a DOALL over [lo, u).
///
/// `body(i, vpn)` performs the termination test and the work for iteration
/// `i` and reports how the iteration ended.  The returned `trip` is the
/// sequential trip count: the minimum of `u` and all exit candidates, i.e.
/// exactly the iteration at which the original sequential loop would stop.
/// Iterations >= trip that ran anyway are the *overshoot*.
template <class Body>
QuitResult doall_quit(ThreadPool& pool, long lo, long u, Body&& body,
                      const DoallOptions& opts = {}) {
  return detail::doall_quit_impl(pool, lo, u, std::forward<Body>(body), opts);
}

/// Plain DOALL (no termination condition): body(i, vpn).
template <class Body>
void doall(ThreadPool& pool, long lo, long hi, Body&& body,
           const DoallOptions& opts = {}) {
  detail::doall_quit_impl(
      pool, lo, hi,
      [&](long i, unsigned vpn) {
        body(i, vpn);
        return IterAction::kContinue;
      },
      opts);
}

}  // namespace wlp
