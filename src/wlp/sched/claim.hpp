// Self-scheduled claims from a shared issue counter.
//
// The paper's self-scheduled methods — the kDynamic DOALL under Induction-2,
// speculation and DOANY (sched/doall.hpp), and General-3's private list
// replay (core/while_general.hpp) — all hand out iterations from one shared
// counter.  Section 7 assumes a claim is cheap next to an iteration; on the
// paper's own loops an iteration lasts 45-130 ns, about what one contended
// fetch_add on the counter's cache line costs.  claim_loop is the one claim
// primitive both use, and it sizes claims in one of two ways:
//
//   * chunk >= 1 — fixed: every claim takes exactly `chunk` iterations (the
//     Alliant's one-iteration-per-grab issue at chunk 1).
//   * chunk == 0 — self-sized: each worker starts at one iteration, reads the
//     clock once per claim, doubles its next claim while the last one ran
//     for less than kClaimTarget, and halves it when the last one ran over
//     4 x kClaimTarget.  A cheap loop thus settles at claims of roughly
//     kClaimTarget to 2 x kClaimTarget of work, and a loop whose iterations
//     already cost more than the target keeps claiming one at a time.
//
// Claims are monotone in both modes: the counter only grows, so iterations
// are still issued in order.  The caller's per-iteration QUIT cut inside a
// claim stays, so trip, exactly-once execution and undo are unchanged.  What
// a larger claim can add is overshoot: iterations above the exit that other
// workers run before the exiting iteration itself is reached inside its
// claim, bounded in time by about (p - 1) x the claim duration.
#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>

#include "wlp/obs/obs.hpp"

namespace wlp {

/// DoallOptions::chunk value that selects self-sized claims.
inline constexpr long kSelfSizedClaims = 0;

/// Work a self-sized claim aims at.  Chosen from a sweep of 2-128 us on the
/// paper's loops (DESIGN.md §6): 2 us leaves SPICE and TRACK well short of
/// the 8-128 us plateau, and 32 us sits inside it.
inline constexpr std::chrono::nanoseconds kClaimTarget{32'000};

/// Runs one worker's share of a self-scheduled loop over [.., u): claims
/// [base, end) from `next` and calls `run(base, end)` until the range is
/// exhausted, `stop(base)` holds for a claim's first iteration, or `run`
/// returns false.  `chunk` is fixed (>= 1) or kSelfSizedClaims.  Returns the
/// number of claims that yielded work.
template <class Stop, class Run>
long claim_loop(std::atomic<long>& next, long u, long chunk, Stop&& stop,
                Run&& run) {
  using Clock = std::chrono::steady_clock;
  constexpr long kMaxClaim = 1L << 20;  // keeps base + take far from overflow
  const bool sized = chunk <= 0;
  long take = sized ? 1 : chunk;
  long claims = 0;
  Clock::time_point t0 = sized ? Clock::now() : Clock::time_point{};
  for (;;) {
    const long base = next.fetch_add(take, std::memory_order_relaxed);
    if (base >= u || stop(base)) return claims;
    ++claims;
    {
      WLP_TRACE_SCOPE("claim", base, take);
      if (!run(base, std::min(base + take, u))) return claims;
    }
    if (sized) {
      const Clock::time_point t1 = Clock::now();
      const auto ran = t1 - t0;
      t0 = t1;
      if (ran < kClaimTarget)
        take = std::min(take * 2, kMaxClaim);
      else if (ran > 4 * kClaimTarget)
        take = std::max(1L, take / 2);
    }
  }
}

/// Publish one self-scheduled loop's claim traffic, once per loop (never per
/// iteration).  Every method that issues from a shared counter reports under
/// these two names, so claims per started iteration reads the same for all.
inline void publish_claims([[maybe_unused]] long claims,
                           [[maybe_unused]] long started) {
  WLP_OBS_COUNT("wlp.doall.claims", claims);
  WLP_OBS_COUNT("wlp.doall.started", started);
}

}  // namespace wlp
