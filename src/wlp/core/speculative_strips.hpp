// Strip-mined speculation — the closing case of Section 5.
//
// "If the termination condition of the WHILE loop is dependent (data or
// control) upon a variable with unknown dependences ... the last valid
// iteration of the loop might be incorrectly determined, or, even worse,
// the termination condition might never be met (an infinite loop).  In
// this situation, the best solution is probably to strip-mine the loop,
// and to run the PD test on each strip."
//
// strip_speculative_while() therefore runs one spec_round() per strip
// [base, base+s): a passed strip commits (undoing its overshoot if the loop
// ends inside it), a failed strip is restored and executed sequentially —
// which also re-evaluates the terminator against committed state — and
// speculation resumes on the next strip.
//
// Because each strip's exit decisions are validated before the next strip
// starts, a dependence-corrupted terminator can mislead the execution by
// at most one strip — and the sequential re-execution of that strip fixes
// it.  The strip length also bounds the time-stamp memory (Section 8.1).
#pragma once

#include <span>

#include "wlp/obs/obs.hpp"
#include "wlp/core/report.hpp"
#include "wlp/core/speculative.hpp"

namespace wlp {

struct StripSpecReport {
  ExecReport exec;
  long strips_run = 0;
  long strips_failed = 0;  ///< strips that fell back to sequential execution
  long claims = 0;         ///< scheduler grabs across all strips (see
                           ///< QuitResult::claims); guided opts.doall.sched
                           ///< shrinks this without changing strip semantics
  // Transaction-aware strip control (active when opts.memory_budget != 0):
  // the driver polls the transaction's fused memory_bytes() after every
  // strip and halves the NEXT strip when the measured footprint crosses
  // half the budget (committing more often pins less), growing back
  // additively while comfortable.  exec.peak_spec_bytes carries the max
  // polled value either way.
  long strip_shrinks = 0;  ///< times the next strip was halved
  long final_strip = 0;    ///< strip length in effect when the loop ended
};

/// `body(i, vpn) -> IterAction` is the instrumented parallel body (routes
/// accesses through the targets).  `run_strip_sequential(base, end) -> trip`
/// executes iterations [base, end) serially against raw data and returns
/// the trip count (== end when no exit fires inside the strip).
template <class Body, class SeqStrip>
StripSpecReport strip_speculative_while(ThreadPool& pool, long u, long strip,
                                        std::span<SpecTarget* const> targets,
                                        Body&& body, SeqStrip&& run_strip_sequential,
                                        SpecOptions opts = {}) {
  StripSpecReport out;
  out.exec.method = Method::kStripMined;
  if (strip <= 0) strip = u;

  // ONE transaction for the whole strip sequence: the chunk maps are built
  // once here, so every strip's begin/undo/restore allocates nothing.
  SpecTransaction txn(targets);

  long cur_strip = strip;
  out.final_strip = cur_strip;
  long base = 0;
  while (base < u) {
    const long end = std::min(base + cur_strip, u);
    ++out.strips_run;
    WLP_TRACE_SCOPE("strip", base, end - base);
    WLP_OBS_COUNT("wlp.strip.runs", 1);

    const SpecRound round = spec_round(
        pool, txn, targets, base, end,
        [&] { return doall_quit(pool, base, end, body, opts.doall); },
        run_strip_sequential, opts.verdict_cache, out.exec);
    out.claims += round.claims;
    if (!round.passed) {
      ++out.strips_failed;
      WLP_OBS_COUNT("wlp.strip.failures", 1);
    }

    // Resize the NEXT strip against the budget from the footprint the round
    // polled while the backups were at their fullest.
    if (opts.memory_budget != 0) {
      if (round.pinned_bytes * 2 > opts.memory_budget) {
        const long before = cur_strip;
        cur_strip = std::max(1L, cur_strip / 2);
        if (cur_strip != before) ++out.strip_shrinks;
      } else {
        cur_strip = std::min(strip, cur_strip + std::max(1L, strip / 8));
      }
      out.final_strip = cur_strip;
    }

    if (round.trip < end) return out;  // the loop ends inside this strip
    base = end;
  }
  return out;
}

}  // namespace wlp
