// Speculative parallel execution of WHILE loops with unknown cross-iteration
// dependences — Section 5.
//
// The compiler (or the user, through this API) cannot prove the remainder
// independent, so the loop runs speculatively as a DOALL with the PD test's
// shadow marking woven into every access.  spec_round() below is the one
// speculation round — checkpoint, run, trip-filtered PD test, then undo of
// the overshoot or a full restore and sequential re-run — that every
// checkpointing driver (this file, speculative_strips.hpp, sliding_window.hpp,
// strategies.hpp) calls.
//
// All targets of one loop run under ONE SpecTransaction (txn.hpp): one
// fused checkpoint pass, one fused undo pass, one set of wlp.undo.* obs
// publications — regardless of how many arrays the loop speculates over.
// The SpecTarget interface itself lives in spec_target.hpp.
#pragma once

#include <algorithm>
#include <chrono>
#include <memory>
#include <span>
#include <vector>

#include "wlp/obs/obs.hpp"
#include "wlp/core/report.hpp"
#include "wlp/core/shadow.hpp"
#include "wlp/core/spec_target.hpp"
#include "wlp/core/txn.hpp"
#include "wlp/core/versioned_array.hpp"
#include "wlp/pd/verdict_cache.hpp"
#include "wlp/sched/doall.hpp"
#include "wlp/support/cacheline.hpp"

namespace wlp {

/// A shared array under speculation: versioned data + (optionally) a PD
/// shadow with one accessor per worker.  Loop bodies use the vpn-qualified
/// get/set, which both maintain the stamps and drive the shadow marking.
///
/// `Shadow` selects the marking policy: `PDPrivateShadow` (default) marks
/// into per-worker private segments with plain stores and merges at analyze
/// time; `PDSharedShadow` is the old striped-lock shared structure, kept for
/// A/B comparison in benches.
///
/// The stamp index and the shadow live in an AccessPattern.  An array built
/// with the first constructor owns a fresh one; a trip-aligned sibling
/// (same subscript, same iterations — see AccessPattern) is built over the
/// owner's shared_pattern() and then pays no stamp words, no shadow and no
/// PD marks of its own: its write finds the stamp and the mark that the
/// owner's write of the same element in the same iteration already made.
template <class T, class Shadow = PDPrivateShadow>
class SpecArray final : public SpecTarget {
 public:
  using Pattern = AccessPattern<Shadow>;

  /// `run_pd_test` = false means the accesses are statically analyzable
  /// (only time-stamping for undo is needed, no shadow marking) — the
  /// accessors are not even built.
  SpecArray(std::vector<T> init, unsigned workers, bool run_pd_test)
      : pattern_(std::make_shared<Pattern>(init.size(), workers, run_pd_test)),
        array_(std::move(init), pattern_->index()) {
    make_writers();
  }

  /// A sibling over `pattern` (another SpecArray's shared_pattern()): its
  /// worker count and PD setting are the pattern's.
  SpecArray(std::vector<T> init, std::shared_ptr<Pattern> pattern)
      : pattern_(std::move(pattern)), array_(std::move(init), pattern_->index()) {
    make_writers();
  }

  // ---- body-side API -----------------------------------------------------

  /// Must be called by the body at the top of every iteration, per worker.
  void begin_iteration(unsigned vpn, long iter) {
    pattern_->begin_iteration(vpn, iter);
  }

  T get(unsigned vpn, std::size_t idx) {
    pattern_->on_read(vpn, idx);
    return array_.get(idx);
  }

  void set(unsigned vpn, long iter, std::size_t idx, const T& v) {
    pattern_->on_write(vpn, idx);
    // Per-worker Writer view: consecutive writes into the same 64-element
    // block skip the dirty-summary publication entirely.
    writers_[static_cast<std::size_t>(vpn)].value.write(iter, idx, v);
  }

  // ---- sequential-side API (fallback path, verification) ------------------

  std::vector<T>& data() noexcept { return array_.data(); }
  const std::vector<T>& data() const noexcept { return array_.data(); }

  /// The access pattern, for constructing trip-aligned siblings over it.
  const std::shared_ptr<Pattern>& shared_pattern() const noexcept {
    return pattern_;
  }

  // ---- SpecTarget ----------------------------------------------------------

  bool shadowed() const override { return pattern_->shadowed(); }
  PDVerdict analyze(ThreadPool& pool, long trip) const override {
    return pattern_->analyze(pool, trip);
  }
  void reset_marks() override {
    // The owner (the index's clearer) resets the shared state once per
    // round: the shadow and accessors, and the stamps by an epoch bump.
    if (array_.clearer()) pattern_->reset();
    array_.clear_stamps();
    // The Writers' cached blocks belong to the dead epoch: rebind so the
    // first write of the new run re-publishes its dirty bit.
    for (auto& w : writers_) w.value.rebind();
  }
  long marks() const override { return pattern_->marks(); }
  const void* shadow_key() const override { return pattern_.get(); }
  std::size_t memory_bytes() const override { return array_.memory_bytes(); }
  void discard() override { array_.discard_checkpoint(); }

  // ---- verdict-cache hooks -------------------------------------------------

  void enable_access_signatures(bool on) override {
    pattern_->enable_signatures(on);
  }
  bool access_summary(PDAccessSummary* out) const override {
    return pattern_->access_summary(out);
  }
  long dirty_block_count() const override {
    return array_.dirty_block_count();
  }

  // ---- fused-transaction hooks --------------------------------------------

  StampIndex* txn_index() noexcept override { return array_.index(); }
  std::size_t txn_checkpoint_begin() override {
    return array_.txn_checkpoint_begin();
  }
  void txn_checkpoint_span(std::size_t b, std::size_t e) override {
    array_.txn_checkpoint_span(b, e);
  }
  long txn_restore_span(std::size_t b, std::size_t e,
                        std::uint64_t threshold) override {
    return array_.restore_span(b, e, threshold);
  }
  void txn_restore_all_span(std::size_t b, std::size_t e) override {
    array_.txn_restore_all_span(b, e);
  }
  void txn_restore_all_done() override { array_.clear_stamps(); }

  UndoStats undo_stats() const { return array_.stats(); }

 private:
  void make_writers() {
    const unsigned workers = pattern_->workers();
    writers_.reserve(workers);
    for (unsigned w = 0; w < workers; ++w)
      writers_.emplace_back(array_.writer());
  }

  std::shared_ptr<Pattern> pattern_;
  VersionedArray<T> array_;
  /// One dirty-block-caching write view per worker, cache-line padded (the
  /// cached block index mutates on nearly every write).
  std::vector<Padded<typename VersionedArray<T>::Writer>> writers_;
};

struct SpecOptions {
  DoallOptions doall{};
  /// Memory budget for the transaction's measured footprint (0 = none).
  /// The strip driver adapts its strip length against it — halving the next
  /// strip when the fused memory_bytes() poll crosses half the budget,
  /// growing back additively while comfortable — so callers stop wiring
  /// per-target byte probes by hand; the drivers ask the transaction.
  std::size_t memory_budget = 0;
  /// Optional cross-strip verdict memoization (pd/verdict_cache.hpp).  Each
  /// round enables signature accumulation on every target, consults the
  /// cache before each PD analysis, and invalidates it on misspeculation or
  /// a footprint flip.  nullptr = always run the full analysis.
  pdcache::VerdictCache* verdict_cache = nullptr;
};

/// What one speculation round hands back to its driver.
struct SpecRound {
  bool passed = false;  ///< the parallel run was valid and is committed
  long trip = 0;        ///< QUIT trip, or the sequential re-run's on failure
  long started = 0;     ///< speculative bodies the round executed
  long claims = 0;      ///< scheduler grabs (QuitResult::claims)
  std::size_t pinned_bytes = 0;  ///< footprint polled after the parallel run
};

/// One speculation round over [base, end) — the Section 5 sequence every
/// checkpointing driver shares (DESIGN.md §12):
///
///   checkpoint -> run() -> marks and footprint poll -> overflow check ->
///   footprint-flip check -> PD / verdict-cache probe of every shadowed
///   target (trip-filtered, relative to `base`).
///
/// The round FAILS on an exception from run() (Section 5.1), a backup
/// overflow, a trip below `stamped_from` (those iterations wrote unstamped,
/// Section 8.1), or a PD miss: the verdict cache is dropped, every target is
/// restored in full and `run_sequential(base, end) -> trip` re-runs the
/// range.  A passed round undoes the overshoot when the trip falls inside
/// [base, end) and otherwise commits.  Either way the round adds its phase
/// times, marks and counts to `r`, sets r.trip, and charges
/// max(0, started - (trip - base)) to r.overshot.  The PD test runs once per
/// distinct shadow (SpecTransaction::shadowed_targets), so siblings over
/// one AccessPattern are analysed together.
///
/// `run() -> QuitResult` is the speculative parallel execution of the range;
/// as a template parameter its body stays inlined in the driver's DOALL.
template <class Run, class SeqRun>
SpecRound spec_round(ThreadPool& pool, SpecTransaction& txn,
                     std::span<SpecTarget* const> targets, long base, long end,
                     Run&& run, SeqRun&& run_sequential,
                     pdcache::VerdictCache* cache, ExecReport& r,
                     long stamped_from = 0) {
  WLP_TRACE_SCOPE("spec.round", end - base, targets.size());
  WLP_OBS_COUNT("wlp.spec.rounds", 1);
  r.used_checkpoint = true;
  r.used_stamps = true;
  if (cache != nullptr)
    for (SpecTarget* t : targets) t->enable_access_signatures(true);
  const long footprint0 = txn.footprint_epochs();
  {
    WLP_TRACE_SCOPE("spec.checkpoint", end - base, 0);
    const auto t0 = std::chrono::steady_clock::now();
    txn.begin(&pool);
    r.checkpoint_ns += detail::spec_ns_since(t0);
  }

  SpecRound out;
  bool failed = false;
  try {
    const QuitResult qr = run();
    out.trip = qr.trip;
    out.started = qr.started;
    out.claims = qr.claims;
  } catch (...) {
    failed = true;
    WLP_OBS_COUNT("wlp.spec.exceptions", 1);
  }

  // Marks are counted in per-worker counters during the run and folded here,
  // off the hot path.  The backups are at their fullest right after the
  // parallel section, so one fused poll is the round's measured peak.
  const long marks = txn.marks();
  r.shadow_marks += marks;
  WLP_OBS_COUNT("wlp.pd.marks", marks);
  out.pinned_bytes = txn.memory_bytes();
  r.peak_spec_bytes = std::max(r.peak_spec_bytes, out.pinned_bytes);

  // A sparse backup that hit capacity dropped writes: the run is incomplete
  // whatever the PD test says (the backup still restores the exact pre-loop
  // state, because overflowing writers skipped their data store too).
  if (txn.overflowed()) {
    r.backup_overflow = true;
    failed = true;
    WLP_OBS_COUNT("wlp.spec.backup_overflow", 1);
  }
  // A backend flip (AdaptiveSpecArray hash <-> dense) changes the write
  // density the signatures embed: drop memoized verdicts from before it.
  if (cache != nullptr && txn.footprint_epochs() != footprint0)
    cache->invalidate_all();
  if (!failed && out.trip < stamped_from) {
    failed = true;
    WLP_OBS_COUNT("wlp.spec.abandoned", 1);
  }

  if (!failed && !txn.shadowed_targets().empty()) {
    WLP_TRACE_SCOPE("pd.analyze", out.trip, 0);
    const auto t0 = std::chrono::steady_clock::now();
    bool passed = true;
    // Siblings sharing one AccessPattern are one entry here: their shadow
    // is analysed once.
    for (SpecTarget* t : txn.shadowed_targets()) {
      bool hit = false;
      const PDVerdict v =
          pdcache::analyze_with_cache(cache, *t, pool, base, out.trip, &hit);
      if (cache != nullptr) {
        ++r.verdict_probes;
        if (hit) ++r.verdict_hits;
      }
      if (!v.fully_parallel()) passed = false;
    }
    r.analyze_ns += detail::spec_ns_since(t0);
    r.pd_tested = true;
    r.pd_passed = r.pd_passed && passed;
    failed = !passed;
    WLP_OBS_COUNT(passed ? "wlp.spec.pd_pass" : "wlp.spec.pd_fail", 1);
  }

  if (failed) {
    // Misspeculation: the loop's behaviour diverged from the memoized
    // patterns.  The restore is a full backup->data copy, never a
    // stamp-filtered undo, so unstamped writes are rolled back too.
    if (cache != nullptr) cache->invalidate_all();
    WLP_TRACE_SCOPE("spec.seq_reexec", end - base, 0);
    WLP_OBS_COUNT("wlp.spec.seq_reexec", 1);
    const auto t0 = std::chrono::steady_clock::now();
    txn.restore_all(&pool);
    const auto t1 = std::chrono::steady_clock::now();
    r.undo_ns += std::chrono::duration<double, std::nano>(t1 - t0).count();
    r.reexecuted_sequentially = true;
    out.trip = run_sequential(base, end);
    r.seq_ns += detail::spec_ns_since(t1);
  } else if (out.trip < end) {
    WLP_TRACE_SCOPE_NAMED(undo_scope, "undo", out.trip, 0);
    const auto t0 = std::chrono::steady_clock::now();
    const long undone = txn.undo_beyond(out.trip, &pool);
    r.undo_ns += detail::spec_ns_since(t0);
    r.undone_writes += undone;
    undo_scope.args(static_cast<std::uint64_t>(out.trip),
                    static_cast<std::uint64_t>(undone));
    WLP_OBS_HIST("wlp.spec.undo_writes", undone);
  } else {
    txn.discard();
  }

  out.passed = !failed;
  const long overshot = std::max(0L, out.started - (out.trip - base));
  r.trip = out.trip;
  r.started += out.started;
  r.overshot += overshot;
  WLP_OBS_HIST("wlp.spec.overshoot", overshot);
  return out;
}

/// Run a WHILE loop speculatively in parallel over [0, u): one spec_round.
///
/// `body(i, vpn) -> IterAction` is the instrumented parallel body: it must
/// route every access to the registered targets through their get/set and
/// call begin_iteration first.  `run_sequential() -> long` executes the loop
/// serially against the targets' raw data() and returns the trip count; it
/// is invoked only after a full restore when speculation fails.
template <class Body, class SeqRun>
ExecReport speculative_while(ThreadPool& pool, long u,
                             std::span<SpecTarget* const> targets, Body&& body,
                             SeqRun&& run_sequential, SpecOptions opts = {}) {
  ExecReport r;
  r.method = Method::kInduction2;
  SpecTransaction txn(targets);
  spec_round(
      pool, txn, targets, 0, u,
      [&] { return doall_quit(pool, 0, u, body, opts.doall); },
      [&](long, long) { return run_sequential(); }, opts.verdict_cache, r);
  return r;
}

}  // namespace wlp
