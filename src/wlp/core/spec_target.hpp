// The type-erased interface over one array participating in a speculation —
// split out of speculative.hpp so the SpecTransaction layer (txn.hpp) can
// fuse checkpoint/undo work across targets without an include cycle with
// the speculative drivers.
//
// It also holds AccessPattern, the stamp index and PD shadow that
// trip-aligned sibling targets share.
//
// One API tier: SpecTransaction (txn.hpp) is the only caller that
// checkpoints, undoes or restores a target, and it does so through the
// span-granular txn_* hooks.  One pool-parallel pass then covers the
// concatenated block ranges of all members instead of k sequential passes
// (rollback is bandwidth-bound in one stream, not latency-bound in k).  A
// dense target reports its stamp index and copies spans; a hash-backed one
// reports slots and undoes slot ranges; the defaults are "nothing of that
// kind", so a target implements only the side it has.
#pragma once

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "wlp/core/shadow.hpp"
#include "wlp/core/versioned_array.hpp"
#include "wlp/sched/doall.hpp"

namespace wlp {

/// Receives footprint step-change notifications.  The chain is
/// SpecTarget::footprint_changed() -> SpecTransaction -> window controller:
/// the per-claim memory_bytes() poll tracks gradual backup growth, but a
/// backend flip (AdaptiveSpecArray hash -> dense) is a step jump the poll
/// can miss for a claim or more — the hook lets the window clamp on the
/// very next decision.  Implementations are called from pool workers and
/// must be lock-free and noexcept.
class FootprintListener {
 public:
  virtual ~FootprintListener() = default;
  virtual void footprint_changed() noexcept = 0;
};

/// Type-erased interface over one array participating in a speculation.
class SpecTarget {
 public:
  virtual ~SpecTarget() = default;

  /// Notify the registered listener that memory_bytes() just step-changed
  /// (backend flip, bulk adoption of a checkpoint).  Safe to call with no
  /// listener registered; subclasses call this, drivers register.
  void footprint_changed() noexcept {
    FootprintListener* l = footprint_listener_.load(std::memory_order_acquire);
    if (l != nullptr) l->footprint_changed();
  }
  void set_footprint_listener(FootprintListener* l) noexcept {
    footprint_listener_.store(l, std::memory_order_release);
  }
  virtual bool shadowed() const = 0;
  virtual PDVerdict analyze(ThreadPool& pool, long trip) const = 0;
  virtual void reset_marks() = 0;
  /// Shadow marks recorded since the last reset_marks() (0 if not shadowed).
  virtual long marks() const { return 0; }
  /// Identity of the PD shadow this target marks into.  Siblings built over
  /// one AccessPattern return the same key, so the round analyses that
  /// shadow and the transaction counts its marks once; any other target is
  /// its own key.
  virtual const void* shadow_key() const { return this; }
  /// Did the backup lose a write since the last reset_marks()?  A sparse
  /// backup that hits capacity latches this instead of throwing from a pool
  /// worker; the drivers treat it exactly like a failed PD test (restore and
  /// re-execute sequentially — the dense path never overflows).
  virtual bool overflowed() const { return false; }
  /// Bytes of state this target pins right now (data + backup + stamps): the
  /// quantity the Section 8.2 window budget controller charges, replacing
  /// the window's bytes-per-iteration guess.
  virtual std::size_t memory_bytes() const { return 0; }
  /// Commit: the speculation succeeded with no overshoot in this region,
  /// the backup state can be dropped (strip-by-strip drivers use this).
  virtual void discard() = 0;

  // ---- verdict-cache hooks (wlp::pdcache, pd/verdict_cache.hpp) ------------

  /// Turn per-mark access-summary accumulation on/off in this target's
  /// shadow.  Drivers call it once, before any marking, when a verdict
  /// cache is attached; targets whose shadow policy has no summary support
  /// ignore it (their access_summary() stays false and the cache is simply
  /// bypassed for them).
  virtual void enable_access_signatures(bool /*on*/) {}
  /// Fold the shadow's per-worker access summaries into `*out` (only valid
  /// after the fork-join barrier, like analyze()).  Returns false when this
  /// target cannot produce one — signatures disabled, not shadowed, or a
  /// shadow policy without summaries — in which case the caller must run
  /// the full analysis.
  virtual bool access_summary(PDAccessSummary* /*out*/) const { return false; }
  /// Write density for the verdict signature: current-epoch dirty blocks
  /// (dense stamps) or the equivalent packed-block count (sparse backups).
  /// Cheap by construction — summary-word popcount or an occupancy read,
  /// never an element sweep.
  virtual long dirty_block_count() const { return 0; }

  // ---- fused-transaction hooks (SpecTransaction, txn.hpp) ------------------

  /// The trip-indexed stamp/dirty index this target's speculative writes go
  /// through, or nullptr for a target with no dense side (its undo state
  /// lives in hash slots only).  Targets returning the SAME index are
  /// trip-aligned siblings: the transaction walks their shared dirty
  /// summary once and dispatches each merged span to every member
  /// back-to-back.
  virtual StampIndex* txn_index() noexcept { return nullptr; }
  /// Prepare for a fused checkpoint (resize the pooled backup, count the
  /// checkpoint); returns the element count the transaction's single
  /// parallel pass must copy for this member.  0 = nothing to copy up
  /// front (sparse backups save on first touch).
  virtual std::size_t txn_checkpoint_begin() { return 0; }
  /// Copy live elements [b, e) into the backup (one chunk of the fused
  /// checkpoint pass).
  virtual void txn_checkpoint_span(std::size_t /*b*/, std::size_t /*e*/) {}
  /// Restore overshot stamps in [b, e) against this member's backup; the
  /// packed `threshold` came from this member's txn_index().  Returns
  /// locations restored.
  virtual long txn_restore_span(std::size_t /*b*/, std::size_t /*e*/,
                                std::uint64_t /*threshold*/) {
    return 0;
  }
  /// Full-restore copy of [b, e) from the backup — failed speculation.
  /// Unlike txn_restore_span this must not consult stamps: targets whose
  /// bodies write below a stamp threshold (strategies.hpp) leave UNSTAMPED
  /// speculative writes that only a full copy rolls back.
  virtual void txn_restore_all_span(std::size_t /*b*/, std::size_t /*e*/) {}
  /// Called once per member after the fused full restore completes (clear
  /// stamps so the next undo pass sees a clean epoch).
  virtual void txn_restore_all_done() {}
  /// Sparse members: number of backup slots the fused undo pass must scan
  /// (0 = not sparse).  The transaction partitions [0, slots) into chunks
  /// and calls txn_undo_slots for each.
  virtual std::size_t txn_sparse_slots() const { return 0; }
  /// Undo every slot in [lo, hi) whose writer iteration is >= trip
  /// (trip < 0 = restore all saved values: the sparse side of a fused full
  /// restore).  Returns locations restored.
  virtual long txn_undo_slots(long /*trip*/, std::size_t /*lo*/,
                              std::size_t /*hi*/) {
    return 0;
  }

 private:
  std::atomic<FootprintListener*> footprint_listener_{nullptr};
};

/// The access pattern trip-aligned sibling targets share (DESIGN.md §9):
/// one StampIndex (one stamp per location) and, when the PD test runs, one
/// shadow with its per-worker accessors (one mark per access).  The first
/// target built over a pattern owns it (it creates the pattern, and as the
/// index's clearer it also resets the shadow); siblings are constructed
/// over the owner's shared_pattern() and run in the same transaction.
///
/// The contract is the stamp-sharing rule: siblings are written through the
/// same subscript, by the same iterations.  A shared shadow then marks the
/// union of the siblings' accesses, which can report more conflicts than
/// one shadow per array, never fewer (DESIGN.md §9): fully_parallel()
/// never passes a run that one shadow per array would fail.
template <class Shadow>
class AccessPattern {
 public:
  AccessPattern(std::size_t n, unsigned workers, bool run_pd_test)
      : index_(std::make_shared<StampIndex>(n)), pd_(run_pd_test),
        shadow_(n, workers), workers_(workers) {
    if (pd_) {
      accessors_.reserve(workers);
      for (unsigned w = 0; w < workers; ++w)
        accessors_.emplace_back(shadow_, n, w);
    }
  }

  AccessPattern(const AccessPattern&) = delete;
  AccessPattern& operator=(const AccessPattern&) = delete;

  const std::shared_ptr<StampIndex>& index() const noexcept { return index_; }
  unsigned workers() const noexcept { return workers_; }
  bool shadowed() const noexcept { return pd_; }

  void begin_iteration(unsigned vpn, long iter) noexcept {
    if (pd_) accessors_[vpn].begin_iteration(iter);
  }
  void on_read(unsigned vpn, std::size_t idx) {
    if (pd_) accessors_[vpn].on_read(idx);
  }
  void on_write(unsigned vpn, std::size_t idx) {
    if (pd_) accessors_[vpn].on_write(idx);
  }

  PDVerdict analyze(ThreadPool& pool, long trip) const {
    return shadow_.analyze(pool, trip);
  }
  /// O(1) epoch bumps for the privatized policy (shadow and accessors).
  void reset() {
    shadow_.reset();
    for (auto& a : accessors_) a.reset();
  }
  long marks() const noexcept {
    long m = 0;
    for (const auto& a : accessors_) m += a.marks();
    return m;
  }

  // Verdict-cache hooks: compiled only for shadow policies with summary
  // support (the privatized one); the shared policy has none.
  void enable_signatures(bool on) {
    if constexpr (requires(Shadow& s) { s.enable_signatures(on); }) {
      if (pd_) shadow_.enable_signatures(on);
    }
  }
  bool access_summary(PDAccessSummary* out) const {
    if constexpr (requires(const Shadow& s) { s.access_summary(); }) {
      if (pd_ && shadow_.signatures_enabled()) {
        *out = shadow_.access_summary();
        return true;
      }
    }
    return false;
  }

 private:
  std::shared_ptr<StampIndex> index_;
  bool pd_;
  Shadow shadow_;
  unsigned workers_;
  std::vector<PDAccessorT<Shadow>> accessors_;
};

namespace detail {
inline double spec_ns_since(std::chrono::steady_clock::time_point t0) noexcept {
  return std::chrono::duration<double, std::nano>(
             std::chrono::steady_clock::now() - t0)
      .count();
}
}  // namespace detail

}  // namespace wlp
