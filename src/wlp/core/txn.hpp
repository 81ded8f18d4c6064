// Multi-array speculation transactions — ISSUE 8 / DESIGN.md §9.
//
// A loop that speculates over several arrays used to pay k of everything
// per retry: k parallel checkpoint passes, k parallel undo passes (each
// with its own pool dispatch, prefetch warm-up and futex join), k stamp
// allocations and k obs publications.  SpecTransaction registers all of a
// loop's targets into ONE transaction that:
//
//   * runs ONE pool-parallel chunked checkpoint over the concatenated
//     element ranges of every member (one dispatch, one join, one
//     bandwidth-bound stream);
//   * runs ONE fused undo pass: the unit space concatenates every stamp
//     index's summary-word chunks and every sparse member's slot chunks,
//     so a mixed dense+hash transaction still costs one dispatch.  For a
//     SHARED index the dirty summary is walked once and each merged span
//     is dispatched to every aliasing member back-to-back — the stamp
//     words stay hot in L1 across members instead of being re-streamed
//     per array;
//   * publishes wlp.undo.{checkpoint_ns,restore_ns,blocks_dirty} once per
//     transaction operation, not once per target, so multi-array loops
//     stop inflating the histograms k-fold.
//
// The transaction is the only path by which a target is checkpointed,
// undone or restored: every member reports a stamp index, hash slots, or
// both (spec_target.hpp), and its undo state is reached through them.
//
// Pattern sharing: trip-aligned members (same write set per iteration — see
// the StampIndex class comment for why that is the aliasing rule) can be
// constructed over one AccessPattern (spec_target.hpp): one StampIndex and
// one PD shadow with its accessors.  A 2-array loop then keeps ONE stamp
// word, ONE dirty bit and ONE PD mark per location instead of two.  The
// transaction discovers sharing by grouping members on their txn_index()
// pointer (undo) and their shadow_key() (PD test, marks) — no registration
// order or flags to get wrong.
//
// AdaptiveSpecArray is the per-array, per-retry backend picker the ROADMAP
// calls for: it owns BOTH a dense VersionedArray and a HashBackup and
// chooses between them at every reset from the measured touch density of
// the previous retry (cost_model::choose_backup, optionally corrected by
// measured Tb/Ta), retiring the static dense-vs-sparse plan flag.  A hash
// overflow permanently bans the hash side for that array — without
// disturbing sibling arrays in the same transaction.
#pragma once

#include <algorithm>
#include <atomic>
#include <cassert>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "wlp/core/cost_model.hpp"
#include "wlp/core/shadow.hpp"
#include "wlp/core/sparse_backup.hpp"
#include "wlp/core/spec_target.hpp"
#include "wlp/obs/obs.hpp"
#include "wlp/sched/doall.hpp"
#include "wlp/sched/reduce.hpp"
#include "wlp/support/cacheline.hpp"

namespace wlp {

/// One transaction over all arrays speculated by one loop.  Construct it
/// ONCE per driver invocation (the strip driver keeps it across strips) —
/// the constructor precomputes the chunk maps, so begin()/undo_beyond()/
/// restore_all() allocate nothing in steady state.
class SpecTransaction : public FootprintListener {
 public:
  /// Elements per fused-checkpoint chunk (matches VersionedArray's
  /// internal checkpoint granularity).
  static constexpr std::size_t kCpChunk = 1u << 15;
  /// Summary words per fused-undo chunk: 4 words = 8K elements.  Finer
  /// than VersionedArray's own 16-word chunks because one shared stamp
  /// group serves several members: with 16 words a 50K-element group made
  /// 2 units and left half of a 4-worker pool idle.  Spans still merge
  /// across word boundaries inside a chunk.
  static constexpr std::size_t kWordChunk = 4;
  /// Hash slots per fused-undo chunk (matches HashBackup::undo_into).
  static constexpr std::size_t kSlotChunk = 1024;

  explicit SpecTransaction(std::span<SpecTarget* const> targets)
      : all_(targets.begin(), targets.end()) {
    for (SpecTarget* t : all_) {
      StampIndex* idx = t->txn_index();
      const std::size_t slots = t->txn_sparse_slots();
      if (idx != nullptr) {
        fused_.push_back(t);
        Group* g = nullptr;
        for (Group& have : groups_)
          if (have.index == idx) g = &have;
        if (g == nullptr) {
          groups_.push_back(Group{idx, {}});
          g = &groups_.back();
        } else {
          stamp_bytes_saved_ += idx->memory_bytes();
        }
        g->members.push_back(t);
      }
      if (slots != 0) sparse_.push_back(SparseEntry{t, slots});
      // One entry per distinct PD shadow: siblings over one AccessPattern
      // are analysed and counted through the first of them.
      if (t->shadowed() &&
          std::none_of(shadowed_.begin(), shadowed_.end(), [&](SpecTarget* h) {
            return h->shadow_key() == t->shadow_key();
          }))
        shadowed_.push_back(t);
    }
    // Checkpoint chunk map: one contiguous range of chunk ids per fused
    // member (restore_all reuses the same map for the backup->data copies).
    cp_prefix_.push_back(0);
    for (SpecTarget* t : fused_) {
      const std::size_t n = t->txn_index()->size();
      cp_prefix_.push_back(cp_prefix_.back() +
                           static_cast<long>((n + kCpChunk - 1) / kCpChunk));
    }
    // Undo unit map: every group's summary-word chunks, then every sparse
    // member's slot chunks, in one flat unit space.
    undo_prefix_.push_back(0);
    for (const Group& g : groups_) {
      const std::size_t w = g.index->words();
      undo_prefix_.push_back(
          undo_prefix_.back() +
          static_cast<long>((w + kWordChunk - 1) / kWordChunk));
    }
    for (const SparseEntry& s : sparse_)
      undo_prefix_.push_back(
          undo_prefix_.back() +
          static_cast<long>((s.slots + kSlotChunk - 1) / kSlotChunk));
    // Footprint chain: every member reports its step jumps (backend flips)
    // to the transaction, which forwards ONE fused event to whoever
    // registered via set_footprint_listener (the window controller).
    for (SpecTarget* t : all_) t->set_footprint_listener(this);
  }

  ~SpecTransaction() override {
    for (SpecTarget* t : all_) t->set_footprint_listener(nullptr);
  }

  SpecTransaction(const SpecTransaction&) = delete;
  SpecTransaction& operator=(const SpecTransaction&) = delete;

  /// A member's footprint just step-changed: count it and forward the fused
  /// event.  Called from pool workers — lock-free, noexcept.
  void footprint_changed() noexcept override {
    footprint_epochs_.fetch_add(1, std::memory_order_relaxed);
    FootprintListener* l = listener_.load(std::memory_order_acquire);
    if (l != nullptr) l->footprint_changed();
  }

  /// Register the downstream listener (the sliding-window controller); null
  /// detaches.  The transaction stays registered with its members either
  /// way, so the epoch counter below keeps counting.
  void set_footprint_listener(FootprintListener* l) noexcept {
    listener_.store(l, std::memory_order_release);
  }

  /// Step-change notifications received since construction (tests pin the
  /// flip -> transaction -> controller chain on this).
  long footprint_epochs() const noexcept {
    return footprint_epochs_.load(std::memory_order_relaxed);
  }

  /// Reset every member's marks and take the fused checkpoint: one parallel
  /// pass over all members' element ranges.  Replaces the per-target
  /// reset+checkpoint driver loops.
  void begin(ThreadPool* pool) {
    for (SpecTarget* t : all_) t->reset_marks();
    const auto t0 = std::chrono::steady_clock::now();
    std::size_t cp_elems = 0;
    for (SpecTarget* t : fused_) cp_elems += t->txn_checkpoint_begin();
    // Members with nothing to copy (e.g. an AdaptiveSpecArray on a hash
    // retry) report 0; when EVERY member does, skip the chunk dispatch
    // outright instead of running a pool pass of no-ops.
    const long nchunks = cp_elems == 0 ? 0 : cp_prefix_.back();
    if (pool != nullptr && nchunks > 1) {
      DoallOptions opts;
      opts.sched = Sched::kStaticBlock;
      doall(
          *pool, 0, nchunks,
          [&](long c, unsigned) { checkpoint_chunk(c); }, opts);
    } else {
      for (long c = 0; c < nchunks; ++c) checkpoint_chunk(c);
    }
    [[maybe_unused]] const double ns = detail::spec_ns_since(t0);
    WLP_OBS_COUNT("wlp.txn.begins", 1);
    WLP_OBS_COUNT("wlp.txn.targets", static_cast<long>(all_.size()));
    WLP_OBS_COUNT("wlp.undo.checkpoint_ns", static_cast<long>(ns));
    if (stamp_bytes_saved_ != 0)
      WLP_OBS_GAUGE_SET("wlp.txn.stamp_bytes_saved",
                        static_cast<long>(stamp_bytes_saved_));
  }

  /// ONE fused parallel undo pass over every member: shared-index groups
  /// walk their dirty summary once and dispatch each merged span to every
  /// aliasing member; sparse members' slot chunks ride in the same unit
  /// space.  Returns total locations restored.
  long undo_beyond(long trip, ThreadPool* pool) {
    const auto t0 = std::chrono::steady_clock::now();
    std::atomic<long> blocks{0};
    const long nunits = undo_prefix_.back();
    long undone = 0;
    if (pool != nullptr && nunits > 1) {
      undone = parallel_sum<long>(*pool, 0, nunits, [&](long u) {
        return undo_unit(u, trip, blocks);
      });
    } else {
      for (long u = 0; u < nunits; ++u) undone += undo_unit(u, trip, blocks);
    }
    [[maybe_unused]] const double ns = detail::spec_ns_since(t0);
    WLP_OBS_COUNT("wlp.undo.restore_ns", static_cast<long>(ns));
    WLP_OBS_COUNT("wlp.undo.blocks_dirty",
                  blocks.load(std::memory_order_relaxed));
    WLP_OBS_HIST("wlp.txn.undone_writes", undone);
    return undone;
  }

  /// Fused full restore (failed speculation): every dense member's backup
  /// is copied back wholesale — stamps are NOT consulted, because targets
  /// writing below a stamp threshold (strategies.hpp) leave unstamped
  /// speculative writes — and every sparse member restores everything it
  /// recorded, all in one parallel pass.
  void restore_all(ThreadPool* pool) {
    const auto t0 = std::chrono::steady_clock::now();
    const long ncp = cp_prefix_.back();
    // Sparse slot chunks live after the group word chunks in the undo unit
    // space; reuse them with trip = -1 ("restore everything recorded").
    const long sparse_units =
        undo_prefix_.back() - undo_prefix_[static_cast<long>(groups_.size())];
    const long nunits = ncp + sparse_units;
    auto run_unit = [&](long u) {
      if (u < ncp) {
        restore_chunk(u);
        return;
      }
      std::atomic<long> unused{0};
      undo_unit(u - ncp + undo_prefix_[static_cast<long>(groups_.size())], -1,
                unused);
    };
    if (pool != nullptr && nunits > 1) {
      doall(*pool, 0, nunits, [&](long u, unsigned) { run_unit(u); });
    } else {
      for (long u = 0; u < nunits; ++u) run_unit(u);
    }
    // Every member (fused AND sparse) drops its spent undo state.
    for (SpecTarget* t : all_) t->txn_restore_all_done();
    [[maybe_unused]] const double ns = detail::spec_ns_since(t0);
    WLP_OBS_COUNT("wlp.undo.restore_ns", static_cast<long>(ns));
    WLP_OBS_COUNT("wlp.txn.restore_all", 1);
  }

  /// Commit: drop every member's backup state (strip drivers, on a strip
  /// that ran to its end with no overshoot).
  void discard() {
    for (SpecTarget* t : all_) t->discard();
  }

  /// Bytes pinned by every member.  Members sharing a StampIndex charge its
  /// words once (the clearer member owns them), so this is safe to hand to
  /// the sliding-window budget controller as-is.
  std::size_t memory_bytes() const {
    std::size_t b = 0;
    for (const SpecTarget* t : all_) b += t->memory_bytes();
    return b;
  }

  bool overflowed() const {
    for (const SpecTarget* t : all_)
      if (t->overflowed()) return true;
    return false;
  }

  /// Shadow marks since begin(), each distinct shadow counted once.
  long marks() const {
    long m = 0;
    for (const SpecTarget* t : shadowed_) m += t->marks();
    return m;
  }

  /// One member per distinct PD shadow, in registration order: the targets
  /// the round runs the PD test on.
  std::span<SpecTarget* const> shadowed_targets() const noexcept {
    return shadowed_;
  }

  /// Shape introspection (tests and the microbench assert on these).
  std::size_t targets() const noexcept { return all_.size(); }
  std::size_t fused_targets() const noexcept { return fused_.size(); }
  std::size_t shared_groups() const noexcept { return groups_.size(); }
  /// Stamp bytes the index sharing avoided vs one private index per member.
  std::size_t stamp_bytes_saved() const noexcept { return stamp_bytes_saved_; }

 private:
  struct Group {
    StampIndex* index;
    std::vector<SpecTarget*> members;
  };
  struct SparseEntry {
    SpecTarget* target;
    std::size_t slots;
  };

  /// Map a flat chunk id to (member, element range) and copy live->backup.
  void checkpoint_chunk(long c) {
    const std::size_t m = locate(cp_prefix_, c);
    const std::size_t b =
        static_cast<std::size_t>(c - cp_prefix_[m]) * kCpChunk;
    const std::size_t n = fused_[m]->txn_index()->size();
    fused_[m]->txn_checkpoint_span(b, std::min(b + kCpChunk, n));
  }

  /// Same map, backup->data (fused full restore).
  void restore_chunk(long c) {
    const std::size_t m = locate(cp_prefix_, c);
    const std::size_t b =
        static_cast<std::size_t>(c - cp_prefix_[m]) * kCpChunk;
    const std::size_t n = fused_[m]->txn_index()->size();
    fused_[m]->txn_restore_all_span(b, std::min(b + kCpChunk, n));
  }

  /// One unit of the fused undo pass: a group's summary-word chunk (walk
  /// the shared dirty spans once, restore every member) or a sparse
  /// member's slot chunk.
  long undo_unit(long u, long trip, std::atomic<long>& blocks) {
    const std::size_t r = locate(undo_prefix_, u);
    const long local = u - undo_prefix_[r];
    if (r < groups_.size()) {
      Group& g = groups_[r];
      const std::size_t wlo = static_cast<std::size_t>(local) * kWordChunk;
      const std::size_t whi = std::min(wlo + kWordChunk, g.index->words());
      const std::uint64_t thr = g.index->threshold(trip);
      const std::size_t n = g.index->size();
      long undone = 0;
      const long visited =
          g.index->scan_spans(wlo, whi, n, [&](std::size_t b, std::size_t e) {
            for (SpecTarget* m : g.members)
              undone += m->txn_restore_span(b, e, thr);
          });
      blocks.fetch_add(visited, std::memory_order_relaxed);
      return undone;
    }
    const SparseEntry& s = sparse_[r - groups_.size()];
    const std::size_t lo = static_cast<std::size_t>(local) * kSlotChunk;
    return s.target->txn_undo_slots(trip, lo,
                                    std::min(lo + kSlotChunk, s.slots));
  }

  /// Region of a flat id in a prefix-sum map (regions are few: one per
  /// member or group, so a linear scan beats a binary search in practice).
  static std::size_t locate(const std::vector<long>& prefix, long id) {
    std::size_t r = 0;
    while (prefix[r + 1] <= id) ++r;
    return r;
  }

  std::vector<SpecTarget*> all_;     ///< registration order
  std::vector<SpecTarget*> fused_;   ///< members with a stamp index
  std::vector<SpecTarget*> shadowed_;  ///< one member per distinct shadow
  std::vector<Group> groups_;        ///< fused members grouped by index
  std::vector<SparseEntry> sparse_;  ///< members with hash-slot chunks
  std::vector<long> cp_prefix_;      ///< chunk-id prefix per fused member
  std::vector<long> undo_prefix_;    ///< unit-id prefix: groups then sparse
  std::size_t stamp_bytes_saved_ = 0;
  std::atomic<FootprintListener*> listener_{nullptr};
  std::atomic<long> footprint_epochs_{0};
};

/// A speculation target that picks dense VersionedArray vs sparse
/// HashBackup PER RETRY from measured touch density — the adaptive backend
/// selection ROADMAP's "adaptive backup selection" item calls for.
///
/// The decision (cost_model::choose_backup) runs at every reset_marks()
/// using the write count the workers tallied during the previous retry
/// (the first retry uses the caller's `expected_writes` hint), optionally
/// corrected by measured Tb/Ta fed in via note_measured().  A hash
/// overflow latches a permanent ban on the hash side for THIS array only:
/// the next retry runs dense, siblings in the same transaction are
/// untouched.
///
/// The hash side is Section 4's sparse backup, the library's only one: a
/// HashBackup record saves each location before its first write, so backup
/// memory follows the touched set, and a full table fails the round into a
/// full restore and sequential re-execution.
///
/// Inside a SpecTransaction the target reports both personalities: its
/// stamp index joins the fused dense walk (a no-op on hash retries — no
/// stamps were written) and its hash slots join the sparse chunks (a scan
/// of an empty table on dense retries).  Whichever side was active holds
/// the retry's writes; the other contributes nothing, so mode flips
/// between retries need no re-registration.
template <class T, class Shadow = PDPrivateShadow>
class AdaptiveSpecArray final : public SpecTarget {
 public:
  /// `expected_writes` sizes the hash table (~2x headroom added by its
  /// power-of-two rounding) and seeds the first density decision.  The
  /// array owns its AccessPattern (stamp index, shadow and accessors).
  AdaptiveSpecArray(std::vector<T> init, unsigned workers,
                    std::size_t expected_writes, bool run_pd_test)
      : pattern_(init.size(), workers, run_pd_test),
        array_(std::move(init), pattern_.index()),
        hash_(expected_writes * 2),
        expected_writes_(expected_writes) {
    writers_.reserve(workers);
    for (unsigned w = 0; w < workers; ++w)
      writers_.emplace_back(array_.writer());
    touches_.resize(workers);
    decide(expected_writes_);
  }

  // ---- body-side API -----------------------------------------------------

  void begin_iteration(unsigned vpn, long iter) {
    pattern_.begin_iteration(vpn, iter);
  }

  T get(unsigned vpn, std::size_t idx) {
    pattern_.on_read(vpn, idx);
    return array_.get(idx);
  }

  void set(unsigned vpn, long iter, std::size_t idx, const T& v) {
    pattern_.on_write(vpn, idx);
    // Write tally, not distinct locations: an upper bound on the touched
    // set, which is the conservative direction for the density decision
    // (overcounting pushes toward dense, never toward an overflowing
    // hash table).
    touches_[static_cast<std::size_t>(vpn)].value += 1;
    if (mode_ == BackupKind::kHash) {
      // Save-before-write; a full table skips the data write too, so the
      // recorded set still restores the exact pre-loop state.
      if (!hash_.record(iter, idx, array_.get(idx))) return;
      array_.write_raw(idx, v);
    } else {
      writers_[static_cast<std::size_t>(vpn)].value.write(iter, idx, v);
    }
  }

  std::vector<T>& data() noexcept { return array_.data(); }
  const std::vector<T>& data() const noexcept { return array_.data(); }

  /// Backend chosen for the CURRENT retry, and the decision inputs.
  BackupKind backup_kind() const noexcept { return mode_; }
  BackupDecision last_decision() const noexcept { return decision_; }

  /// Feed measured checkpoint/undo cost (ns) into the next decisions —
  /// ExecReport::checkpoint_ns / undo_ns, averaged by LoopStatistics.
  void note_measured(double tb_ns, double ta_ns) noexcept {
    measured_tb_ = tb_ns;
    measured_ta_ = ta_ns;
  }

  UndoStats undo_stats() const { return array_.stats(); }
  /// Locations the hash side recorded this retry (0 on a dense retry).
  std::size_t backup_entries() const noexcept { return hash_.entries(); }

  /// Mid-run upgrade hash -> dense: adopt the dense backend NOW without
  /// losing the hash-recorded undo state.  The dense backup is rebuilt to
  /// the pre-loop view — bulk copy of the current data, then the hash's
  /// saved values grafted over the locations it recorded (their data
  /// elements already hold speculative writes) — so a later undo behaves
  /// as if the retry had two stamped backends: pre-flip writes restore
  /// through the hash slots, post-flip writes through the dense stamps.
  ///
  /// The caller must be quiescent: no concurrent body may be mid-iteration
  /// (a claim boundary, or a single-worker pool).  This is the step jump in
  /// memory_bytes() the footprint_changed() chain exists for, so the
  /// registered listener is notified before returning.
  void flip_to_dense(ThreadPool* pool = nullptr) {
    if (mode_ != BackupKind::kHash) return;
    const std::size_t n = array_.data().size();
    array_.txn_checkpoint_begin();
    if (pool != nullptr && n > SpecTransaction::kCpChunk) {
      const long nchunks = static_cast<long>(
          (n + SpecTransaction::kCpChunk - 1) / SpecTransaction::kCpChunk);
      doall(*pool, 0, nchunks, [&](long c, unsigned) {
        const std::size_t b =
            static_cast<std::size_t>(c) * SpecTransaction::kCpChunk;
        array_.txn_checkpoint_span(b,
                                   std::min(b + SpecTransaction::kCpChunk, n));
      });
    } else {
      array_.txn_checkpoint_span(0, n);
    }
    hash_.for_each_entry([this](std::size_t idx, const T& saved) {
      array_.patch_backup(idx, saved);
    });
    mode_ = BackupKind::kDense;
    decision_.kind = BackupKind::kDense;
    WLP_OBS_COUNT("wlp.txn.backup_flips", 1);
    footprint_changed();
  }

  // ---- SpecTarget ----------------------------------------------------------

  bool shadowed() const override { return pattern_.shadowed(); }
  PDVerdict analyze(ThreadPool& pool, long trip) const override {
    return pattern_.analyze(pool, trip);
  }
  void reset_marks() override {
    pattern_.reset();
    long touched = 0;
    for (auto& c : touches_) {
      touched += c.value;
      c.value = 0;
    }
    // An overflow means the observed touch set outgrew the table: ban the
    // hash side for good (this array only — siblings decide for
    // themselves).
    if (hash_.overflowed()) hash_banned_ = true;
    decide(ran_once_ ? static_cast<std::size_t>(touched) : expected_writes_);
    ran_once_ = true;
    array_.clear_stamps();
    for (auto& w : writers_) w.value.rebind();
    hash_.clear();
  }
  long marks() const override { return pattern_.marks(); }
  bool overflowed() const override {
    return mode_ == BackupKind::kHash && hash_.overflowed();
  }
  std::size_t memory_bytes() const override {
    // Only the LIVE backend's state is pinned by this retry — summing both
    // sides charged the window budget ~3n dense bytes on a hash retry whose
    // true footprint was a handful of slots, collapsing the window to its
    // minimum for no reason.  The idle side still charges what it actually
    // holds: on a dense retry the hash table is empty (0 bytes) except
    // right after a mid-run flip, when its recorded pre-flip entries stay
    // pinned until the next clear; on a hash retry the dense data/stamps
    // are not speculative state, but a pooled backup buffer allocated by an
    // earlier dense retry remains held.
    if (mode_ == BackupKind::kDense)
      return array_.memory_bytes() + hash_.memory_bytes();
    return hash_.memory_bytes() + array_.backup_bytes();
  }
  void discard() override {
    array_.discard_checkpoint();
    hash_.clear();
  }

  // ---- verdict-cache hooks -------------------------------------------------

  void enable_access_signatures(bool on) override {
    pattern_.enable_signatures(on);
  }
  bool access_summary(PDAccessSummary* out) const override {
    return pattern_.access_summary(out);
  }
  long dirty_block_count() const override {
    // Whichever backend held this retry's writes knows the density; the
    // idle side reports 0 (empty table / clean stamps), so the sum is the
    // live count even right after a mid-run flip.
    return array_.dirty_block_count() + hash_.dirty_block_count();
  }

  // ---- fused-transaction hooks --------------------------------------------
  // Both personalities are always reported (see the class comment); the
  // mode checks below are load-bearing: on a hash retry the dense restore
  // hooks MUST return nothing, or a SHARED index's sibling stamps would
  // drive restores from this member's stale dense backup.

  StampIndex* txn_index() noexcept override { return array_.index(); }
  std::size_t txn_checkpoint_begin() override {
    return mode_ == BackupKind::kDense ? array_.txn_checkpoint_begin() : 0;
  }
  void txn_checkpoint_span(std::size_t b, std::size_t e) override {
    if (mode_ == BackupKind::kDense) array_.txn_checkpoint_span(b, e);
  }
  long txn_restore_span(std::size_t b, std::size_t e,
                        std::uint64_t threshold) override {
    return mode_ == BackupKind::kDense ? array_.restore_span(b, e, threshold)
                                       : 0;
  }
  void txn_restore_all_span(std::size_t b, std::size_t e) override {
    if (mode_ == BackupKind::kDense) array_.txn_restore_all_span(b, e);
  }
  void txn_restore_all_done() override {
    if (mode_ == BackupKind::kDense) array_.clear_stamps();
    // The hash side's recorded set is spent too — but the overflow fact
    // must outlive the clear (reset_marks may not run before the next
    // decision reads it), so latch the ban first.
    if (hash_.overflowed()) hash_banned_ = true;
    hash_.clear();
  }
  std::size_t txn_sparse_slots() const override { return hash_.capacity(); }
  long txn_undo_slots(long trip, std::size_t lo, std::size_t hi) override {
    return hash_.undo_slots(array_.data(), trip, lo, hi);
  }

 private:
  void decide(std::size_t touched) {
    decision_ = choose_backup(array_.size(), touched, measured_tb_,
                              measured_ta_);
    if (hash_banned_) decision_.kind = BackupKind::kDense;
    const BackupKind before = mode_;
    mode_ = decision_.kind;
    WLP_OBS_COUNT(mode_ == BackupKind::kDense ? "wlp.txn.backup_dense"
                                              : "wlp.txn.backup_hash",
                  1);
    // A backend change is a step jump in memory_bytes() (dense pins
    // data+backup+stamps where hash pinned live slots): tell the window
    // controller instead of letting the next claim's poll discover it late.
    if (mode_ != before) footprint_changed();
  }

  AccessPattern<Shadow> pattern_;
  VersionedArray<T> array_;
  HashBackup<T> hash_;
  std::size_t expected_writes_;
  std::vector<Padded<typename VersionedArray<T>::Writer>> writers_;
  /// Per-worker write tallies (cache-line padded: bumped on every set()).
  std::vector<Padded<long>> touches_;
  BackupKind mode_ = BackupKind::kDense;
  BackupDecision decision_;
  double measured_tb_ = -1.0;
  double measured_ta_ = -1.0;
  bool hash_banned_ = false;
  bool ran_once_ = false;
};

}  // namespace wlp
