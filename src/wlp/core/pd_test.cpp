#include "wlp/core/shadow.hpp"

#include <algorithm>
#include <chrono>

#include "wlp/mem/arena.hpp"
#include "wlp/obs/obs.hpp"
#include "wlp/sched/reduce.hpp"
#include "wlp/support/prng.hpp"

namespace wlp {

// ---- PDSharedShadow ---------------------------------------------------------

PDSharedShadow::PDSharedShadow(std::size_t n) : cells_(n) {}

void PDSharedShadow::lock_stripe(std::size_t idx) noexcept {
  auto& f = locks_[mix64(idx) & (kStripes - 1)];
  while (f.test_and_set(std::memory_order_acquire)) {
  }
}

void PDSharedShadow::unlock_stripe(std::size_t idx) noexcept {
  locks_[mix64(idx) & (kStripes - 1)].clear(std::memory_order_release);
}

void PDSharedShadow::insert(TwoSmallest& set, long iter, std::size_t idx) noexcept {
  // Fast path: already recorded, or provably not among the two smallest.
  // The monotone-`hi` early exit is what makes in-order marking cheap: once
  // both slots are full, any later (larger) iteration bails on two loads.
  const long lo = set.lo.load(std::memory_order_acquire);
  if (lo == iter) return;
  const long hi = set.hi.load(std::memory_order_acquire);
  if (hi == iter) return;
  if (lo != kNone && hi != kNone && iter > hi) return;

  lock_stripe(idx);
  long a = set.lo.load(std::memory_order_relaxed);
  long b = set.hi.load(std::memory_order_relaxed);
  if (iter != a && iter != b) {
    if (a == kNone) {
      a = iter;
    } else if (iter < a) {
      b = a;
      a = iter;
    } else if (b == kNone || iter < b) {
      b = iter;
    }
    set.lo.store(a, std::memory_order_relaxed);
    set.hi.store(b, std::memory_order_relaxed);
  }
  unlock_stripe(idx);
}

void PDSharedShadow::mark_write(long iter, std::size_t idx) noexcept {
  insert(cells_[idx].w, iter, idx);
}

void PDSharedShadow::mark_exposed_read(long iter, std::size_t idx) noexcept {
  insert(cells_[idx].r, iter, idx);
}

PDVerdict PDSharedShadow::analyze_cell(const Cell& c, long trip) const noexcept {
  PDVerdict v;
  const long w0 = c.w.lo.load(std::memory_order_relaxed);
  const long w1 = c.w.hi.load(std::memory_order_relaxed);
  const long r0 = c.r.lo.load(std::memory_order_relaxed);
  const long r1 = c.r.hi.load(std::memory_order_relaxed);
  const bool written = w0 != kNone && w0 < trip;
  const bool multi_w = w1 != kNone && w1 < trip;
  const bool exposed = r0 != kNone && r0 < trip;
  const bool multi_r = r1 != kNone && r1 < trip;
  v.written_elements = written ? 1 : 0;
  v.multi_written = multi_w ? 1 : 0;
  v.exposed_read_elements = exposed ? 1 : 0;
  v.straddled = written && !multi_w && w1 != kNone ? 1 : 0;  // w0 < trip <= w1
  // Cross-iteration flow/anti dependence: a writer and an exposed reader in
  // DIFFERENT iterations.  With two-smallest sets this is exact: if either
  // side has two distinct valid iterations, some pair differs; otherwise
  // compare the single writer to the single reader.
  const bool conflict =
      written && exposed && (multi_w || multi_r || w0 != r0);
  v.conflicts = conflict ? 1 : 0;
  return v;
}

namespace {

using MergeClock = std::chrono::steady_clock;

/// Emit the merge-pass metrics shared by both policies' analyze().
inline void record_merge(MergeClock::time_point t0, std::size_t cells) {
#if defined(WLP_OBS_ENABLED)
  const auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                      MergeClock::now() - t0)
                      .count();
  WLP_OBS_HIST("wlp.pd.merge_ns", ns);
  WLP_OBS_COUNT("wlp.pd.merged_cells", cells);
#else
  (void)t0;
  (void)cells;
#endif
}

}  // namespace

PDVerdict PDSharedShadow::analyze(ThreadPool& pool, long trip) const {
  WLP_TRACE_SCOPE("pd.merge", cells_.size(), trip);
  const auto t0 = MergeClock::now();
  PDVerdict v = parallel_reduce(
      pool, 0, static_cast<long>(cells_.size()), PDVerdict{},
      [&](long i) { return analyze_cell(cells_[static_cast<std::size_t>(i)], trip); },
      [](PDVerdict a, const PDVerdict& b) { return a.merge(b); });
  record_merge(t0, cells_.size());
  return v;
}

PDVerdict PDSharedShadow::analyze_seq(long trip) const {
  PDVerdict v;
  for (const auto& c : cells_) v.merge(analyze_cell(c, trip));
  return v;
}

void PDSharedShadow::reset() noexcept {
  for (auto& c : cells_) {
    c.w.lo.store(kNone, std::memory_order_relaxed);
    c.w.hi.store(kNone, std::memory_order_relaxed);
    c.r.lo.store(kNone, std::memory_order_relaxed);
    c.r.hi.store(kNone, std::memory_order_relaxed);
  }
  ++stats_.resets;
  ++stats_.cell_sweeps;
  WLP_OBS_COUNT("wlp.pd.resets", 1);
}

long PDSharedShadow::first_writer(std::size_t idx) const noexcept {
  return cells_[idx].w.lo.load(std::memory_order_relaxed);
}
long PDSharedShadow::second_writer(std::size_t idx) const noexcept {
  return cells_[idx].w.hi.load(std::memory_order_relaxed);
}
long PDSharedShadow::first_exposed_reader(std::size_t idx) const noexcept {
  return cells_[idx].r.lo.load(std::memory_order_relaxed);
}
long PDSharedShadow::second_exposed_reader(std::size_t idx) const noexcept {
  return cells_[idx].r.hi.load(std::memory_order_relaxed);
}

// ---- PDPrivateShadow --------------------------------------------------------

PDPrivateShadow::Segment::Segment(std::size_t n_cells, unsigned owner)
    : n(n_cells), vpn(owner) {
  // Carved from the owning worker's arena ON the owning worker's thread
  // (this constructor only runs from the first-mark cold path), so first
  // touch lands the pages on that worker's node.  Arena memory is recycled
  // rather than OS-zeroed, so `gens` must be cleared here; gen 0 is stale
  // under every epoch.  `cells` is left raw — see the header.
  mem::Arena& arena = mem::worker_arena(owner);
  cells = arena.allocate_array<PrivCell>(n);
  gens = arena.allocate_array<std::uint32_t>(n);
  std::fill(gens, gens + n, 0u);
}

PDPrivateShadow::Segment::~Segment() {
  mem::Arena& arena = mem::worker_arena(vpn);
  arena.deallocate_array(cells, n);
  arena.deallocate_array(gens, n);
}

PDPrivateShadow::Segment* PDPrivateShadow::allocate_segment(unsigned vpn) {
  // Only the worker owning `vpn` reaches here, so the slot write is
  // unshared; the counter is atomic because several workers can be in
  // their own first-mark cold path at once.
  segs_[vpn] = std::make_unique<Segment>(n_, vpn);
  segment_allocs_.fetch_add(1, std::memory_order_relaxed);
  return segs_[vpn].get();
}

void PDPrivateShadow::sweep_generations() noexcept {
  // The 32-bit stamp wrapped (once per 2^32 resets): clear every gen array
  // so no surviving stamp can alias the restarted epoch counter.
  for (auto& seg : segs_)
    if (seg) std::fill(seg->gens, seg->gens + seg->n, 0u);
}

PDPrivateShadow::Merged PDPrivateShadow::merged_cell(std::size_t idx) const noexcept {
  Merged m;
  for (const auto& seg : segs_) {
    if (!seg) continue;
    if (seg->gens[idx] != epoch_.value()) continue;  // stale gen == unmarked
    const PrivCell& c = seg->cells[idx];
    merge2(m.w0, m.w1, c.w0, c.w1);
    merge2(m.r0, m.r1, c.r0, c.r1);
  }
  return m;
}

PDVerdict PDPrivateShadow::analyze(ThreadPool& pool, long trip) const {
  // Collect the segments that exist once, so the per-cell kernel is a tight
  // loop over base pointers: per cell it is s gen-compares plus, for live
  // cells only, 2 min-merges.  The gen scan streams the dense uint32 array
  // (16 stamps per cache line), so segments a worker never marked this
  // epoch cost a quarter-byte-per-cell read instead of a 32-byte payload.
  std::vector<const PrivCell*> bases;
  std::vector<const std::uint32_t*> gens;
  bases.reserve(segs_.size());
  gens.reserve(segs_.size());
  for (const auto& seg : segs_) {
    if (!seg) continue;
    bases.push_back(seg->cells);
    gens.push_back(seg->gens);
  }

  WLP_TRACE_SCOPE("pd.merge", n_, bases.size());
  const auto t0 = MergeClock::now();
  const std::uint32_t epoch = epoch_.value();
  PDVerdict v = parallel_reduce(
      pool, 0, static_cast<long>(n_), PDVerdict{},
      [&](long i) {
        const auto idx = static_cast<std::size_t>(i);
        Merged m;
        for (std::size_t s = 0; s < bases.size(); ++s) {
          if (gens[s][idx] != epoch) continue;
          const PrivCell& c = bases[s][idx];
          merge2(m.w0, m.w1, c.w0, c.w1);
          merge2(m.r0, m.r1, c.r0, c.r1);
        }
        return verdict_of(m, trip);
      },
      [](PDVerdict a, const PDVerdict& b) { return a.merge(b); });
  record_merge(t0, n_ * bases.size());
  return v;
}

PDVerdict PDPrivateShadow::analyze_seq(long trip) const {
  PDVerdict v;
  for (std::size_t i = 0; i < n_; ++i) v.merge(verdict_of(merged_cell(i), trip));
  return v;
}

long PDPrivateShadow::first_writer(std::size_t idx) const noexcept {
  const Merged m = merged_cell(idx);
  return m.w0 == kEmpty ? -1 : m.w0;
}
long PDPrivateShadow::second_writer(std::size_t idx) const noexcept {
  const Merged m = merged_cell(idx);
  return m.w1 == kEmpty ? -1 : m.w1;
}
long PDPrivateShadow::first_exposed_reader(std::size_t idx) const noexcept {
  const Merged m = merged_cell(idx);
  return m.r0 == kEmpty ? -1 : m.r0;
}
long PDPrivateShadow::second_exposed_reader(std::size_t idx) const noexcept {
  const Merged m = merged_cell(idx);
  return m.r1 == kEmpty ? -1 : m.r1;
}

}  // namespace wlp
