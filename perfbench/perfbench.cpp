// End-to-end benchmark of the paper's WHILE loops on the real runtime.
//
// Each workload is one of the Section 9 loops, driven through the library's
// public workload API.  The sequential loop, the parallel method at p =
// min(4, nproc) and the same method at p = 1 are executed interleaved,
// sample by sample, in rotating order, so host drift cancels in the ratios
// every end-to-end metric is built from.  Every parallel execution is checked
// against the sequential oracle.
//
//   perfbench --workload <track_spec|spice_g3|pivot_doany> --seed <n>
//             --seconds <s> --trace <0|1> [--spans <file>] [--corrupt]
//
// --trace 0 reports the end-to-end metrics from untraced executions.
// --trace 1 reports the per-layer metrics: it interleaves untraced executions
// with traced ones (obs metrics switched on at run time), takes every layer
// number from deltas around the traced executions, and writes the
// benchmark's own spans to --spans at exit.  --corrupt perturbs every result
// of the p-thread pool before the oracle sees it; it exists so the
// benchmark's self-test can show that a wrong result fails the run.
//
// The last line of standard output is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// A per-layer metric that does not apply to the workload is printed as n/a
// in the table and carried as -1 in the JSON.
#include <pthread.h>
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "wlp/mem/budget.hpp"
#include "wlp/obs/obs.hpp"
#include "wlp/sched/thread_pool.hpp"
#include "wlp/sim/simulator.hpp"
#include "wlp/workloads/hb_generator.hpp"
#include "wlp/workloads/mcsparse_pivot.hpp"
#include "wlp/workloads/spice.hpp"
#include "wlp/workloads/track.hpp"

namespace {

using wlp::ExecReport;
using wlp::ThreadPool;
using Clock = std::chrono::steady_clock;

double ns_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::nano>(b - a).count();
}

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// ---- spans ---------------------------------------------------------------
//
// The benchmark's own trace: one span per public call it makes into the
// library, kept in memory and written out at exit.  Spans of one loop
// execution share its loop id.

struct Span {
  const char* name;
  double start_us;
  double end_us;
  int parent;  ///< index of the enclosing span, -1 for a root
  long loop;   ///< loop execution id, -1 outside loop executions
};

class SpanLog {
 public:
  static constexpr std::size_t kCap = 1 << 16;  ///< later spans are only counted

  explicit SpanLog(bool on) : on_(on), t0_(Clock::now()) {
    if (on_) spans_.reserve(kCap);
  }

  int open(const char* name, long loop) {
    if (!on_) return -1;
    if (spans_.size() >= kCap) {
      ++dropped_;
      return -1;
    }
    spans_.push_back({name, now_us(), -1, current_, loop});
    current_ = static_cast<int>(spans_.size() - 1);
    return current_;
  }
  void close(int id) {
    if (id < 0) return;
    spans_[static_cast<std::size_t>(id)].end_us = now_us();
    current_ = spans_[static_cast<std::size_t>(id)].parent;
  }

  bool write(const std::string& path) const {
    std::ofstream os(path);
    if (!os) return false;
    os << "{\"dropped\": " << dropped_ << ", \"spans\": [\n";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      char buf[256];
      std::snprintf(buf, sizeof buf,
                    "{\"name\": \"%s\", \"start_us\": %.3f, \"end_us\": %.3f, "
                    "\"parent\": %d, \"loop\": %ld}%s\n",
                    s.name, s.start_us, s.end_us, s.parent, s.loop,
                    i + 1 < spans_.size() ? "," : "");
      os << buf;
    }
    os << "]}\n";
    return static_cast<bool>(os);
  }

 private:
  double now_us() const { return ns_between(t0_, Clock::now()) / 1e3; }

  bool on_;
  Clock::time_point t0_;
  std::vector<Span> spans_;
  int current_ = -1;
  long dropped_ = 0;
};

/// RAII span.
class Scope {
 public:
  Scope(SpanLog& log, const char* name, long loop = -1)
      : log_(log), id_(log.open(name, loop)) {}
  ~Scope() { log_.close(id_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  SpanLog& log_;
  int id_;
};

// ---- workloads -----------------------------------------------------------

/// One paper loop behind the benchmark's three calls: reset the loop's
/// state (untimed), run it sequentially or in parallel (timed), and check
/// the last result against the sequential oracle (untimed).
class Workload {
 public:
  virtual ~Workload() = default;
  virtual void reset() = 0;
  virtual void run_sequential() = 0;
  virtual ExecReport run_parallel(ThreadPool& pool) = 0;
  virtual bool matches_oracle() const = 0;
  /// Perturb the last result (self-test of the oracle only).
  virtual void corrupt() = 0;
  /// Sequential trip count of the oracle run, summed over library loops.
  virtual long trip() const = 0;
  /// Library loops one execution runs.
  virtual long loops() const { return 1; }
  virtual double predicted_speedup(unsigned p) const = 0;
};

/// TRACK FPTRAK loop 300, fully speculative with the PD test.
class TrackSpec final : public Workload {
 public:
  static constexpr long kCandidates = 50000;

  explicit TrackSpec(std::uint64_t seed)
      : loop_(wlp::workloads::TrackConfig{kCandidates, 0.93, seed}),
        init_pos_(loop_.fresh_positions()),
        init_vel_(loop_.fresh_velocities()),
        ref_pos_(init_pos_),
        ref_vel_(init_vel_) {
    ref_trip_ = loop_.run_sequential(ref_pos_, ref_vel_);
  }

  void reset() override {
    pos_.assign(init_pos_.begin(), init_pos_.end());
    vel_.assign(init_vel_.begin(), init_vel_.end());
    last_trip_ = -1;
  }
  void run_sequential() override { last_trip_ = loop_.run_sequential(pos_, vel_); }
  ExecReport run_parallel(ThreadPool& pool) override {
    ExecReport r = loop_.run_speculative(pool, pos_, vel_);
    last_trip_ = r.trip;
    return r;
  }
  bool matches_oracle() const override {
    return last_trip_ == ref_trip_ && pos_ == ref_pos_ && vel_ == ref_vel_;
  }
  void corrupt() override { pos_[0] += 1.0; }
  long trip() const override { return ref_trip_; }
  double predicted_speedup(unsigned p) const override {
    wlp::sim::SimOptions o;
    o.stamps = o.checkpoint = o.pd_test = true;
    return wlp::sim::Simulator().speedup_curve(wlp::Method::kInduction2,
                                               loop_.profile(),
                                               {static_cast<int>(p)}, o)[0];
  }

 private:
  wlp::workloads::TrackLoop loop_;
  std::vector<double> init_pos_, init_vel_, ref_pos_, ref_vel_, pos_, vel_;
  long ref_trip_ = 0;
  long last_trip_ = -1;
};

/// SPICE LOAD loop 40, General-3 (private traversal, dynamic claims).
class SpiceG3 final : public Workload {
 public:
  static constexpr long kDevices = 50000;

  explicit SpiceG3(std::uint64_t seed)
      : load_(wlp::workloads::SpiceConfig{kDevices, 4, 24, 0.0, 0.0, seed}),
        ref_(load_.fresh_matrix()) {
    load_.run_sequential(ref_);
  }

  void reset() override {
    if (matrix_.size() != ref_.size()) matrix_ = load_.fresh_matrix();
    std::fill(matrix_.begin(), matrix_.end(), 0.0);
    last_trip_ = -1;
  }
  void run_sequential() override {
    load_.run_sequential(matrix_);
    last_trip_ = load_.devices();
  }
  ExecReport run_parallel(ThreadPool& pool) override {
    ExecReport r = load_.run_general3(pool, matrix_);
    last_trip_ = r.trip;
    return r;
  }
  bool matches_oracle() const override {
    return last_trip_ == load_.devices() && matrix_ == ref_;
  }
  void corrupt() override { matrix_[0] += 1.0; }
  long trip() const override { return load_.devices(); }
  double predicted_speedup(unsigned p) const override {
    return wlp::sim::Simulator().speedup_curve(
        wlp::Method::kGeneral3, load_.profile(), {static_cast<int>(p)})[0];
  }

 private:
  wlp::workloads::SpiceLoad load_;
  std::vector<double> ref_, matrix_;
  long last_trip_ = -1;
};

/// MCSPARSE DFACT loop 500: WHILE-DOANY pivot searches on the gematt11
/// stand-in (the generator's own seed: Fig. 8 has one input matrix).  One
/// execution is kSearches searches — the pivot searches of successive
/// elimination steps, one fork-join each — each over a candidate order drawn
/// from the seed.  How deep a search goes before it meets an acceptable
/// candidate is roughly geometric (median 96, p90 281 over 300 orders), so
/// orders whose sequential depth falls outside [kMinDepth, kMaxDepth], a band
/// around the depth of 172 the paper-calibrated order reaches, are skipped:
/// every execution then does about the same search work whatever the seed.
class PivotDoany final : public Workload {
 public:
  static constexpr int kSearches = 32;
  static constexpr long kMinDepth = 100, kMaxDepth = 300;

  explicit PivotDoany(std::uint64_t seed) {
    const wlp::workloads::SparseMatrix a = wlp::workloads::gen_gematt11();
    for (std::uint64_t order = 0; ref_.size() < std::size_t{kSearches}; ++order) {
      wlp::workloads::DoanyConfig cfg;
      cfg.accept_cost = 0;
      cfg.seed = (seed << 20) + order;
      auto search = std::make_unique<wlp::workloads::McsparsePivotSearch>(a, cfg);
      long t = 0;
      const Pivot ref = search->search_sequential(&t);
      if (t < kMinDepth || t > kMaxDepth) continue;
      searches_.push_back(std::move(search));
      ref_.push_back(ref);
      ref_trip_ += t;
    }
    got_.resize(kSearches);
  }

  void reset() override { std::fill(got_.begin(), got_.end(), Pivot{}); }
  void run_sequential() override {
    parallel_ = false;
    for (int k = 0; k < kSearches; ++k) got_[k] = searches_[k]->search_sequential();
  }
  ExecReport run_parallel(ThreadPool& pool) override {
    parallel_ = true;
    ExecReport sum;
    for (int k = 0; k < kSearches; ++k) {
      ExecReport r;
      got_[k] = searches_[k]->search_doany(pool, r);
      sum.method = r.method;
      sum.trip += r.trip;
      sum.started += r.started;
      sum.overshot += r.overshot;
      sum.dispatcher_steps += r.dispatcher_steps;
    }
    return sum;
  }
  /// Any admissible pivot is correct for the DOANY search; the sequential
  /// search must return exactly the oracle's pivot.
  bool matches_oracle() const override {
    for (int k = 0; k < kSearches; ++k) {
      const Pivot& g = got_[k];
      if (parallel_ ? !searches_[k]->acceptable(g)
                    : (g.row != ref_[k].row || g.col != ref_[k].col))
        return false;
    }
    return true;
  }
  void corrupt() override { got_[0] = Pivot{}; }
  long trip() const override { return ref_trip_; }
  long loops() const override { return kSearches; }
  double predicted_speedup(unsigned p) const override {
    const wlp::sim::Simulator sim;
    double seq = 0, par = 0;
    for (const auto& s : searches_) {
      const wlp::sim::LoopProfile lp = s->profile();
      const double t = sim.sequential_time(lp);
      seq += t;
      par += t / sim.speedup_curve(wlp::Method::kDoany, lp, {static_cast<int>(p)})[0];
    }
    return seq / par;
  }

 private:
  using Pivot = wlp::workloads::PivotCandidate;
  std::vector<std::unique_ptr<wlp::workloads::McsparsePivotSearch>> searches_;
  std::vector<Pivot> ref_, got_;
  long ref_trip_ = 0;
  bool parallel_ = false;
};

std::unique_ptr<Workload> make_workload(const std::string& name,
                                        std::uint64_t seed) {
  if (name == "track_spec") return std::make_unique<TrackSpec>(seed);
  if (name == "spice_g3") return std::make_unique<SpiceG3>(seed);
  if (name == "pivot_doany") return std::make_unique<PivotDoany>(seed);
  return nullptr;
}

// ---- metric output -------------------------------------------------------

struct Metric {
  std::string name;
  double value;  ///< -1 = not applicable
  std::string unit;
  bool applicable = true;
};

void print_result(const std::vector<Metric>& ms, bool correct, long attempted,
                  long failed) {
  for (const Metric& m : ms) {
    if (m.applicable)
      std::printf("%-28s %14.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
    else
      std::printf("%-28s %14s %s\n", m.name.c_str(), "n/a", m.unit.c_str());
  }
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted);
  json += ", \"failed\": " + std::to_string(failed);
  json += ", \"metrics\": {";
  for (std::size_t i = 0; i < ms.size(); ++i) {
    char buf[128];
    std::snprintf(buf, sizeof buf, "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  i ? ", " : "", ms[i].name.c_str(),
                  ms[i].applicable ? ms[i].value : -1.0, ms[i].unit.c_str());
    json += buf;
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

// ---- measurement ---------------------------------------------------------

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool corrupt = false;
  std::string spans;
};

/// Where the benchmark's threads run.  Each thread of the p-pool is pinned
/// to its own CPU when the pool is built, so every pool instance runs with
/// the same placement: left to the OS scheduler, the placement differs from
/// pool to pool and moves TRACK's parallel time by up to 1.7x (measured on a
/// 4-vCPU host), which would swamp any change to the runtime.  The calling
/// thread returns to its own CPU for the p-pool's executions and visits every
/// CPU in turn, one per round, for the single-threaded ones: on a host whose
/// CPUs run at different speeds the sequential median then does not depend
/// on where the thread happened to be.
class Placement {
 public:
  Placement() {
    CPU_ZERO(&all_);
    if (pthread_getaffinity_np(pthread_self(), sizeof all_, &all_) != 0) return;
    for (int c = 0; c < CPU_SETSIZE; ++c)
      if (CPU_ISSET(c, &all_)) cpus_.push_back(c);
  }
  ~Placement() {
    if (!cpus_.empty()) pthread_setaffinity_np(pthread_self(), sizeof all_, &all_);
  }
  Placement(const Placement&) = delete;
  Placement& operator=(const Placement&) = delete;

  /// CPUs this process may run on (at least 1).
  unsigned cpus() const { return std::max<unsigned>(1, static_cast<unsigned>(cpus_.size())); }

  /// Pin each pool thread to CPU slot vpn.  Every share waits until all of
  /// them have started, so each runs on a distinct thread.
  void pin_pool(ThreadPool& pool) {
    if (cpus_.size() < 2) return;
    const auto caller = std::this_thread::get_id();
    std::atomic<unsigned> arrived{0};
    pool.parallel([&](unsigned vpn) {
      pin_self(vpn);
      if (std::this_thread::get_id() == caller) home_ = vpn;
      arrived.fetch_add(1);
      while (arrived.load() < pool.size()) std::this_thread::yield();
    });
  }
  /// The calling thread to its own slot among the p-pool's threads.
  void home() { pin_self(home_); }
  /// The calling thread to the CPU this round visits.
  void visit(long round) { pin_self(static_cast<unsigned>(round)); }

 private:
  void pin_self(unsigned slot) {
    if (cpus_.size() < 2) return;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpus_[slot % cpus_.size()], &one);
    pthread_setaffinity_np(pthread_self(), sizeof one, &one);
  }

  cpu_set_t all_;
  std::vector<int> cpus_;
  unsigned home_ = 0;
};

/// Everything a run holds: the workload and its two pools.
struct Rig {
  std::unique_ptr<Workload> w;
  std::unique_ptr<ThreadPool> pool_p;
  std::unique_ptr<ThreadPool> pool_1;
};

constexpr int kSetups = 5;          ///< timed set-ups per run
constexpr int kEpochs = 15;         ///< timed slices of a run
constexpr int kMinWarmup = 8;       ///< warm-up executions per mode, at least
constexpr int kMaxWarmup = 64;      ///< ... and at most, waiting for steady state
constexpr int kForkjoinBatch = 16;  ///< empty launches per sched.forkjoin_us sample
/// A run starts with this long of untimed rounds.  For the first seconds
/// of a process the parallel loops run markedly slower than later on
/// (measured on a 4-vCPU host: TRACK at p=4 reaches 0.18-0.23x of
/// sequential for about 5 s, then 0.29-0.34x), and so do the parallel
/// warm-up executions of a set-up, so neither is timed in those seconds.
constexpr double kWarmSeconds = 6.0;
/// Untimed rounds after each timed set-up, so the new pool settles.
constexpr double kSettleSeconds = 0.3;

/// Generate inputs, build the loop objects and pools, and warm up until an
/// execution on each pool allocates nothing new from the OS.
Rig set_up(const Options& o, unsigned p, Placement& placement, SpanLog& spans) {
  Scope s(spans, "setup");
  Rig rig;
  {
    Scope g(spans, "setup.generate");
    rig.w = make_workload(o.workload, o.seed);
  }
  {
    Scope g(spans, "setup.pools");
    rig.pool_p = std::make_unique<ThreadPool>(p);
    rig.pool_1 = std::make_unique<ThreadPool>(1);
    placement.pin_pool(*rig.pool_p);
  }
  Scope g(spans, "setup.warmup");
  auto& budget = wlp::mem::Budget::process();
  for (int i = 0; i < kMaxWarmup; ++i) {
    const long slow0 = budget.slow_allocs();
    for (ThreadPool* pool : {rig.pool_p.get(), rig.pool_1.get()}) {
      rig.w->reset();
      rig.w->run_parallel(*pool);
    }
    rig.w->reset();
    rig.w->run_sequential();
    if (i + 1 >= kMinWarmup && budget.slow_allocs() == slow0) break;
  }
  return rig;
}

/// The tail of the parallel times.  The run's executions are cut, in time
/// order, into blocks of kTailBlock; a block's tail is its highest
/// percentile that still has kTailBeyond samples beyond it, which is p90;
/// the tail is the median over blocks.  A fixed block keeps the percentile
/// the same on every workload and host, whatever the execution time; taken
/// over a whole run, the p99.9 of a short loop would measure the host's
/// rarest stalls rather than the runtime.
constexpr std::size_t kTailBlock = 100;
constexpr std::size_t kTailBeyond = 10;

double block_tail(const std::vector<double>& v) {
  std::vector<double> tails;
  for (std::size_t b = 0; b == 0 || b + kTailBlock <= v.size(); b += kTailBlock) {
    std::vector<double> block(v.begin() + static_cast<long>(b),
                              v.begin() + static_cast<long>(std::min(v.size(), b + kTailBlock)));
    std::sort(block.begin(), block.end());
    tails.push_back(block[block.size() - 1 - std::min(block.size() - 1, kTailBeyond)]);
  }
  return median(tails);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

/// Layer counters read around each traced execution.
struct Probe {
  wlp::PoolStats pool;
  wlp::mem::BudgetSnapshot mem;
  std::uint64_t claims, started, marks, merge_ns;

  static Probe take(const ThreadPool& pool) {
    auto& reg = wlp::obs::Registry::instance();
    static wlp::obs::Counter& claims_c = reg.counter("wlp.doall.claims");
    static wlp::obs::Counter& started_c = reg.counter("wlp.doall.started");
    static wlp::obs::Counter& marks_c = reg.counter("wlp.pd.marks");
    static wlp::obs::Histogram& merge_h = reg.histogram("wlp.pd.merge_ns");
    return {pool.stats(), wlp::mem::Budget::process().snapshot(),
            claims_c.value(), started_c.value(), marks_c.value(),
            merge_h.sum()};
  }
};

/// Totals over the traced executions of a --trace 1 run.
struct LayerTotals {
  long execs = 0;
  double launches = 0, spin = 0, park = 0;
  double claims = 0, doall_started = 0;
  double started = 0, trip = 0, hops = 0, marks = 0;
  double slow_allocs = 0, arena_allocs = 0;
  long pd_tested = 0, pd_passed = 0, reexec = 0, checkpointed = 0;
  std::vector<double> checkpoint_ns, undo_ns, analyze_ns, par_ns,
      undone, spec_peak_bytes;

  void add(const Probe& a, const Probe& b, const ExecReport& r, double ns) {
    ++execs;
    launches += static_cast<double>((b.pool.launches - a.pool.launches) +
                                    (b.pool.inline_launches - a.pool.inline_launches));
    spin += static_cast<double>(b.pool.spin_wakeups - a.pool.spin_wakeups);
    park += static_cast<double>(b.pool.park_wakeups - a.pool.park_wakeups);
    claims += static_cast<double>(b.claims - a.claims);
    doall_started += static_cast<double>(b.started - a.started);
    marks += static_cast<double>(b.marks - a.marks);
    slow_allocs += static_cast<double>(b.mem.slow_allocs - a.mem.slow_allocs);
    arena_allocs += static_cast<double>(b.mem.arena_allocs - a.mem.arena_allocs);
    started += static_cast<double>(r.started);
    trip += static_cast<double>(r.trip);
    hops += static_cast<double>(r.dispatcher_steps);
    const double analyze = static_cast<double>(b.merge_ns - a.merge_ns);
    if (r.pd_tested) {
      ++pd_tested;
      pd_passed += r.pd_passed ? 1 : 0;
      analyze_ns.push_back(analyze);
    }
    reexec += r.reexecuted_sequentially ? 1 : 0;
    if (r.used_checkpoint) {
      ++checkpointed;
      checkpoint_ns.push_back(r.checkpoint_ns);
      undo_ns.push_back(r.undo_ns);
      undone.push_back(static_cast<double>(r.undone_writes));
      spec_peak_bytes.push_back(static_cast<double>(r.peak_spec_bytes));
    }
    par_ns.push_back(ns - r.checkpoint_ns - r.undo_ns - analyze);
  }
};

enum class Mode { kSeq, kPar, kParP1, kParTraced };

/// Timings of one timed epoch, ns per execution.
struct Epoch {
  std::vector<double> seq, par, p1, traced;
};

/// Everything one run measures.
struct Samples {
  std::vector<Epoch> epochs;
  std::vector<double> forkjoin;  ///< ns per empty launch of the p-pool
  LayerTotals lt;
  long attempted = 0, failed = 0, loop_id = 0;
};

/// The median over the timed epochs of a per-epoch statistic.  Each epoch's
/// number compares executions interleaved within a second or two; the median
/// over epochs then sets aside the few epochs a burst of contention from
/// elsewhere on the host distorts.
template <class F>
double over_epochs(const Samples& smp, F f) {
  std::vector<double> v;
  for (const Epoch& e : smp.epochs) v.push_back(f(e));
  return median(v);
}

Clock::time_point after_s(Clock::time_point t, double s) {
  return t + std::chrono::duration_cast<Clock::duration>(std::chrono::duration<double>(s));
}

/// Interleaved measurement on one rig for `seconds`: every round runs each
/// mode once, in an order that rotates from round to round.  Untimed rounds
/// are run and checked like timed ones.  Returns false if a sequential
/// execution disagrees with the oracle.
bool measure(const Options& o, Rig& rig, Placement& placement, double seconds,
             bool timed, Samples& out, SpanLog& spans) {
  const std::vector<Mode> modes =
      o.trace ? std::vector<Mode>{Mode::kSeq, Mode::kPar, Mode::kParTraced}
              : std::vector<Mode>{Mode::kSeq, Mode::kPar, Mode::kParP1};
  Workload& w = *rig.w;
  Epoch* ep = timed ? &out.epochs.emplace_back() : nullptr;
  const auto t_end = after_s(Clock::now(), seconds);
  for (long round = 0; Clock::now() < t_end || (ep && ep->seq.size() < 3); ++round) {
    for (std::size_t k = 0; k < modes.size(); ++k) {
      const Mode m = modes[(k + static_cast<std::size_t>(round)) % modes.size()];
      const long id = out.loop_id++;
      Scope loop_span(spans, "loop", id);
      {
        Scope s(spans, "reset", id);
        w.reset();
      }
      ThreadPool& pool = m == Mode::kParP1 ? *rig.pool_1 : *rig.pool_p;
      if (&pool == rig.pool_p.get())
        placement.home();
      else
        placement.visit(round);
      Probe before{};
      if (m == Mode::kParTraced) {
        before = Probe::take(pool);
        wlp::obs::set_metrics_enabled(true);
      }
      ExecReport rep;
      double ns;
      {
        Scope s(spans, m == Mode::kSeq ? "run_sequential" : "run_parallel", id);
        const auto t0 = Clock::now();
        if (m == Mode::kSeq)
          w.run_sequential();
        else
          rep = w.run_parallel(pool);
        ns = ns_between(t0, Clock::now());
      }
      if (m == Mode::kParTraced) {
        wlp::obs::set_metrics_enabled(false);
        if (ep) out.lt.add(before, Probe::take(pool), rep, ns);
      }
      if (o.corrupt && m != Mode::kSeq && &pool == rig.pool_p.get()) w.corrupt();
      bool ok;
      {
        Scope s(spans, "check", id);
        ok = w.matches_oracle();
      }
      if (m == Mode::kSeq && !ok) return false;
      if (m != Mode::kSeq) {
        ++out.attempted;
        out.failed += ok ? 0 : 1;
      }
      if (ep) {
        switch (m) {
          case Mode::kSeq: ep->seq.push_back(ns); break;
          case Mode::kPar: ep->par.push_back(ns); break;
          case Mode::kParP1: ep->p1.push_back(ns); break;
          case Mode::kParTraced: ep->traced.push_back(ns); break;
        }
      }
    }
    if (o.trace && ep) {
      Scope s(spans, "forkjoin");
      placement.home();
      const auto t0 = Clock::now();
      for (int i = 0; i < kForkjoinBatch; ++i) rig.pool_p->parallel([](unsigned) {});
      out.forkjoin.push_back(ns_between(t0, Clock::now()) / kForkjoinBatch);
    }
  }
  return true;
}

int run(const Options& o) {
  Placement placement;
  const unsigned hw = placement.cpus();
  const unsigned p = std::min(4u, hw);
  // End-to-end numbers come from executions with every obs hook off; the
  // traced executions of --trace 1 switch metrics on around themselves.
  wlp::obs::set_metrics_enabled(false);
  wlp::obs::Tracer::instance().set_enabled(false);
  SpanLog spans(o.trace);

  // Warm up on a first rig, then set everything up kSetups times, timing
  // each set-up and running untimed rounds after it, and time kEpochs
  // slices of the run on the last rig.
  std::vector<double> setup_s;
  Samples smp;
  Rig rig = set_up(o, p, placement, spans);
  bool ok = measure(o, rig, placement, kWarmSeconds, false, smp, spans);
  for (int i = 0; ok && i < kSetups; ++i) {
    rig = Rig{};  // one workload alive at a time
    const auto t0 = Clock::now();
    rig = set_up(o, p, placement, spans);
    setup_s.push_back(ns_between(t0, Clock::now()) / 1e9);
    ok = measure(o, rig, placement, kSettleSeconds, false, smp, spans);
  }
  if (!ok) {
    std::fprintf(stderr, "sequential execution disagrees with the oracle\n");
    return 1;
  }
  for (int e = 0; e < kEpochs; ++e) {
    if (!measure(o, rig, placement, o.seconds / kEpochs, true, smp, spans)) {
      std::fprintf(stderr, "sequential execution disagrees with the oracle\n");
      return 1;
    }
  }
  Workload& w = *rig.w;
  const LayerTotals& lt = smp.lt;

  const double seq_med = over_epochs(smp, [](const Epoch& e) { return median(e.seq); });
  const double par_med = over_epochs(smp, [](const Epoch& e) { return median(e.par); });
  const double speedup =
      over_epochs(smp, [](const Epoch& e) { return median(e.seq) / median(e.par); });
  const long attempted = smp.attempted, failed = smp.failed;
  const bool correct = failed == 0;

  std::size_t rounds = 0;
  for (const Epoch& e : smp.epochs) rounds += e.seq.size();
  std::printf("workload %s  seed %llu  p %u (nproc %u)  trip %ld  timed rounds %zu in %d epochs\n",
              o.workload.c_str(), static_cast<unsigned long long>(o.seed), p, hw,
              w.trip(), rounds, kEpochs);
  std::printf("sequential p50 %.3f us  parallel p50 %.3f us  (medians over epochs)\n",
              seq_med / 1e3, par_med / 1e3);
  std::printf("mismatch_ratio %.6g (%ld of %ld parallel executions)\n",
              attempted ? static_cast<double>(failed) / static_cast<double>(attempted) : 0.0,
              failed, attempted);

  std::vector<Metric> ms;
  if (!o.trace) {
    std::vector<double> par;
    for (const Epoch& e : smp.epochs) par.insert(par.end(), e.par.begin(), e.par.end());
    std::printf("speedup_tail: parallel time at p90 (%zu of %zu samples beyond it), "
                "median over %zu blocks\n",
                kTailBeyond, kTailBlock, std::max<std::size_t>(1, par.size() / kTailBlock));
    ms = {
        {"speedup_p50", speedup, "x"},
        {"speedup_tail", seq_med / block_tail(par), "x"},
        {"overhead_p1",
         over_epochs(smp, [](const Epoch& e) { return median(e.p1) / median(e.seq); }), "x"},
        {"match_ratio",
         attempted ? 1.0 - static_cast<double>(failed) / static_cast<double>(attempted) : 0.0,
         "ratio"},
        {"peak_rss_mb", peak_rss_mb(), "MB"},
        {"setup_s", median(setup_s), "s"},
    };
  } else {
    const double loops = static_cast<double>(lt.execs * w.loops());
    auto ratio = [](double a, double b) { return b > 0 ? a / b : 0.0; };
    auto na = [](const char* name, const char* unit) {
      return Metric{name, -1, unit, false};
    };
    const bool spec = lt.checkpointed > 0;
    const bool pd = lt.pd_tested > 0;
    const bool doall = lt.doall_started > 0;
    const double trace_overhead =
        over_epochs(smp, [](const Epoch& e) { return median(e.traced) / median(e.par); });
    const double predicted = w.predicted_speedup(p);
    ms = {
        {"sched.forkjoin_us", median(smp.forkjoin) / 1e3, "us"},
        {"sched.launches_per_loop", ratio(lt.launches, loops), "count"},
        lt.spin + lt.park > 0
            ? Metric{"sched.park_ratio", ratio(lt.park, lt.spin + lt.park), "ratio"}
            : na("sched.park_ratio", "ratio"),
        doall ? Metric{"sched.claims_per_iter", ratio(lt.claims, lt.doall_started), "ratio"}
              : na("sched.claims_per_iter", "ratio"),
        {"sched.overshoot_ratio", ratio(lt.started, lt.trip), "ratio"},
        spec ? Metric{"core.checkpoint_us", median(lt.checkpoint_ns) / 1e3, "us"}
             : na("core.checkpoint_us", "us"),
        spec ? Metric{"core.undo_us", median(lt.undo_ns) / 1e3, "us"}
             : na("core.undo_us", "us"),
        spec ? Metric{"core.undone_writes", median(lt.undone), "count"}
             : na("core.undone_writes", "count"),
        {"core.par_us", median(lt.par_ns) / 1e3, "us"},
        spec ? Metric{"core.reexec_ratio", ratio(static_cast<double>(lt.reexec),
                                                 static_cast<double>(lt.execs)),
                      "ratio"}
             : na("core.reexec_ratio", "ratio"),
        lt.hops > 0 ? Metric{"core.hops_per_iter", ratio(lt.hops, lt.trip), "ratio"}
                    : na("core.hops_per_iter", "ratio"),
        spec ? Metric{"core.spec_peak_kb", median(lt.spec_peak_bytes) / 1024, "KiB"}
             : na("core.spec_peak_kb", "KiB"),
        pd ? Metric{"pd.marks_per_iter", ratio(lt.marks, lt.started), "ratio"}
           : na("pd.marks_per_iter", "ratio"),
        pd ? Metric{"pd.analyze_us", median(lt.analyze_ns) / 1e3, "us"}
           : na("pd.analyze_us", "us"),
        pd ? Metric{"pd.pass_ratio", ratio(static_cast<double>(lt.pd_passed),
                                           static_cast<double>(lt.pd_tested)),
                    "ratio"}
           : na("pd.pass_ratio", "ratio"),
        {"mem.slow_allocs_per_loop", ratio(lt.slow_allocs, loops), "count"},
        {"mem.arena_allocs_per_loop", ratio(lt.arena_allocs, loops), "count"},
        {"mem.bytes_peak_kb",
         static_cast<double>(wlp::mem::Budget::process().bytes_peak()) / 1024, "KiB"},
        {"workloads.seq_us_p50", seq_med / 1e3, "us"},
        {"workloads.trip", static_cast<double>(w.trip()), "count"},
        {"sim.predicted_speedup", predicted, "x"},
        {"sim.residual", speedup / predicted, "ratio"},
        {"obs.trace_overhead", trace_overhead, "ratio"},
    };
  }
  print_result(ms, correct, attempted, failed);
  if (o.trace && !o.spans.empty() && !spans.write(o.spans))
    std::fprintf(stderr, "could not write spans to %s\n", o.spans.c_str());
  return correct ? 0 : 1;
}

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload <track_spec|spice_g3|pivot_doany> "
               "--seed <n> --seconds <s> --trace <0|1> [--spans <file>] "
               "[--corrupt]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const bool has_value = i + 1 < argc;
    if (a == "--corrupt") {
      o.corrupt = true;
    } else if (a == "--workload" && has_value) {
      o.workload = argv[++i];
    } else if (a == "--seed" && has_value) {
      o.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (a == "--seconds" && has_value) {
      o.seconds = std::atof(argv[++i]);
    } else if (a == "--trace" && has_value) {
      o.trace = std::atoi(argv[++i]) != 0;
    } else if (a == "--spans" && has_value) {
      o.spans = argv[++i];
    } else {
      return usage();
    }
  }
  if (o.seconds <= 0 || (o.workload != "track_spec" && o.workload != "spice_g3" &&
                         o.workload != "pivot_doany"))
    return usage();
  try {
    return run(o);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
