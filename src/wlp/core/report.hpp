// Execution reports: what a transformed WHILE loop did at run time.
#pragma once

#include <cstddef>
#include <string_view>

namespace wlp {

/// Which transformation executed the loop.
enum class Method {
  kSequential,        ///< reference execution
  kInduction1,        ///< Fig. 2, DOALL + per-processor minima
  kInduction2,        ///< Fig. 2, ordered issue + QUIT
  kAssocPrefix,       ///< Fig. 3, distribution + parallel prefix + DOALL
  kGeneral1,          ///< Fig. 4, serialized next() under a lock
  kGeneral2,          ///< Fig. 4, private traversal, static i mod p
  kGeneral3,          ///< Fig. 4, private traversal, dynamic self-scheduling
  kWuLewisDistribute, ///< baseline: sequential dispatcher pass, then DOALL
  kWuLewisDoacross,   ///< baseline: pipelined DOACROSS
  kStripMined,        ///< Section 4/8.1 strip-mined execution
  kSlidingWindow,     ///< Section 8.2 resource-controlled self-scheduling
  kDoany,             ///< Section 9 WHILE-DOANY (order-insensitive)
};

constexpr std::string_view to_string(Method m) noexcept {
  switch (m) {
    case Method::kSequential:        return "sequential";
    case Method::kInduction1:        return "Induction-1";
    case Method::kInduction2:        return "Induction-2";
    case Method::kAssocPrefix:       return "Assoc-Prefix";
    case Method::kGeneral1:          return "General-1";
    case Method::kGeneral2:          return "General-2";
    case Method::kGeneral3:          return "General-3";
    case Method::kWuLewisDistribute: return "WuLewis-Distribute";
    case Method::kWuLewisDoacross:   return "WuLewis-Doacross";
    case Method::kStripMined:        return "Strip-Mined";
    case Method::kSlidingWindow:     return "Sliding-Window";
    case Method::kDoany:             return "WHILE-DOANY";
  }
  return "?";
}

/// What happened during one transformed execution.
struct ExecReport {
  Method method = Method::kSequential;
  long trip = 0;      ///< sequential trip count recovered by the run
  long started = 0;   ///< iteration bodies that actually executed
  long overshot = 0;  ///< bodies executed with index >= trip (to be undone)
  long undone_writes = 0;  ///< memory locations restored after the run
  long shadow_marks = 0;   ///< PD shadow marks recorded during the run
  long dispatcher_steps = 0;  ///< total recurrence evaluations (hops) across
                              ///< all processors; ~trip for General-1, up
                              ///< to ~p*trip for General-2/3
  long claims = 0;  ///< General-3: grabs against its shared issue counter
                    ///< (the DOALL drivers' count is QuitResult::claims)
  long verdict_probes = 0;  ///< verdict-cache lookups issued (0 = no cache)
  long verdict_hits = 0;    ///< lookups served from the cache
  double checkpoint_ns = 0;  ///< measured wall time snapshotting state (Tb)
  double undo_ns = 0;        ///< measured wall time undoing/restoring (Ta)
  double analyze_ns = 0;     ///< measured wall time in the PD test (Td)
  double seq_ns = 0;         ///< measured wall time re-running the loop
                             ///< sequentially after a failed round (Tseq)
  std::size_t peak_spec_bytes = 0;  ///< max bytes the backups measurably
                                    ///< pinned (SpecTransaction memory_bytes
                                    ///< polls; 0 = driver did not poll)
  bool used_checkpoint = false;
  bool used_stamps = false;
  bool pd_tested = false;
  bool pd_passed = true;
  bool backup_overflow = false;  ///< sparse backup hit capacity; the run was
                                 ///< abandoned like a failed PD test
  bool reexecuted_sequentially = false;  ///< speculation failed, ran serial
};

}  // namespace wlp
