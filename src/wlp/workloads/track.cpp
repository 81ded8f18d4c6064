#include "wlp/workloads/track.hpp"

#include <cmath>
#include <numeric>

#include "wlp/core/speculative.hpp"
#include "wlp/core/while_induction.hpp"
#include "wlp/support/prng.hpp"

namespace wlp::workloads {

TrackLoop::TrackLoop(TrackConfig cfg) : cfg_(cfg) {
  Xoshiro256 rng(cfg.seed);
  const long n = cfg.candidates;
  sub_.resize(static_cast<std::size_t>(n));
  std::iota(sub_.begin(), sub_.end(), 0);
  for (std::size_t k = sub_.size(); k > 1; --k)
    std::swap(sub_[k - 1], sub_[static_cast<std::size_t>(rng.below(k))]);

  obs_.resize(static_cast<std::size_t>(n));
  steps_.resize(static_cast<std::size_t>(n));
  for (long i = 0; i < n; ++i) {
    obs_[static_cast<std::size_t>(i)] = rng.uniform(-1.0, 1.0);
    steps_[static_cast<std::size_t>(i)] = static_cast<std::int16_t>(rng.range(6, 30));
  }
  exit_at_ = static_cast<long>(static_cast<double>(n) * cfg.error_position) +
             static_cast<long>(rng.below(16));
  if (exit_at_ >= n) exit_at_ = n - 1;
  // Plant the error: an observation outside the physical window.
  obs_[static_cast<std::size_t>(exit_at_)] = 50.0;
}

bool TrackLoop::extrapolate(long i, double& p_out, double& v_out) const {
  const double z = obs_[static_cast<std::size_t>(i)];
  // Alpha-beta smoothing of the candidate track over `steps_` updates: the
  // variable-cost numeric kernel standing in for FPTRAK's extrapolation.
  double p = 0, v = 0;
  const int reps = steps_[static_cast<std::size_t>(i)];
  for (int k = 0; k < reps; ++k) {
    const double pred = p + v;
    const double resid = z - pred;
    p = pred + 0.85 * resid;
    v = v + 0.35 * resid;
  }
  p_out = p;
  v_out = v;
  return std::abs(z) > 10.0;  // error condition: unphysical observation
}

std::vector<double> TrackLoop::fresh_positions() const {
  return std::vector<double>(static_cast<std::size_t>(cfg_.candidates), -1.0);
}
std::vector<double> TrackLoop::fresh_velocities() const {
  return std::vector<double>(static_cast<std::size_t>(cfg_.candidates), -1.0);
}

long TrackLoop::run_sequential(std::vector<double>& pos,
                               std::vector<double>& vel) const {
  for (long i = 0; i < cfg_.candidates; ++i) {
    double p, v;
    if (extrapolate(i, p, v)) return i;  // exit before the store
    const auto slot = static_cast<std::size_t>(sub_[static_cast<std::size_t>(i)]);
    pos[slot] = p;
    vel[slot] = v;
  }
  return cfg_.candidates;
}

ExecReport TrackLoop::run_induction1(ThreadPool& pool, std::vector<double>& pos,
                                     std::vector<double>& vel) const {
  VersionedArray<double> vpos(std::move(pos));
  VersionedArray<double> vvel(std::move(vel));
  vpos.checkpoint(&pool);
  vvel.checkpoint(&pool);
  ExecReport r = while_induction1(pool, cfg_.candidates, [&](long i, unsigned) {
    double p, v;
    if (extrapolate(i, p, v)) return IterAction::kExit;
    const auto slot = static_cast<std::size_t>(sub_[static_cast<std::size_t>(i)]);
    vpos.write(i, slot, p);
    vvel.write(i, slot, v);
    return IterAction::kContinue;
  });
  r.used_checkpoint = r.used_stamps = true;
  r.undone_writes = vpos.undo_beyond(r.trip, &pool) + vvel.undo_beyond(r.trip, &pool);
  pos = std::move(vpos.data());
  vel = std::move(vvel.data());
  return r;
}

ExecReport TrackLoop::run_induction2(ThreadPool& pool, std::vector<double>& pos,
                                     std::vector<double>& vel) const {
  VersionedArray<double> vpos(std::move(pos));
  VersionedArray<double> vvel(std::move(vel));
  vpos.checkpoint(&pool);
  vvel.checkpoint(&pool);
  ExecReport r = while_induction2(pool, cfg_.candidates, [&](long i, unsigned) {
    double p, v;
    if (extrapolate(i, p, v)) return IterAction::kExit;
    const auto slot = static_cast<std::size_t>(sub_[static_cast<std::size_t>(i)]);
    vpos.write(i, slot, p);
    vvel.write(i, slot, v);
    return IterAction::kContinue;
  });
  r.used_checkpoint = r.used_stamps = true;
  r.undone_writes = vpos.undo_beyond(r.trip, &pool) + vvel.undo_beyond(r.trip, &pool);
  pos = std::move(vpos.data());
  vel = std::move(vvel.data());
  return r;
}

ExecReport TrackLoop::run_speculative(ThreadPool& pool, std::vector<double>& pos,
                                      std::vector<double>& vel) const {
  // pos and vel are written through the same subscript sub[i] by the same
  // iterations: vel is built over pos's access pattern, so each iteration
  // pays one stamp word and one PD mark for the pair (DESIGN.md §9).
  SpecArray<double> spos(std::move(pos), pool.size(), /*run_pd_test=*/true);
  SpecArray<double> svel(std::move(vel), spos.shared_pattern());
  SpecTarget* targets[] = {&spos, &svel};

  ExecReport r = speculative_while(
      pool, cfg_.candidates, std::span<SpecTarget* const>(targets, 2),
      [&](long i, unsigned vpn) {
        spos.begin_iteration(vpn, i);  // also svel's: one shared pattern
        double p, v;
        if (extrapolate(i, p, v)) return IterAction::kExit;
        const auto slot = static_cast<std::size_t>(sub_[static_cast<std::size_t>(i)]);
        spos.set(vpn, i, slot, p);
        svel.set(vpn, i, slot, v);
        return IterAction::kContinue;
      },
      [&] {
        // Sequential fallback against the restored raw data.
        long trip = cfg_.candidates;
        for (long i = 0; i < cfg_.candidates; ++i) {
          double p, v;
          if (extrapolate(i, p, v)) {
            trip = i;
            break;
          }
          const auto slot = static_cast<std::size_t>(sub_[static_cast<std::size_t>(i)]);
          spos.data()[slot] = p;
          svel.data()[slot] = v;
        }
        return trip;
      });
  pos = std::move(spos.data());
  vel = std::move(svel.data());
  return r;
}

ExecReport TrackLoop::run_ideal(ThreadPool& pool, std::vector<double>& pos,
                                std::vector<double>& vel) const {
  // Oracle: the trip count is known, so the loop is a plain DOALL with no
  // exit tests, checkpoints, or stamps — the hand-parallelized upper bound.
  doall(pool, 0, exit_at_, [&](long i, unsigned) {
    double p, v;
    extrapolate(i, p, v);
    const auto slot = static_cast<std::size_t>(sub_[static_cast<std::size_t>(i)]);
    pos[slot] = p;
    vel[slot] = v;
  });
  ExecReport r;
  r.method = Method::kInduction2;
  r.trip = exit_at_;
  r.started = exit_at_;
  return r;
}

sim::LoopProfile TrackLoop::profile() const {
  sim::LoopProfile lp;
  lp.u = cfg_.candidates;
  lp.trip = exit_at_;
  lp.work.reserve(static_cast<std::size_t>(lp.u));
  for (long i = 0; i < lp.u; ++i)
    lp.work.push_back(0.45 * static_cast<double>(steps_[static_cast<std::size_t>(i)]) + 1.5);
  lp.next_cost = 0;  // induction dispatcher: closed form
  lp.writes_per_iter = 2;
  lp.reads_per_iter = 2;
  lp.state_words = 2 * cfg_.candidates;  // both output arrays checkpointed
  lp.shadow_cells = 2 * cfg_.candidates;
  lp.overshoot_does_work = true;  // the error is detected inside the work
  lp.singular_exit = true;  // only the planted bad track reveals the exit
  return lp;
}

}  // namespace wlp::workloads
