#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

#include "wlp/core/speculative.hpp"

namespace wlp {
namespace {

/// Independent loop: A[perm[i]] = i, RV exit at `exit_at`.  The access
/// pattern is a permutation so the PD test must pass and the overshoot must
/// be undone.
TEST(Speculative, IndependentLoopPassesAndUndoesOvershoot) {
  ThreadPool pool(4);
  const long n = 2000, exit_at = 1500;
  SpecArray<double> arr(std::vector<double>(static_cast<std::size_t>(n), -1.0),
                        pool.size(), true);
  SpecTarget* targets[] = {&arr};

  const ExecReport r = speculative_while(
      pool, n, std::span<SpecTarget* const>(targets, 1),
      [&](long i, unsigned vpn) {
        arr.begin_iteration(vpn, i);
        if (i >= exit_at) return IterAction::kExit;
        // scrambled but bijective index
        const auto idx = static_cast<std::size_t>((i * 7901) % n);
        arr.set(vpn, i, idx, static_cast<double>(i));
        return IterAction::kContinue;
      },
      [&] { return exit_at; });

  EXPECT_TRUE(r.pd_passed);
  EXPECT_TRUE(r.pd_tested);
  EXPECT_FALSE(r.reexecuted_sequentially);
  EXPECT_EQ(r.trip, exit_at);

  // Exactly the iterations < exit_at are visible.
  std::vector<double> expect(static_cast<std::size_t>(n), -1.0);
  for (long i = 0; i < exit_at; ++i)
    expect[static_cast<std::size_t>((i * 7901) % n)] = static_cast<double>(i);
  EXPECT_EQ(arr.data(), expect);
}

/// Flow-dependent loop: A[i] = A[i-1] + 1.  The PD test must fail, all
/// state must be restored, and the sequential re-execution must produce the
/// exact sequential result.
TEST(Speculative, FlowDependenceFailsAndFallsBack) {
  ThreadPool pool(4);
  const long n = 500;
  SpecArray<double> arr(std::vector<double>(static_cast<std::size_t>(n), 0.0),
                        pool.size(), true);
  SpecTarget* targets[] = {&arr};

  const ExecReport r = speculative_while(
      pool, n, std::span<SpecTarget* const>(targets, 1),
      [&](long i, unsigned vpn) {
        arr.begin_iteration(vpn, i);
        if (i == 0) return IterAction::kContinue;
        const double prev = arr.get(vpn, static_cast<std::size_t>(i - 1));
        arr.set(vpn, i, static_cast<std::size_t>(i), prev + 1.0);
        return IterAction::kContinue;
      },
      [&] {
        auto& d = arr.data();
        for (long i = 1; i < n; ++i)
          d[static_cast<std::size_t>(i)] = d[static_cast<std::size_t>(i - 1)] + 1.0;
        return n;
      });

  EXPECT_FALSE(r.pd_passed);
  EXPECT_TRUE(r.reexecuted_sequentially);
  EXPECT_EQ(r.trip, n);
  for (long i = 0; i < n; ++i)
    EXPECT_EQ(arr.data()[static_cast<std::size_t>(i)], static_cast<double>(i)) << i;
}

/// Section 5.1: an exception during the speculative run is treated as an
/// invalid parallel execution — restore and run sequentially.
TEST(Speculative, ExceptionTriggersSequentialReexecution) {
  ThreadPool pool(4);
  const long n = 300;
  SpecArray<double> arr(std::vector<double>(static_cast<std::size_t>(n), 0.0),
                        pool.size(), true);
  SpecTarget* targets[] = {&arr};

  const ExecReport r = speculative_while(
      pool, n, std::span<SpecTarget* const>(targets, 1),
      [&](long i, unsigned vpn) {
        arr.begin_iteration(vpn, i);
        arr.set(vpn, i, static_cast<std::size_t>(i), 99.0);
        if (i == 150) throw std::runtime_error("simulated fault");
        return IterAction::kContinue;
      },
      [&] {
        auto& d = arr.data();
        for (long i = 0; i < n; ++i) d[static_cast<std::size_t>(i)] = 7.0;
        return n;
      });

  EXPECT_TRUE(r.reexecuted_sequentially);
  for (long i = 0; i < n; ++i)
    EXPECT_EQ(arr.data()[static_cast<std::size_t>(i)], 7.0) << i;
}

/// Output dependence (same location written by two iterations) without any
/// exposed read: the strict DOALL verdict fails (privatization would be
/// needed), so the driver falls back.
TEST(Speculative, OutputDependenceIsDetected) {
  ThreadPool pool(4);
  SpecArray<double> arr(std::vector<double>(10, 0.0), pool.size(), true);
  SpecTarget* targets[] = {&arr};

  const ExecReport r = speculative_while(
      pool, 100, std::span<SpecTarget* const>(targets, 1),
      [&](long i, unsigned vpn) {
        arr.begin_iteration(vpn, i);
        arr.set(vpn, i, 3, static_cast<double>(i));
        return IterAction::kContinue;
      },
      [&] {
        arr.data()[3] = 99.0;
        return 100L;
      });

  EXPECT_FALSE(r.pd_passed);
  EXPECT_TRUE(r.reexecuted_sequentially);
  EXPECT_EQ(arr.data()[3], 99.0);
}

/// A valid and an overshot iteration write the same element: iterations 2
/// and 7 both write A[0], the loop exits at 5, and without QUIT every
/// iteration runs.  The max-stamp undo would restore A[0] to its pre-loop
/// value and lose iteration 2's write, so the PD test must reject the run
/// and the sequential re-run must give A[0] = 2.
TEST(Speculative, ValidAndOvershotWriteCollisionReexecutes) {
  for (unsigned p : {1u, 2u}) {
    ThreadPool pool(p);
    SpecArray<double> arr(std::vector<double>(4, -1.0), pool.size(), true);
    SpecTarget* targets[] = {&arr};
    SpecOptions opts;
    opts.doall.use_quit = false;

    const ExecReport r = speculative_while(
        pool, 10, std::span<SpecTarget* const>(targets, 1),
        [&](long i, unsigned vpn) {
          arr.begin_iteration(vpn, i);
          if (i == 5) return IterAction::kExit;
          if (i == 2 || i == 7) arr.set(vpn, i, 0, static_cast<double>(i));
          return IterAction::kContinue;
        },
        [&] {
          arr.data()[0] = 2.0;
          return 5L;
        },
        opts);

    EXPECT_TRUE(r.pd_tested) << "p=" << p;
    EXPECT_FALSE(r.pd_passed) << "p=" << p;
    EXPECT_TRUE(r.reexecuted_sequentially) << "p=" << p;
    EXPECT_EQ(r.trip, 5) << "p=" << p;
    EXPECT_EQ(arr.data()[0], 2.0) << "p=" << p;
  }
}

/// Non-shadowed arrays skip the PD test but still get stamps and undo.
TEST(Speculative, UnshadowedArraySkipsPDButUndoes) {
  ThreadPool pool(4);
  const long n = 1000, exit_at = 600;
  SpecArray<double> arr(std::vector<double>(static_cast<std::size_t>(n), -2.0),
                        pool.size(), /*run_pd_test=*/false);
  SpecTarget* targets[] = {&arr};

  const ExecReport r = speculative_while(
      pool, n, std::span<SpecTarget* const>(targets, 1),
      [&](long i, unsigned vpn) {
        arr.begin_iteration(vpn, i);
        if (i >= exit_at) return IterAction::kExit;
        arr.set(vpn, i, static_cast<std::size_t>(i), 1.0);
        return IterAction::kContinue;
      },
      [&] { return exit_at; });

  EXPECT_FALSE(r.pd_tested);
  EXPECT_FALSE(r.reexecuted_sequentially);
  EXPECT_EQ(r.shadow_marks, 0);  // no shadow, no instrumentation tax
  for (long i = 0; i < n; ++i)
    EXPECT_EQ(arr.data()[static_cast<std::size_t>(i)], i < exit_at ? 1.0 : -2.0);
}

/// A/B policy switch: the same loop driven through the shared-store policy
/// must behave identically to the default privatized one, and both must
/// report the marks the run actually made.
TEST(Speculative, SharedShadowPolicyIsDropInEquivalent) {
  ThreadPool pool(4);
  const long n = 1000, exit_at = 800;

  auto run = [&](auto& arr) {
    SpecTarget* targets[] = {&arr};
    return speculative_while(
        pool, n, std::span<SpecTarget* const>(targets, 1),
        [&](long i, unsigned vpn) {
          arr.begin_iteration(vpn, i);
          if (i >= exit_at) return IterAction::kExit;
          const auto idx = static_cast<std::size_t>((i * 7901) % n);
          arr.set(vpn, i, idx, static_cast<double>(i));
          return IterAction::kContinue;
        },
        [&] { return exit_at; });
  };

  SpecArray<double, PDSharedShadow> shared_arr(
      std::vector<double>(static_cast<std::size_t>(n), -1.0), pool.size(), true);
  SpecArray<double, PDPrivateShadow> priv_arr(
      std::vector<double>(static_cast<std::size_t>(n), -1.0), pool.size(), true);

  const ExecReport rs = run(shared_arr);
  const ExecReport rp = run(priv_arr);

  for (const ExecReport& r : {rs, rp}) {
    EXPECT_TRUE(r.pd_tested);
    EXPECT_TRUE(r.pd_passed);
    EXPECT_FALSE(r.reexecuted_sequentially);
    EXPECT_EQ(r.trip, exit_at);
    // Exactly one write mark per valid iteration; overshot iterations hit
    // the exit probe before touching the array.
    EXPECT_EQ(r.shadow_marks, exit_at);
  }
  EXPECT_EQ(shared_arr.data(), priv_arr.data());
}

}  // namespace
}  // namespace wlp
