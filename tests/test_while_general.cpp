#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <numeric>
#include <vector>

#include "wlp/core/while_general.hpp"
#include "wlp/workloads/linked_list.hpp"

namespace wlp {
namespace {

using workloads::kNullNode;
using workloads::NodePool;

/// Index-linked list over a plain vector: next[i] or -1.
struct ChainFixture {
  std::vector<long> next;
  explicit ChainFixture(long n) : next(static_cast<std::size_t>(n)) {
    std::iota(next.begin(), next.end(), 1);
    if (n > 0) next[static_cast<std::size_t>(n - 1)] = -1;
  }
  long head() const { return next.empty() ? -1 : 0; }
  auto next_fn() const {
    return [this](long c) { return next[static_cast<std::size_t>(c)]; };
  }
  static bool is_end(long c) { return c < 0; }
};

enum class Gen { k1, k2, k3 };

// Printed by gtest as a raw byte dump into the test names, so every byte is
// a value: a pointer member or padding would make the names change between
// builds and runs.
struct GeneralCase {
  Gen which;
  char name[12];
};
static_assert(sizeof(GeneralCase) == 16, "GeneralCase must have no padding");

class GeneralMethods : public ::testing::TestWithParam<GeneralCase> {
 protected:
  template <class Body>
  ExecReport run(ThreadPool& pool, const ChainFixture& c, Body&& body) {
    switch (GetParam().which) {
      case Gen::k1:
        return while_general1(pool, c.head(), c.next_fn(), &ChainFixture::is_end, body);
      case Gen::k2:
        return while_general2(pool, c.head(), c.next_fn(), &ChainFixture::is_end, body);
      case Gen::k3:
        return while_general3(pool, c.head(), c.next_fn(), &ChainFixture::is_end, body);
    }
    std::abort();
  }
};

TEST_P(GeneralMethods, VisitsEveryElementExactlyOnce) {
  ThreadPool pool(4);
  const long n = 503;
  ChainFixture chain(n);
  std::vector<std::atomic<int>> hit(n);
  const ExecReport r = run(pool, chain, [&](long i, long cursor, unsigned) {
    EXPECT_EQ(i, cursor);  // chain identity: position == index
    hit[static_cast<std::size_t>(cursor)].fetch_add(1);
    return IterAction::kContinue;
  });
  EXPECT_EQ(r.trip, n);
  EXPECT_EQ(r.overshot, 0);
  for (long i = 0; i < n; ++i) EXPECT_EQ(hit[static_cast<std::size_t>(i)].load(), 1);
}

TEST_P(GeneralMethods, EmptyList) {
  ThreadPool pool(4);
  ChainFixture chain(0);
  std::atomic<int> runs{0};
  const ExecReport r = run(pool, chain, [&](long, long, unsigned) {
    runs.fetch_add(1);
    return IterAction::kContinue;
  });
  EXPECT_EQ(r.trip, 0);
  EXPECT_EQ(runs.load(), 0);
}

TEST_P(GeneralMethods, SingleElement) {
  ThreadPool pool(4);
  ChainFixture chain(1);
  std::atomic<int> runs{0};
  const ExecReport r = run(pool, chain, [&](long, long, unsigned) {
    runs.fetch_add(1);
    return IterAction::kContinue;
  });
  EXPECT_EQ(r.trip, 1);
  EXPECT_EQ(runs.load(), 1);
}

TEST_P(GeneralMethods, RemainderVariantExitRecoversTrip) {
  ThreadPool pool(4);
  const long n = 800, exit_at = 390;
  ChainFixture chain(n);
  const ExecReport r = run(pool, chain, [&](long i, long, unsigned) {
    return i == exit_at ? IterAction::kExit : IterAction::kContinue;
  });
  EXPECT_EQ(r.trip, exit_at);
}

INSTANTIATE_TEST_SUITE_P(Methods, GeneralMethods,
                         ::testing::Values(GeneralCase{Gen::k1, "General1"},
                                           GeneralCase{Gen::k2, "General2"},
                                           GeneralCase{Gen::k3, "General3"}),
                         [](const auto& info) { return info.param.name; });

TEST(GeneralHops, General2TraversesPerProcessorGeneral13CooperateOrReplay) {
  ThreadPool pool(4);
  const long n = 400;
  ChainFixture chain(n);
  auto noop = [](long, long, unsigned) { return IterAction::kContinue; };
  const ExecReport g1 =
      while_general1(pool, chain.head(), chain.next_fn(), &ChainFixture::is_end, noop);
  const ExecReport g2 =
      while_general2(pool, chain.head(), chain.next_fn(), &ChainFixture::is_end, noop);
  const ExecReport g3 =
      while_general3(pool, chain.head(), chain.next_fn(), &ChainFixture::is_end, noop);
  // General-1: the list is traversed once, cooperatively.
  EXPECT_EQ(g1.dispatcher_steps, n);
  // General-2: every processor walks the whole list.
  EXPECT_EQ(g2.dispatcher_steps, n * 4);
  // General-3: every processor replays the list up to its last claim, so
  // hops lie between one walk and one walk per processor.
  EXPECT_GE(g3.dispatcher_steps, n - 1);
  EXPECT_LE(g3.dispatcher_steps, n * 4);
}

TEST(GeneralOnNodePool, PayloadTraversalMatchesLogicalOrder) {
  ThreadPool pool(4);
  // Shuffled storage order: the traversal must still see logical order.
  auto list = NodePool<long>::make(257, 99, [](long i, long& v) { v = i * 3; });
  std::vector<std::atomic<long>> seen(257);
  const ExecReport r = while_general3(
      pool, list.head(), [&](std::int32_t c) { return list.next(c); },
      [](std::int32_t c) { return NodePool<long>::is_end(c); },
      [&](long i, std::int32_t c, unsigned) {
        seen[static_cast<std::size_t>(i)].store(list.payload(c));
        return IterAction::kContinue;
      });
  EXPECT_EQ(r.trip, 257);
  for (long i = 0; i < 257; ++i)
    EXPECT_EQ(seen[static_cast<std::size_t>(i)].load(), i * 3);
}

TEST(GeneralMethodsUpperBound, RespectsU) {
  ThreadPool pool(4);
  ChainFixture chain(1000);
  std::atomic<long> runs{0};
  const ExecReport r = while_general3(
      pool, chain.head(), chain.next_fn(), &ChainFixture::is_end,
      [&](long, long, unsigned) {
        runs.fetch_add(1);
        return IterAction::kContinue;
      },
      100);
  EXPECT_EQ(r.trip, 100);
  EXPECT_EQ(runs.load(), 100);
}

// General-3's self-sized claims (sched/claim.hpp).  Bounds on claim counts
// are loose: claim sizes follow the clock, and the suite also runs under
// TSan on an oversubscribed host.

/// Deterministic RV exits: iteration i exits (before or after its work)
/// when a hash of (seed, i) lands in a 1-in-`rate` bucket.
IterAction random_exit(std::uint64_t seed, long i, long rate) {
  std::uint64_t x = seed * 0x9e3779b97f4a7c15ULL + static_cast<std::uint64_t>(i);
  x ^= x >> 31;
  x *= 0xbf58476d1ce4e5b9ULL;
  x ^= x >> 29;
  if (x % static_cast<std::uint64_t>(rate) != 0) return IterAction::kContinue;
  return (x >> 40) & 1 ? IterAction::kExitAfter : IterAction::kExit;
}

TEST(GeneralSelfSized, RandomExitsKeepTripAndExecuteOnce) {
  const long n = 20000;
  ChainFixture chain(n);
  for (unsigned p : {1u, 2u, 4u, 8u}) {
    ThreadPool pool(p);
    for (std::uint64_t seed = 1; seed <= 6; ++seed) {
      long expect = n;
      for (long i = 0; i < n && expect == n; ++i) {
        const IterAction a = random_exit(seed, i, 4000);
        if (a == IterAction::kExit) expect = i;
        if (a == IterAction::kExitAfter) expect = i + 1;
      }
      std::vector<std::atomic<int>> hits(n);
      const ExecReport r = while_general3(
          pool, chain.head(), chain.next_fn(), &ChainFixture::is_end,
          [&](long i, long cursor, unsigned) {
            EXPECT_EQ(i, cursor);
            hits[static_cast<std::size_t>(i)]++;
            return random_exit(seed, i, 4000);
          });
      ASSERT_EQ(r.trip, expect) << "p=" << p << " seed=" << seed;
      long started = 0;
      for (long i = 0; i < n; ++i) {
        const int h = hits[static_cast<std::size_t>(i)].load();
        if (i < expect) {
          ASSERT_EQ(h, 1) << "p=" << p << " iteration " << i;
        }
        ASSERT_LE(h, 1);
        started += h;
      }
      EXPECT_EQ(started, r.started);
    }
  }
}

TEST(GeneralSelfSized, CheapListClaimsFarFewerThanIterations) {
  ThreadPool pool(4);
  const long n = 1L << 18;
  ChainFixture chain(n);
  std::atomic<long> runs{0};
  const ExecReport r = while_general3(
      pool, chain.head(), chain.next_fn(), &ChainFixture::is_end,
      [&](long, long, unsigned) {
        runs.fetch_add(1, std::memory_order_relaxed);
        return IterAction::kContinue;
      });
  EXPECT_EQ(r.trip, n);
  EXPECT_EQ(runs.load(), n);
  EXPECT_GT(r.claims, 0);
  EXPECT_LT(r.claims, n / 64);
}

TEST(GeneralSelfSized, EarlyExitLeavesStartedSmall) {
  ThreadPool pool(4);
  const long n = 100000;
  ChainFixture chain(n);
  const ExecReport r = while_general3(
      pool, chain.head(), chain.next_fn(), &ChainFixture::is_end,
      [](long i, long, unsigned) {
        return i == 10 ? IterAction::kExit : IterAction::kContinue;
      });
  EXPECT_EQ(r.trip, 10);
  EXPECT_LT(r.started, 2000);
}

TEST(GeneralSelfSized, SlowBodyStaysNearOneIterationPerClaim) {
  ThreadPool pool(4);
  const long n = 120;
  ChainFixture chain(n);
  const ExecReport r = while_general3(
      pool, chain.head(), chain.next_fn(), &ChainFixture::is_end,
      [](long, long, unsigned) {
        const auto until =
            std::chrono::steady_clock::now() + std::chrono::microseconds(50);
        while (std::chrono::steady_clock::now() < until) {
        }
        return IterAction::kContinue;
      });
  EXPECT_EQ(r.started, n);
  // 50 us per iteration is above the claim target, so claims never grow.
  EXPECT_GE(r.claims, n * 3 / 4);
}

}  // namespace
}  // namespace wlp
