#include <gtest/gtest.h>

#include <cstdint>

#include "wlp/workloads/hb_generator.hpp"
#include "wlp/workloads/ma28_pivot.hpp"

namespace wlp::workloads {
namespace {

// Printed by gtest as a raw byte dump into the test names, so every byte is
// a value: a pointer member or padding would make the names change between
// builds and runs.
struct PivotCase {
  std::int8_t matrix;
  bool columns;  ///< SearchAxis::kColumns, else kRows
  char name[14];
};
static_assert(sizeof(PivotCase) == 16, "PivotCase must have no padding");

SparseMatrix pick_matrix(int which) {
  switch (which) {
    case 0: return gen_grid7(8, 8, 4);                    // regular
    case 1: return gen_power_flow(400, 2600, 0.03, 17);   // irregular
    case 2: return gen_power_flow(700, 4500, 0.02, 23);
    default: return gen_grid7(12, 6, 5, 0.25, 31);
  }
}

class Ma28Search : public ::testing::TestWithParam<PivotCase> {};

TEST_P(Ma28Search, ParallelMethodsAreSequentiallyConsistent) {
  ThreadPool pool(4);
  const SparseMatrix m = pick_matrix(GetParam().matrix);
  Ma28PivotSearch search(m, {0.1, GetParam().columns ? SearchAxis::kColumns
                                                     : SearchAxis::kRows});

  long seq_trip = 0;
  const PivotCandidate seq = search.search_sequential(&seq_trip);
  ASSERT_TRUE(seq.valid());

  ExecReport r1, r3;
  const PivotCandidate p1 = search.search_induction1(pool, r1);
  const PivotCandidate p3 = search.search_general3(pool, r3);

  // Same pivot, same trip count: sequential consistency via the
  // time-stamp-ordered reduction.
  EXPECT_EQ(p1.row, seq.row);
  EXPECT_EQ(p1.col, seq.col);
  EXPECT_EQ(p1.cost, seq.cost);
  EXPECT_EQ(r1.trip, seq_trip);

  EXPECT_EQ(p3.row, seq.row);
  EXPECT_EQ(p3.col, seq.col);
  EXPECT_EQ(r3.trip, seq_trip);
}

INSTANTIATE_TEST_SUITE_P(
    Cases, Ma28Search,
    ::testing::Values(PivotCase{0, false, "grid_rows"},
                      PivotCase{0, true, "grid_cols"},
                      PivotCase{1, false, "power_rows"},
                      PivotCase{1, true, "power_cols"},
                      PivotCase{2, false, "power2_rows"},
                      PivotCase{3, false, "aniso_rows"}),
    [](const auto& info) { return info.param.name; });

TEST(Ma28Search, SequentialExitBoundIsEffective) {
  // The early exit must cut the search well short of visiting every row.
  const SparseMatrix m = gen_power_flow(600, 3800, 0.03, 3);
  Ma28PivotSearch search(m, {});
  long trip = 0;
  const PivotCandidate p = search.search_sequential(&trip);
  ASSERT_TRUE(p.valid());
  EXPECT_LT(trip, search.candidates());
  EXPECT_GT(trip, 0);
}

TEST(Ma28Search, ChosenPivotIsOptimalAmongVisited) {
  const SparseMatrix m = gen_grid7(7, 7, 3);
  Ma28PivotSearch search(m, {});
  long trip = 0;
  const PivotCandidate p = search.search_sequential(&trip);
  ASSERT_TRUE(p.valid());
  // Re-derive the Markowitz cost independently.
  const auto col_counts = m.col_counts();
  const long expected_cost =
      (m.row_nnz(p.row) - 1) *
      (col_counts[static_cast<std::size_t>(p.col)] - 1);
  EXPECT_EQ(p.cost, expected_cost);
  EXPECT_NE(m.at(p.row, p.col), 0.0);
}

TEST(Ma28Search, ColumnAxisReturnsTransposedRoles) {
  const SparseMatrix m = gen_power_flow(200, 1300, 0.03, 41);
  Ma28PivotSearch rows(m, {0.1, SearchAxis::kRows});
  Ma28PivotSearch cols(m, {0.1, SearchAxis::kColumns});
  const PivotCandidate pr = rows.search_sequential();
  const PivotCandidate pc = cols.search_sequential();
  ASSERT_TRUE(pr.valid());
  ASSERT_TRUE(pc.valid());
  // Both must address genuine entries of A.
  EXPECT_NE(m.at(pr.row, pr.col), 0.0);
  EXPECT_NE(m.at(pc.row, pc.col), 0.0);
}

TEST(Ma28Search, ProfileReflectsSequentialTripAndWork) {
  const SparseMatrix m = gen_power_flow(300, 2000, 0.03, 5);
  Ma28PivotSearch search(m, {});
  long trip = 0;
  search.search_sequential(&trip);
  const auto lp = search.profile();
  EXPECT_EQ(lp.trip, trip);
  EXPECT_EQ(lp.u, search.candidates());
  EXPECT_EQ(static_cast<long>(lp.work.size()), lp.u);
  EXPECT_TRUE(lp.overshoot_does_work);
  // Candidates are visited in increasing count order: work non-decreasing.
  for (std::size_t i = 1; i < lp.work.size(); ++i)
    EXPECT_GE(lp.work[i], lp.work[i - 1]);
}

}  // namespace
}  // namespace wlp::workloads
