#include "ml/hungarian.h"

#include <gtest/gtest.h>

#include <limits>
#include <numeric>

#include "util/error.h"
#include "util/rng.h"

namespace icn::ml {
namespace {

double assignment_cost(const Matrix& cost,
                       const std::vector<std::size_t>& assign) {
  double total = 0.0;
  for (std::size_t r = 0; r < assign.size(); ++r) {
    total += cost(r, assign[r]);
  }
  return total;
}

double brute_force_best(const Matrix& cost) {
  std::vector<std::size_t> perm(cost.rows());
  std::iota(perm.begin(), perm.end(), std::size_t{0});
  double best = std::numeric_limits<double>::infinity();
  do {
    best = std::min(best, assignment_cost(cost, perm));
  } while (std::next_permutation(perm.begin(), perm.end()));
  return best;
}

TEST(HungarianTest, TrivialDiagonal) {
  Matrix cost(3, 3, 1.0);
  cost(0, 0) = 0.0;
  cost(1, 1) = 0.0;
  cost(2, 2) = 0.0;
  const auto assign = hungarian_min_cost(cost);
  EXPECT_EQ(assign, (std::vector<std::size_t>{0, 1, 2}));
}

TEST(HungarianTest, ClassicExample) {
  Matrix cost(3, 3, {4.0, 1.0, 3.0, 2.0, 0.0, 5.0, 3.0, 2.0, 2.0});
  const auto assign = hungarian_min_cost(cost);
  EXPECT_DOUBLE_EQ(assignment_cost(cost, assign), 5.0);
}

TEST(HungarianTest, MatchesBruteForceOnRandomMatrices) {
  icn::util::Rng rng(77);
  for (int trial = 0; trial < 30; ++trial) {
    const std::size_t n = 2 + rng.uniform_index(5);  // up to 6x6
    Matrix cost(n, n);
    for (auto& v : cost.data()) v = rng.uniform(0.0, 10.0);
    const auto assign = hungarian_min_cost(cost);
    // Permutation check.
    std::vector<bool> used(n, false);
    for (const std::size_t c : assign) {
      EXPECT_FALSE(used[c]);
      used[c] = true;
    }
    EXPECT_NEAR(assignment_cost(cost, assign), brute_force_best(cost), 1e-9);
  }
}

TEST(HungarianTest, RecoversPlantedPermutationAtN300) {
  // Cost 0 on a planted permutation and [1, 2) everywhere else: any other
  // permutation differs from the plant on at least two rows, so it costs
  // >= 2 and the plant is the unique optimum. n = 300 is far past the k = 9
  // label alignment the analysis runs.
  constexpr std::size_t kN = 300;
  icn::util::Rng rng(2024);
  std::vector<std::size_t> planted(kN);
  std::iota(planted.begin(), planted.end(), std::size_t{0});
  for (std::size_t i = kN - 1; i > 0; --i) {
    std::swap(planted[i], planted[rng.uniform_index(i + 1)]);
  }
  Matrix cost(kN, kN);
  for (std::size_t r = 0; r < kN; ++r) {
    for (std::size_t c = 0; c < kN; ++c) {
      cost(r, c) = c == planted[r] ? 0.0 : rng.uniform(1.0, 2.0);
    }
  }
  EXPECT_EQ(hungarian_min_cost(cost), planted);
}

TEST(HungarianTest, RejectsNonSquareAndNonFinite) {
  Matrix rect(2, 3);
  EXPECT_THROW(hungarian_min_cost(rect), icn::util::PreconditionError);
  Matrix inf(2, 2, 1.0);
  inf(0, 0) = std::numeric_limits<double>::infinity();
  EXPECT_THROW(hungarian_min_cost(inf), icn::util::PreconditionError);
}

TEST(AlignLabelsTest, RecoversPermutation) {
  // from = permuted version of to: 0->2, 1->0, 2->1.
  const std::vector<int> to = {0, 0, 1, 1, 2, 2};
  const std::vector<int> from = {2, 2, 0, 0, 1, 1};
  const auto map = align_labels(from, to, 3);
  EXPECT_EQ(map[2], 0);
  EXPECT_EQ(map[0], 1);
  EXPECT_EQ(map[1], 2);
  const auto mapped = apply_label_map(from, map);
  EXPECT_EQ(mapped, to);
}

TEST(AlignLabelsTest, ToleratesNoise) {
  // Mostly permuted labels with a few disagreements.
  std::vector<int> to, from;
  for (int i = 0; i < 30; ++i) {
    const int c = i % 3;
    to.push_back(c);
    from.push_back((c + 1) % 3);
  }
  from[0] = 0;  // noise
  const auto map = align_labels(from, to, 3);
  EXPECT_EQ(map[1], 0);
  EXPECT_EQ(map[2], 1);
  EXPECT_EQ(map[0], 2);
}

TEST(AlignLabelsTest, ValidatesInput) {
  const std::vector<int> a = {0, 1};
  const std::vector<int> b = {0};
  EXPECT_THROW(align_labels(a, b, 2), icn::util::PreconditionError);
  const std::vector<int> c = {0, 3};
  const std::vector<int> d = {0, 1};
  EXPECT_THROW(align_labels(c, d, 2), icn::util::PreconditionError);
}

TEST(ApplyLabelMapTest, OutOfRangeThrows) {
  const std::vector<int> labels = {0, 2};
  const std::vector<int> map = {1, 0};
  EXPECT_THROW(apply_label_map(labels, map), icn::util::PreconditionError);
}

}  // namespace
}  // namespace icn::ml
