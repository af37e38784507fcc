// common::ExactSum (common/stats.hpp): the exactly rounded sum must match an
// independent wide-integer oracle and must not depend on the order of add()
// and merge().

#include "common/stats.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "../support/exact_sum_oracle.hpp"
#include "common/rng.hpp"

namespace fedsched::common {
namespace {

double sum_of(const std::vector<double>& xs) {
  ExactSum s;
  for (const double x : xs) s.add(x);
  return s.value();
}

TEST(ExactSum, KnownCases) {
  EXPECT_EQ(ExactSum{}.value(), 0.0);
  EXPECT_EQ(sum_of(std::vector<double>(10, 0.1)), 1.0);  // naive: 0.9999999999999999
  EXPECT_EQ(sum_of({1e16, 1.0, 1e-16}), 10000000000000002.0);  // half-even fix-up
  EXPECT_EQ(sum_of({1e100, 1.0, -1e100, 1e-100}), 1.0);
  EXPECT_EQ(sum_of({0x1p53, 1.0}), 0x1p53);  // exact tie rounds to even
  EXPECT_EQ(sum_of({0x1p53, 1.0, 0x1p-60}), 0x1p53 + 2.0);
}

TEST(ExactSum, MatchesWideIntegerOracleInAnyOrder) {
  Rng rng(0xe5ac7);
  for (int trial = 0; trial < 200; ++trial) {
    const std::size_t n = 1 + rng.uniform_int(2000);
    std::vector<double> xs(n);
    for (double& x : xs) {
      // Energies of very different sizes, so the naive sum rounds often.
      x = rng.uniform(0.0, 1.0) * std::ldexp(1.0, static_cast<int>(rng.uniform_int(30)) - 20);
    }
    const double want = testing_support::exact_sum_oracle(xs);
    EXPECT_EQ(sum_of(xs), want) << "trial " << trial;
    rng.shuffle(xs);
    EXPECT_EQ(sum_of(xs), want) << "trial " << trial;
    // Split into pieces, summed separately and merged in reverse.
    const std::size_t pieces = 1 + rng.uniform_int(7);
    std::vector<ExactSum> parts(pieces);
    for (std::size_t i = 0; i < n; ++i) parts[i % pieces].add(xs[i]);
    ExactSum merged;
    for (std::size_t p = pieces; p-- > 0;) merged.merge(parts[p]);
    EXPECT_EQ(merged.value(), want) << "trial " << trial;
  }
}

}  // namespace
}  // namespace fedsched::common
