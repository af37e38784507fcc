#pragma once
// Test oracle for exactly rounded sums, independent of common::ExactSum:
// every finite non-negative double is an integer multiple of 2^e_min, the
// smallest input's unit in the last place, so the exact sum is one wide
// integer, and the integer-to-double conversion rounds it once, to
// nearest-even.

#include <algorithm>
#include <climits>
#include <cmath>
#include <cstdint>
#include <stdexcept>
#include <vector>

namespace fedsched::testing_support {

inline double exact_sum_oracle(const std::vector<double>& xs) {
  int emin = INT_MAX;
  for (const double x : xs) {
    if (!(x >= 0.0) || !std::isfinite(x)) throw std::invalid_argument("oracle input");
    if (x == 0.0) continue;
    int e = 0;
    std::frexp(x, &e);
    emin = std::min(emin, e - 53);
  }
  if (emin == INT_MAX) return 0.0;
  unsigned __int128 acc = 0;
  for (const double x : xs) {
    if (x == 0.0) continue;
    int e = 0;
    const double m = std::frexp(x, &e);  // x = m * 2^e, m in [0.5, 1)
    const auto mantissa = static_cast<std::uint64_t>(std::ldexp(m, 53));
    const int shift = e - 53 - emin;
    // 53 mantissa bits, the shift, and 2^24 summands must fit in 127 bits.
    if (shift > 127 - 53 - 24 || xs.size() > (std::size_t{1} << 24)) {
      throw std::range_error("oracle: inputs span too many binades");
    }
    acc += static_cast<unsigned __int128>(mantissa) << shift;
  }
  return std::ldexp(static_cast<double>(acc), emin);
}

}  // namespace fedsched::testing_support
