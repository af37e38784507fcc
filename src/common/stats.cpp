#include "common/stats.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <stdexcept>
#include <utility>

namespace fedsched::common {

void RunningStats::add(double x) noexcept {
  if (n_ == 0) {
    min_ = max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++n_;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(n_);
  m2_ += delta * (x - mean_);
}

void RunningStats::merge(const RunningStats& other) noexcept {
  if (other.n_ == 0) return;
  if (n_ == 0) {
    *this = other;
    return;
  }
  const auto na = static_cast<double>(n_);
  const auto nb = static_cast<double>(other.n_);
  const double delta = other.mean_ - mean_;
  const double total = na + nb;
  mean_ += delta * nb / total;
  m2_ += other.m2_ + delta * delta * na * nb / total;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
  n_ += other.n_;
}

double RunningStats::variance() const noexcept {
  return n_ > 1 ? m2_ / static_cast<double>(n_ - 1) : 0.0;
}

double RunningStats::stddev() const noexcept { return std::sqrt(variance()); }

void ExactSum::add(double x) {
  std::size_t kept = 0;
  for (double y : partials_) {
    if (std::fabs(x) < std::fabs(y)) std::swap(x, y);
    const double hi = x + y;
    const double lo = y - (hi - x);
    if (lo != 0.0) partials_[kept++] = lo;
    x = hi;
  }
  partials_.resize(kept);
  if (x != 0.0) partials_.push_back(x);
}

void ExactSum::merge(const ExactSum& other) {
  for (const double p : other.partials_) add(p);
}

double ExactSum::value() const noexcept {
  std::size_t n = partials_.size();
  double hi = n > 0 ? partials_[--n] : 0.0;
  double lo = 0.0;
  while (n > 0 && lo == 0.0) {
    const double x = hi;
    hi = x + partials_[--n];
    lo = partials_[n] - (hi - x);
  }
  // Half-even fix-up: when lo is exactly half an ulp of hi and the partials
  // left below it lie on lo's side, the exact sum rounds away from hi.
  if (n > 0 && lo != 0.0 && (lo < 0.0) == (partials_[n - 1] < 0.0)) {
    const double x = hi + lo * 2.0;
    if (lo * 2.0 == x - hi) hi = x;
  }
  return hi;
}

double mean(std::span<const double> xs) noexcept {
  if (xs.empty()) return 0.0;
  double total = 0.0;
  for (double x : xs) total += x;
  return total / static_cast<double>(xs.size());
}

double stddev(std::span<const double> xs) noexcept {
  if (xs.size() < 2) return 0.0;
  const double m = mean(xs);
  double sq = 0.0;
  for (double x : xs) sq += (x - m) * (x - m);
  return std::sqrt(sq / static_cast<double>(xs.size() - 1));
}

double percentile(std::vector<double> xs, double p) {
  if (xs.empty()) throw std::invalid_argument("percentile: empty sample");
  if (p < 0.0 || p > 100.0) throw std::invalid_argument("percentile: p out of range");
  std::sort(xs.begin(), xs.end());
  const double rank = p / 100.0 * static_cast<double>(xs.size() - 1);
  const auto lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, xs.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return xs[lo] + frac * (xs[hi] - xs[lo]);
}

double median(std::vector<double> xs) { return percentile(std::move(xs), 50.0); }

double min_of(std::span<const double> xs) noexcept {
  double best = xs.empty() ? 0.0 : xs[0];
  for (double x : xs) best = std::min(best, x);
  return best;
}

double max_of(std::span<const double> xs) noexcept {
  double best = xs.empty() ? 0.0 : xs[0];
  for (double x : xs) best = std::max(best, x);
  return best;
}

Summary summarize(std::span<const double> xs) {
  Summary s;
  s.count = xs.size();
  if (xs.empty()) return s;
  s.mean = mean(xs);
  s.stddev = stddev(xs);
  s.min = min_of(xs);
  s.max = max_of(xs);
  std::vector<double> copy(xs.begin(), xs.end());
  s.p50 = percentile(copy, 50.0);
  s.p95 = percentile(std::move(copy), 95.0);
  return s;
}

std::string Summary::to_string() const {
  std::ostringstream os;
  os << "n=" << count << " mean=" << mean << " sd=" << stddev << " min=" << min
     << " p50=" << p50 << " p95=" << p95 << " max=" << max;
  return os.str();
}

}  // namespace fedsched::common
