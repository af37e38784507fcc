#pragma once
// Descriptive statistics over samples of doubles.

#include <cstddef>
#include <span>
#include <string>
#include <vector>

namespace fedsched::common {

/// Streaming accumulator (Welford) for mean / variance plus extrema.
class RunningStats {
 public:
  void add(double x) noexcept;
  void merge(const RunningStats& other) noexcept;

  [[nodiscard]] std::size_t count() const noexcept { return n_; }
  [[nodiscard]] double mean() const noexcept { return n_ ? mean_ : 0.0; }
  /// Sample variance (n-1 denominator); 0 when fewer than two samples.
  [[nodiscard]] double variance() const noexcept;
  [[nodiscard]] double stddev() const noexcept;
  [[nodiscard]] double min() const noexcept { return min_; }
  [[nodiscard]] double max() const noexcept { return max_; }
  [[nodiscard]] double sum() const noexcept { return mean_ * static_cast<double>(n_); }

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// Exactly rounded sum (Shewchuk's non-overlapping expansions, as in
/// Python's math.fsum): the running sum is held exactly as partials of
/// increasing magnitude and rounded once, to nearest-even, by value(). The
/// result does not depend on the order of add() and merge() calls, so
/// chunked passes sum in parallel and give one set of bits at any pool size.
/// Inputs must be finite.
class ExactSum {
 public:
  void add(double x);
  void merge(const ExactSum& other);
  [[nodiscard]] double value() const noexcept;

 private:
  std::vector<double> partials_;
};

[[nodiscard]] double mean(std::span<const double> xs) noexcept;
[[nodiscard]] double stddev(std::span<const double> xs) noexcept;
[[nodiscard]] double median(std::vector<double> xs);
/// Linear-interpolated percentile; p in [0, 100].
[[nodiscard]] double percentile(std::vector<double> xs, double p);
[[nodiscard]] double min_of(std::span<const double> xs) noexcept;
[[nodiscard]] double max_of(std::span<const double> xs) noexcept;

struct Summary {
  std::size_t count = 0;
  double mean = 0.0;
  double stddev = 0.0;
  double min = 0.0;
  double p50 = 0.0;
  double p95 = 0.0;
  double max = 0.0;

  [[nodiscard]] std::string to_string() const;
};

[[nodiscard]] Summary summarize(std::span<const double> xs);

}  // namespace fedsched::common
