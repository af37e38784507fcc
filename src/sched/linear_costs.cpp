#include "sched/linear_costs.hpp"

#include <algorithm>
#include <cmath>
#include <functional>
#include <limits>
#include <stdexcept>

#include "common/thread_pool.hpp"

namespace fedsched::sched {

namespace {

/// Largest k <= cap with base + per * k <= limit (0 if none). The division is
/// only a first guess, nudged until the exact predicate holds under floating
/// point, so budgets agree bitwise with a materialized row scan.
std::size_t affine_within(double base, double per, std::size_t cap,
                          double limit) noexcept {
  const auto at = [&](std::size_t k) { return base + per * static_cast<double>(k); };
  if (cap == 0 || at(1) > limit) return 0;
  if (per <= 0.0) return cap;  // flat row: one shard within => all within
  const double guess =
      std::clamp(std::floor((limit - base) / per), 1.0, static_cast<double>(cap));
  std::size_t k = static_cast<std::size_t>(guess);
  while (k > 1 && at(k) > limit) --k;
  while (k < cap && at(k + 1) <= limit) ++k;
  return k;
}

}  // namespace

LinearCosts::LinearCosts(std::vector<double> base_s, std::vector<double> per_shard_s,
                         std::vector<std::uint32_t> capacity_shards,
                         std::size_t shard_size)
    : base_s_(std::move(base_s)),
      per_shard_s_(std::move(per_shard_s)),
      capacity_(std::move(capacity_shards)),
      shard_size_(shard_size),
      lo_cost_(std::numeric_limits<double>::infinity()) {
  if (base_s_.empty()) throw std::invalid_argument("LinearCosts: no users");
  if (per_shard_s_.size() != base_s_.size() || capacity_.size() != base_s_.size()) {
    throw std::invalid_argument("LinearCosts: misaligned vectors");
  }
  if (shard_size_ == 0) throw std::invalid_argument("LinearCosts: zero shard size");
  struct Part {
    bool valid = true;
    std::size_t capacity = 0;
    double lo = std::numeric_limits<double>::infinity();
  };
  const Part all = common::reduce_chunks(
      users(), Part{},
      [&](Part& p, std::size_t j) {
        p.valid &= base_s_[j] >= 0.0 && per_shard_s_[j] >= 0.0;
        p.capacity += capacity_[j];
        if (capacity_[j] > 0) p.lo = std::min(p.lo, cost(j, 1));
      },
      [](Part a, const Part& b) {
        return Part{a.valid && b.valid, a.capacity + b.capacity, std::min(a.lo, b.lo)};
      });
  if (!all.valid) throw std::invalid_argument("LinearCosts: negative or NaN cost coefficients");
  total_capacity_ = all.capacity;
  lo_cost_ = all.lo;
  if (total_capacity_ == 0) throw std::invalid_argument("LinearCosts: zero capacity");
}

std::size_t LinearCosts::max_shards_within(std::size_t user,
                                           double threshold) const noexcept {
  return affine_within(base_s_[user], per_shard_s_[user], capacity_[user], threshold);
}

std::size_t LinearCosts::total_budget(double threshold, std::size_t target) const {
  // Each chunk stops adding once it alone reaches the target; the partials
  // then sum to at least the target iff the full sum does.
  return common::reduce_chunks(
      users(), std::size_t{0},
      [&](std::size_t& sum, std::size_t j) {
        if (sum < target) sum += max_shards_within(j, threshold);
      },
      std::plus<>());
}

void LinearCosts::set_energy(std::vector<double> base_wh,
                             std::vector<double> per_shard_wh,
                             std::vector<double> budget_wh) {
  if (base_wh.size() != base_s_.size() || per_shard_wh.size() != base_s_.size() ||
      budget_wh.size() != base_s_.size()) {
    throw std::invalid_argument("LinearCosts::set_energy: misaligned vectors");
  }
  const bool valid = common::reduce_chunks(
      users(), 1,
      [&](int& ok, std::size_t j) {
        ok &= base_wh[j] >= 0.0 && per_shard_wh[j] >= 0.0 && budget_wh[j] >= 0.0 &&
              std::isfinite(base_wh[j]) && std::isfinite(per_shard_wh[j]);
      },
      std::bit_and<>());
  if (!valid) {
    throw std::invalid_argument(
        "LinearCosts::set_energy: negative or NaN energy coefficients");
  }
  base_wh_ = std::move(base_wh);
  per_shard_wh_ = std::move(per_shard_wh);
  budget_wh_ = std::move(budget_wh);
}

std::size_t LinearCosts::max_shards_within_battery(std::size_t user) const noexcept {
  return affine_within(base_wh_[user], per_shard_wh_[user], capacity_[user],
                       budget_wh_[user]);
}

double LinearCosts::max_full_cost(std::size_t shard_cap) const {
  return common::reduce_chunks(
      users(), 0.0,
      [&](double& top, std::size_t j) {
        const std::size_t k = std::min<std::size_t>(capacity_[j], shard_cap);
        if (k > 0) top = std::max(top, cost(j, k));
      },
      [](double a, double b) { return std::max(a, b); });
}

}  // namespace fedsched::sched
