#pragma once
// Closed-form cost view for fleet-scale scheduling: every client's epoch cost
// is affine in its shard count, cost(j, k) = base_s[j] + per_shard_s[j] * k
// for k >= 1 (cost(j, 0) = 0). Instead of materializing the n x s matrix of
// CostMatrix — O(n*s) doubles, prohibitive at n = 1M — the view stores three
// structure-of-arrays columns and answers max_shards_within in O(1), which is
// what lets the bucketed Fed-LBAP threshold search run as one sampled bracket
// plus one verified pass, O(n) expected. from_rows builds the view in one
// chunked pass (columns first touched there, rows validated, totals taken).
//
// Rows are non-decreasing in k (Property 1) because per_shard_s is validated
// non-negative at construction.
//
// An optional *energy model* rides along on the same affine form:
// energy(j, k) = base_wh[j] + per_shard_wh[j] * k for k >= 1 (0 when idle),
// with a per-client battery budget in Wh. The energy-aware schedulers
// (sched/minenergy.hpp) require it; the time-only algorithms ignore it.

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

#include "common/column.hpp"
#include "common/thread_pool.hpp"

namespace fedsched::sched {

/// Largest k <= cap with base + per * k <= limit (0 if none). The division is
/// only a first guess, nudged until the exact predicate holds under floating
/// point, so budgets agree bitwise with a materialized row scan.
inline std::size_t affine_budget(double base, double per, std::size_t cap,
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

/// One client's row of the view.
struct CostRow {
  double base_s = 0.0, per_shard_s = 0.0;
  std::uint32_t capacity = 0;
  double base_wh = 0.0, per_shard_wh = 0.0, budget_wh = 0.0;  // read with energy only
};

class LinearCosts {
 public:
  /// Parallel vectors, one entry per client. capacity_shards[j] == 0 excludes
  /// client j from scheduling entirely.
  LinearCosts(std::vector<double> base_s, std::vector<double> per_shard_s,
              std::vector<std::uint32_t> capacity_shards, std::size_t shard_size);

  /// The view whose row j is row(j) (called concurrently for distinct j),
  /// with the energy model from the rows' energy fields if with_energy.
  /// Throws std::invalid_argument under the rules and messages of the vector
  /// constructor followed by set_energy.
  template <class RowFn>
  [[nodiscard]] static LinearCosts from_rows(std::size_t users, std::size_t shard_size,
                                             bool with_energy, const RowFn& row);

  [[nodiscard]] std::size_t users() const noexcept { return base_s_.size(); }
  [[nodiscard]] std::size_t shard_size() const noexcept { return shard_size_; }

  [[nodiscard]] double base_seconds(std::size_t user) const { return base_s_[user]; }
  [[nodiscard]] double per_shard_seconds(std::size_t user) const {
    return per_shard_s_[user];
  }
  [[nodiscard]] std::size_t capacity(std::size_t user) const {
    return capacity_[user];
  }

  /// Seconds for user j to train k shards; cost(j, 0) = 0.
  [[nodiscard]] double cost(std::size_t user, std::size_t shards) const noexcept {
    if (shards == 0) return 0.0;
    return base_s_[user] + per_shard_s_[user] * static_cast<double>(shards);
  }

  /// Largest k <= capacity with cost(j, k) <= threshold — the per-user budget
  /// A_j(c) of Algorithm 1, in O(1) via the affine inverse (affine_budget).
  [[nodiscard]] std::size_t max_shards_within(std::size_t user,
                                              double threshold) const noexcept {
    return affine_budget(base_s_[user], per_shard_s_[user], capacity_[user], threshold);
  }

  /// Sum of per-user budgets at the threshold, exact below target; once the
  /// sum reaches target the scan may stop early (the result is then >=
  /// target, a pure function of the inputs).
  [[nodiscard]] std::size_t total_budget(double threshold, std::size_t target) const;

  /// Smallest single-shard cost over clients with capacity >= 1.
  [[nodiscard]] double min_single_shard_cost() const noexcept { return lo_cost_; }
  /// Largest cost(j, min(capacity_j, shard_cap)) over clients with capacity.
  [[nodiscard]] double max_full_cost(std::size_t shard_cap) const;
  /// Total schedulable capacity in shards.
  [[nodiscard]] std::size_t total_capacity() const noexcept { return total_capacity_; }

  /// Attach the affine energy model: energy(j, k) = base_wh[j] +
  /// per_shard_wh[j] * k for k >= 1, plus the per-client battery budget in Wh
  /// (how much the client may burn before hitting its state-of-charge floor).
  /// Vectors must align with the cost vectors; coefficients must be finite
  /// and non-negative (budgets may be 0 for clients that must stay idle).
  /// Rebuilds the view through from_rows.
  void set_energy(std::vector<double> base_wh, std::vector<double> per_shard_wh,
                  std::vector<double> budget_wh);
  [[nodiscard]] bool has_energy() const noexcept { return !base_wh_.empty(); }

  /// Wh for user j to train k shards; energy(j, 0) = 0. Requires has_energy().
  [[nodiscard]] double energy(std::size_t user, std::size_t shards) const noexcept {
    if (shards == 0) return 0.0;
    return base_wh_[user] + per_shard_wh_[user] * static_cast<double>(shards);
  }
  [[nodiscard]] double base_energy_wh(std::size_t user) const {
    return base_wh_[user];
  }
  [[nodiscard]] double per_shard_energy_wh(std::size_t user) const {
    return per_shard_wh_[user];
  }
  [[nodiscard]] double battery_budget_wh(std::size_t user) const {
    return budget_wh_[user];
  }

  /// Largest k <= capacity with energy(j, k) <= the client's battery budget —
  /// the battery-feasible load. Requires has_energy().
  [[nodiscard]] std::size_t max_shards_within_battery(std::size_t user) const noexcept;

 private:
  /// What from_rows' pass accumulates over a range of rows.
  struct RowCheck {
    bool costs_valid = true, energy_valid = true;
    std::size_t capacity = 0;
    double lo_cost = std::numeric_limits<double>::infinity();
  };

  /// Sizes the columns (untouched); throws on zero users or shard size.
  LinearCosts(std::size_t users, std::size_t shard_size, bool with_energy);
  /// Throws on what the pass found invalid, else records its totals.
  void finish(const RowCheck& all);

  common::Column<double> base_s_;
  common::Column<double> per_shard_s_;
  common::Column<std::uint32_t> capacity_;
  std::size_t shard_size_ = 0;
  std::size_t total_capacity_ = 0;
  double lo_cost_ = std::numeric_limits<double>::infinity();
  common::Column<double> base_wh_;
  common::Column<double> per_shard_wh_;
  common::Column<double> budget_wh_;
};

template <class RowFn>
LinearCosts LinearCosts::from_rows(std::size_t users, std::size_t shard_size,
                                   bool with_energy, const RowFn& row) {
  LinearCosts v(users, shard_size, with_energy);
  const auto put = [&](RowCheck& check, std::size_t j) {
    const CostRow r = row(j);
    v.base_s_[j] = r.base_s;
    v.per_shard_s_[j] = r.per_shard_s;
    v.capacity_[j] = r.capacity;
    check.costs_valid &= r.base_s >= 0.0 && r.per_shard_s >= 0.0;
    check.capacity += r.capacity;
    if (r.capacity > 0) check.lo_cost = std::min(check.lo_cost, v.cost(j, 1));
    if (!with_energy) return;
    v.base_wh_[j] = r.base_wh;
    v.per_shard_wh_[j] = r.per_shard_wh;
    v.budget_wh_[j] = r.budget_wh;
    check.energy_valid &= r.base_wh >= 0.0 && r.per_shard_wh >= 0.0 && r.budget_wh >= 0.0 &&
                          std::isfinite(r.base_wh) && std::isfinite(r.per_shard_wh);
  };
  v.finish(common::reduce_chunks(users, RowCheck{}, put, [](RowCheck a, const RowCheck& b) {
    return RowCheck{a.costs_valid && b.costs_valid, a.energy_valid && b.energy_valid,
                    a.capacity + b.capacity, std::min(a.lo_cost, b.lo_cost)};
  }));
  return v;
}

}  // namespace fedsched::sched
