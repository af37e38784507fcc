#include "sched/linear_costs.hpp"

#include <algorithm>
#include <functional>
#include <stdexcept>

namespace fedsched::sched {

LinearCosts::LinearCosts(std::vector<double> base_s, std::vector<double> per_shard_s,
                         std::vector<std::uint32_t> capacity_shards,
                         std::size_t shard_size) {
  if (base_s.empty()) throw std::invalid_argument("LinearCosts: no users");
  if (per_shard_s.size() != base_s.size() || capacity_shards.size() != base_s.size()) {
    throw std::invalid_argument("LinearCosts: misaligned vectors");
  }
  *this = from_rows(base_s.size(), shard_size, false, [&](std::size_t j) {
    return CostRow{base_s[j], per_shard_s[j], capacity_shards[j]};
  });
}

LinearCosts::LinearCosts(std::size_t users, std::size_t shard_size, bool with_energy)
    : shard_size_(shard_size) {
  if (users == 0) throw std::invalid_argument("LinearCosts: no users");
  if (shard_size_ == 0) throw std::invalid_argument("LinearCosts: zero shard size");
  base_s_.resize(users);
  per_shard_s_.resize(users);
  capacity_.resize(users);
  if (!with_energy) return;
  base_wh_.resize(users);
  per_shard_wh_.resize(users);
  budget_wh_.resize(users);
}

void LinearCosts::finish(const RowCheck& all) {
  if (!all.costs_valid) {
    throw std::invalid_argument("LinearCosts: negative or NaN cost coefficients");
  }
  if (all.capacity == 0) throw std::invalid_argument("LinearCosts: zero capacity");
  if (!all.energy_valid) {
    throw std::invalid_argument(
        "LinearCosts::set_energy: negative or NaN energy coefficients");
  }
  total_capacity_ = all.capacity;
  lo_cost_ = all.lo_cost;
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
  if (base_wh.size() != users() || per_shard_wh.size() != users() ||
      budget_wh.size() != users()) {
    throw std::invalid_argument("LinearCosts::set_energy: misaligned vectors");
  }
  *this = from_rows(users(), shard_size_, true, [&](std::size_t j) {
    return CostRow{base_s_[j],  per_shard_s_[j],   capacity_[j],
                   base_wh[j], per_shard_wh[j], budget_wh[j]};
  });
}

std::size_t LinearCosts::max_shards_within_battery(std::size_t user) const noexcept {
  return affine_budget(base_wh_[user], per_shard_wh_[user], capacity_[user],
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
