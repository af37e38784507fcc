#pragma once
// Weighted selection over runs of units. A greedy that takes units one at a
// time from per-user chains of marginal costs (Algorithm 1's surplus trim,
// Fed-MinEnergy) takes them in one fixed order once every unit carries the
// right key, so its first `need` units are a selection, not a priority
// queue: nth_element quickselect finds them in expected O(runs) time.

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

namespace fedsched::sched {

/// `count` consecutive units of one user's chain that share a selection key.
struct UnitRun {
  double key;
  std::uint32_t user;
  std::uint32_t count;
};

/// Reorders and shrinks `runs` to exactly the `need` smallest units under
/// the strict total order (key asc, user asc): whole runs, plus the front of
/// the boundary run. A (key, user) pair must name at most one run. Keeps
/// every unit when the runs hold fewer than `need`; returns the units kept.
std::size_t select_units(std::vector<UnitRun>& runs, std::size_t need);

/// Algorithm 1's surplus trim: while more than `total_shards` are assigned,
/// drop the shard with the largest marginal cost C_jk − C_j(k−1), lowest
/// user id on ties. Returns the shards dropped. `costs` is any cost view
/// with cost(user, k) and cost(user, 0) == 0 (CostMatrix, LinearCosts).
///
/// User j's shards leave top-down, k = s_j, ..., 1, each at the running
/// minimum of the marginals down its chain (an affine row's marginals wobble
/// by an ulp under floating point, so that, not the marginal, is the key):
/// the greedy drops shards in (key desc, user asc, chain position) order.
template <class Costs>
std::size_t trim_surplus(const Costs& costs, std::vector<std::size_t>& shards,
                         std::size_t total_shards) {
  std::size_t assigned = 0;
  for (const std::size_t s : shards) assigned += s;
  if (assigned <= total_shards) return 0;
  std::vector<UnitRun> runs;
  for (std::size_t j = 0; j < shards.size(); ++j) {
    double upper = costs.cost(j, shards[j]);
    double key = std::numeric_limits<double>::infinity();
    for (std::size_t k = shards[j]; k > 0; --k) {
      const double lower = k > 1 ? costs.cost(j, k - 1) : 0.0;
      key = std::min(key, upper - lower);
      upper = lower;
      if (k < shards[j] && runs.back().key == -key) {
        ++runs.back().count;
      } else {
        runs.push_back({-key, static_cast<std::uint32_t>(j), 1});  // key desc
      }
    }
  }
  const std::size_t dropped = select_units(runs, assigned - total_shards);
  for (const UnitRun& run : runs) shards[run.user] -= run.count;
  return dropped;
}

}  // namespace fedsched::sched
