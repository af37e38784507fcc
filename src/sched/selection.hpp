#pragma once
// Weighted selection over runs of units. A greedy that takes units one at a
// time from per-user chains of marginal costs (Algorithm 1's surplus trim,
// Fed-MinEnergy) takes them in one fixed order once every unit carries the
// right key, so its first `need` units are a selection, not a priority
// queue: nth_element quickselect finds them in expected O(runs) time.
// At fleet scale runs are built and applied per fixed client chunk, and a
// key histogram narrows the quickselect to the bucket of the need-th unit.

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <limits>
#include <vector>

#include "common/thread_pool.hpp"

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

/// The same selection over chunks of runs, each shrunk in place to its share
/// of the units; (key, user) must name at most one run across all chunks, and
/// keys must be finite.
std::size_t select_units(std::vector<std::vector<UnitRun>>& chunks, std::size_t need);

/// Selection over users [0, n): build(lo, hi, runs) appends the runs of each
/// chunk's users, and apply(run) sees every kept run, chunks in parallel —
/// they own disjoint users, so apply may write per-user state.
template <class Build, class Apply>
std::size_t select_over_users(std::size_t n, std::size_t need, Build&& build,
                              Apply&& apply) {
  std::vector<std::vector<UnitRun>> chunks =
      common::map_chunks(n, [&](std::size_t lo, std::size_t hi) {
        std::vector<UnitRun> runs;
        runs.reserve(hi - lo);
        build(lo, hi, runs);
        return runs;
      });
  const std::size_t kept = select_units(chunks, need);
  common::global_pool().parallel_for_chunks(
      0, chunks.size(), chunks.size(), [&](std::size_t c, std::size_t, std::size_t) {
        for (const UnitRun& run : chunks[c]) apply(run);
      });
  return kept;
}

/// Algorithm 1's surplus trim: while more than `total_shards` are assigned,
/// drop the shard with the largest marginal cost C_jk − C_j(k−1), lowest
/// user id on ties. Returns the shards dropped. `costs` is any cost view
/// with a thread-safe cost(user, k) and cost(user, 0) == 0 (CostMatrix,
/// LinearCosts).
///
/// User j's shards leave top-down, k = s_j, ..., 1, each at the running
/// minimum of the marginals down its chain (an affine row's marginals wobble
/// by an ulp under floating point, so that, not the marginal, is the key):
/// the greedy drops shards in (key desc, user asc, chain position) order.
template <class Costs>
std::size_t trim_surplus(const Costs& costs, std::vector<std::size_t>& shards,
                         std::size_t total_shards) {
  const std::size_t assigned = common::reduce_chunks(
      shards.size(), std::size_t{0},
      [&](std::size_t& sum, std::size_t j) { sum += shards[j]; }, std::plus<>());
  if (assigned <= total_shards) return 0;
  const auto build = [&](std::size_t lo, std::size_t hi, std::vector<UnitRun>& runs) {
    for (std::size_t j = lo; j < hi; ++j) {
      double upper = costs.cost(j, shards[j]);
      double key = std::numeric_limits<double>::infinity();
      UnitRun run{0.0, static_cast<std::uint32_t>(j), 0};  // key desc
      for (std::size_t k = shards[j]; k > 0; --k) {
        const double lower = k > 1 ? costs.cost(j, k - 1) : 0.0;
        key = std::min(key, upper - lower);
        upper = lower;
        if (run.count > 0 && run.key == -key) {
          ++run.count;
        } else {
          if (run.count > 0) runs.push_back(run);
          run = {-key, static_cast<std::uint32_t>(j), 1};
        }
      }
      if (run.count > 0) runs.push_back(run);
    }
  };
  return select_over_users(shards.size(), assigned - total_shards, build,
                           [&](const UnitRun& run) { shards[run.user] -= run.count; });
}

}  // namespace fedsched::sched
