#pragma once
// Weighted selection over runs of units. A greedy that takes units one at a
// time from per-user chains of marginal costs (Algorithm 1's surplus trim,
// Fed-MinEnergy) takes them in one fixed order once every unit carries the
// right key, so its first `need` units are a selection, not a priority
// queue: nth_element quickselect finds them in expected O(runs) time.
// At fleet scale runs are built and applied per fixed client chunk, and a
// key histogram narrows the quickselect to the bucket of the need-th unit.
// fed_lbap_bucketed goes further for its trim: it builds runs only for the
// users whose keys can fall next to the cutoff (sched/bucketed.cpp).

#include <algorithm>
#include <cstddef>
#include <cstdint>
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

/// Appends the trim runs of user j's s shards, top-down: each shard's key is
/// the negated running minimum of the marginals C_jk − C_j(k−1) down the
/// chain (an affine row's marginals wobble by an ulp under floating point, so
/// that, not the marginal, reproduces the one-shard-at-a-time greedy).
template <class Costs>
void append_trim_runs(const Costs& costs, std::size_t j, std::size_t s,
                      std::vector<UnitRun>& runs) {
  double upper = costs.cost(j, s);
  double key = std::numeric_limits<double>::infinity();
  UnitRun run{0.0, static_cast<std::uint32_t>(j), 0};
  for (std::size_t k = s; k > 0; --k) {
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

/// [key - slack, key + slack] holds every key append_trim_runs gives an affine
/// row's s >= 1 shards, found without the walk. With s == 1 it is -cost(j, 1).
/// With s >= 2 each is within 2^-50 * C_s of -per: the computed C_k = fl(base
/// + fl(per * k)) is off base + per * k by at most (2u + u^2) C_k, u = 2^-53,
/// and C_k / 2 <= C_(k-1) <= C_k (rounding is monotone), so C_k - C_(k-1) is
/// exact (Sterbenz) and within ~2^-51 * C_s of per; C_1 = fl(base + per) >= per
/// lowers no running minimum below that. The 2x margin absorbs key -+ slack.
struct KeySpan { double key, slack; };
inline KeySpan trim_key_span(double base, double per, std::size_t s) {
  const double top = base + per * static_cast<double>(s);  // == cost(j, s)
  return s == 1 ? KeySpan{-top, 0.0} : KeySpan{-per, 0x1p-50 * top};
}

/// Algorithm 1's surplus trim: drop `surplus` of the assigned shards, each
/// time the one with the largest marginal cost C_jk − C_j(k−1), lowest user
/// id on ties — one selection over every user's append_trim_runs, linear in
/// the assigned shards. Returns the shards dropped. `costs` is any cost view
/// with a thread-safe cost(user, k) and cost(user, 0) == 0 (CostMatrix,
/// LinearCosts).
template <class Costs>
std::size_t trim_surplus(const Costs& costs, std::vector<std::size_t>& shards,
                         std::size_t surplus) {
  if (surplus == 0) return 0;
  const auto build = [&](std::size_t lo, std::size_t hi, std::vector<UnitRun>& runs) {
    for (std::size_t j = lo; j < hi; ++j) append_trim_runs(costs, j, shards[j], runs);
  };
  return select_over_users(shards.size(), surplus, build,
                           [&](const UnitRun& run) { shards[run.user] -= run.count; });
}

}  // namespace fedsched::sched
