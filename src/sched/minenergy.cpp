#include "sched/minenergy.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "common/json.hpp"
#include "sched/bucketed.hpp"
#include "sched/selection.hpp"

namespace fedsched::sched {

MinEnergyResult fed_minenergy(const LinearCosts& costs, std::size_t total_shards,
                              const MinEnergyConfig& config,
                              obs::TraceWriter* trace) {
  if (total_shards == 0) throw std::invalid_argument("fed_minenergy: zero shards");
  if (!costs.has_energy()) {
    throw std::invalid_argument("fed_minenergy: costs carry no energy model");
  }
  if (!(config.makespan_slack >= 1.0)) {
    throw std::invalid_argument("fed_minenergy: slack must be >= 1");
  }
  const std::size_t n = costs.users();

  // Battery + capacity feasibility is a hard precondition; the time cap below
  // is the only constraint the greedy may relax.
  std::vector<std::size_t> hard_cap(n);
  std::size_t hard_total = 0;
  for (std::size_t j = 0; j < n; ++j) {
    hard_cap[j] = costs.max_shards_within_battery(j);
    hard_total += hard_cap[j];
  }
  if (hard_total < total_shards) {
    throw std::invalid_argument(
        "fed_minenergy: battery budgets cannot host the dataset");
  }

  double cap_s = config.makespan_cap_s;
  if (cap_s == 0.0) {
    const BucketedLbapResult probe =
        fed_lbap_bucketed(costs, total_shards, config.probe_buckets);
    cap_s = config.makespan_slack * probe.makespan_seconds;
  }

  MinEnergyResult result;
  result.time_cap_s = cap_s;
  result.assignment.shard_size = costs.shard_size();
  auto& shards = result.assignment.shards_per_user;
  shards.resize(n, 0);

  // The greedy shared by the capped pass and the relaxed pass, each client
  // capped under the pass's constraint set. A client's chain of marginal
  // bids is its opening bid energy(j, 1) (or its slope once busy) followed
  // by its constant per-shard slope, which is no larger (base_wh >= 0). So
  // once the greedy takes a client's first unit it takes the rest of the
  // chain before any costlier bid: every client is one run keyed by its
  // first bid, and the `want` cheapest units are a weighted selection.
  const auto greedy = [&](std::size_t want, bool timed) {
    std::vector<UnitRun> runs;
    for (std::size_t j = 0; j < n; ++j) {
      const std::size_t cap =
          timed && std::isfinite(cap_s)
              ? std::min(hard_cap[j], costs.max_shards_within(j, cap_s))
              : hard_cap[j];
      if (shards[j] >= cap) continue;
      const double bid = shards[j] == 0 ? costs.energy(j, 1)
                                        : costs.per_shard_energy_wh(j);
      runs.push_back({bid, static_cast<std::uint32_t>(j),
                      static_cast<std::uint32_t>(cap - shards[j])});
    }
    const std::size_t placed = select_units(runs, want);
    for (const UnitRun& run : runs) shards[run.user] += run.count;
    result.steps += placed;
    return placed;
  };

  const std::size_t placed = greedy(total_shards, true);
  if (placed < total_shards) {
    // Time caps alone cannot host the dataset: drop them and spill the
    // remainder onto battery-feasible clients (degrade, don't abort).
    result.relaxed_shards = total_shards - placed;
    greedy(result.relaxed_shards, false);
  }

  for (std::size_t j = 0; j < n; ++j) {
    if (shards[j] == 0) continue;
    result.total_energy_wh += costs.energy(j, shards[j]);
    result.makespan_seconds =
        std::max(result.makespan_seconds, costs.cost(j, shards[j]));
  }

  if (trace != nullptr && trace->enabled()) {
    common::JsonObject ev;
    ev.field("ev", "sched_minenergy")
        .field("users", n)
        .field("total_shards", total_shards)
        .field("time_cap_s", result.time_cap_s)
        .field("relaxed", result.relaxed_shards)
        .field("steps", result.steps)
        .field("energy_wh", result.total_energy_wh)
        .field("makespan_s", result.makespan_seconds);
    trace->write(ev);
  }
  return result;
}

}  // namespace fedsched::sched
