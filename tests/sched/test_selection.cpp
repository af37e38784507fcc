// Differential suite for the heap-free fleet greedies: select_units against a
// full sort, and the Fed-LBAP surplus trim and Fed-MinEnergy against the
// priority-queue implementations they replaced, kept here as test-local
// reference oracles. Assignments must be identical — bit for bit, including
// on rows whose floating-point marginals vary by an ulp from shard to shard,
// where the trim key is the running minimum of the marginals, not the
// marginal itself.

#include "sched/selection.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <queue>
#include <stdexcept>
#include <vector>

#include "common/rng.hpp"
#include "device/model_desc.hpp"
#include "fleet/dynamics.hpp"
#include "fleet/fleet.hpp"
#include "sched/bucketed.hpp"
#include "sched/minenergy.hpp"

namespace fedsched::sched {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

// ---- reference oracles: the removed heaps ----------------------------------

/// Surplus trim as a max-heap keyed (marginal, -user): pop the largest
/// marginal C_jk - C_j(k-1), lowest user id on ties, push the user's next.
std::vector<std::size_t> heap_trim(const LinearCosts& costs,
                                   std::vector<std::size_t> shards,
                                   std::size_t total_shards) {
  std::size_t assigned = 0;
  for (const std::size_t s : shards) assigned += s;
  struct TrimEntry {
    double marginal;
    std::size_t user;
    bool operator<(const TrimEntry& o) const {
      if (marginal != o.marginal) return marginal < o.marginal;
      return user > o.user;
    }
  };
  std::priority_queue<TrimEntry> heap;
  const auto marginal_of = [&](std::size_t j) {
    return costs.cost(j, shards[j]) -
           (shards[j] > 1 ? costs.cost(j, shards[j] - 1) : 0.0);
  };
  for (std::size_t j = 0; j < shards.size(); ++j) {
    if (shards[j] > 0) heap.push({marginal_of(j), j});
  }
  while (assigned > total_shards) {
    const std::size_t j = heap.top().user;
    heap.pop();
    --shards[j];
    --assigned;
    if (shards[j] > 0) heap.push({marginal_of(j), j});
  }
  return shards;
}

/// Fed-MinEnergy with its greedy on a min-heap of (marginal energy, user).
MinEnergyResult heap_minenergy(const LinearCosts& costs, std::size_t total_shards,
                               const MinEnergyConfig& config) {
  const std::size_t n = costs.users();
  std::vector<std::size_t> hard_cap(n);
  std::size_t hard_total = 0;
  for (std::size_t j = 0; j < n; ++j) {
    hard_cap[j] = costs.max_shards_within_battery(j);
    hard_total += hard_cap[j];
  }
  if (hard_total < total_shards) throw std::invalid_argument("battery");
  double cap_s = config.makespan_cap_s;
  if (cap_s == 0.0) {
    cap_s = config.makespan_slack *
            fed_lbap_bucketed(costs, total_shards, config.probe_buckets)
                .makespan_seconds;
  }
  MinEnergyResult result;
  result.time_cap_s = cap_s;
  result.assignment.shard_size = costs.shard_size();
  auto& shards = result.assignment.shards_per_user;
  shards.resize(n, 0);
  struct Bid {
    double marginal_wh;
    std::uint32_t user;
    bool operator>(const Bid& o) const {
      if (marginal_wh != o.marginal_wh) return marginal_wh > o.marginal_wh;
      return user > o.user;
    }
  };
  std::vector<std::size_t> cap(n);
  const auto fill_caps = [&](bool timed) {
    for (std::size_t j = 0; j < n; ++j) {
      cap[j] = timed && std::isfinite(cap_s)
                   ? std::min(hard_cap[j], costs.max_shards_within(j, cap_s))
                   : hard_cap[j];
    }
  };
  const auto greedy = [&](std::size_t want) {
    std::priority_queue<Bid, std::vector<Bid>, std::greater<Bid>> heap;
    for (std::size_t j = 0; j < n; ++j) {
      if (shards[j] >= cap[j]) continue;
      heap.push({shards[j] == 0 ? costs.energy(j, 1) : costs.per_shard_energy_wh(j),
                 static_cast<std::uint32_t>(j)});
    }
    std::size_t placed = 0;
    while (placed < want && !heap.empty()) {
      const std::size_t j = heap.top().user;
      heap.pop();
      ++shards[j];
      ++placed;
      ++result.steps;
      if (shards[j] < cap[j]) {
        heap.push({costs.per_shard_energy_wh(j), static_cast<std::uint32_t>(j)});
      }
    }
    return placed;
  };
  fill_caps(true);
  std::size_t placed = greedy(total_shards);
  if (placed < total_shards) {
    fill_caps(false);
    result.relaxed_shards = total_shards - placed;
    greedy(total_shards - placed);
  }
  for (std::size_t j = 0; j < n; ++j) {
    if (shards[j] == 0) continue;
    result.total_energy_wh += costs.energy(j, shards[j]);
    result.makespan_seconds = std::max(result.makespan_seconds, costs.cost(j, shards[j]));
  }
  return result;
}

// ---- instance generators ----------------------------------------------------

enum class Rows { kDyadic, kUlpNoisy, kTwins };

/// Random affine rows. kDyadic draws from a coarse 0.25 grid (many exact
/// ties across users); kUlpNoisy draws arbitrary doubles, so C_jk - C_j(k-1)
/// wanders by an ulp along a row; kTwins repeats a few noisy rows verbatim,
/// so whole chains tie across users and only the user id breaks them. Some
/// rows are flat (zero slope) and some clients have zero capacity.
LinearCosts random_rows(common::Rng& rng, std::size_t n, std::size_t cap_max,
                        Rows rows, bool zero_base_wh, double budget_wh) {
  std::vector<double> base_s(n), per_s(n), base_wh(n), per_wh(n), budget(n, budget_wh);
  std::vector<std::uint32_t> cap(n);
  const auto draw = [&](double grid, double hi) {
    return rows == Rows::kDyadic
               ? grid * static_cast<double>(rng.uniform_int(
                            static_cast<std::uint64_t>(hi / grid) + 1))
               : rng.uniform(0.0, hi);
  };
  for (std::size_t j = 0; j < n; ++j) {
    const std::size_t twin = rng.uniform_int(j + 1);
    if (rows == Rows::kTwins && twin < j && rng.bernoulli(0.6)) {
      base_s[j] = base_s[twin];
      per_s[j] = per_s[twin];
      base_wh[j] = base_wh[twin];
      per_wh[j] = per_wh[twin];
    } else {
      base_s[j] = draw(0.5, 3.5);
      per_s[j] = rng.bernoulli(0.1) ? 0.0 : draw(0.25, 4.0);
      base_wh[j] = zero_base_wh ? 0.0 : draw(0.25, 1.5);
      per_wh[j] = draw(0.25, 3.0);
    }
    cap[j] = rng.bernoulli(0.05)
                 ? 0
                 : static_cast<std::uint32_t>(1 + rng.uniform_int(cap_max));
  }
  if (std::all_of(cap.begin(), cap.end(), [](std::uint32_t c) { return c == 0; })) {
    cap[0] = 1;
  }
  LinearCosts costs(std::move(base_s), std::move(per_s), std::move(cap),
                    /*shard_size=*/1);
  costs.set_energy(std::move(base_wh), std::move(per_wh), std::move(budget));
  return costs;
}

Rows rows_of(std::size_t i) { return static_cast<Rows>(i % 3); }

/// fed_lbap_bucketed's assignment must equal the heap trim applied to the
/// budgets at the threshold it chose (trim_surplus is also the exact
/// fed_lbap's trim, which test_fed_lbap.cpp pins on its own).
void expect_trim_matches_heap(const LinearCosts& costs, std::size_t total,
                              std::size_t buckets) {
  const BucketedLbapResult r = fed_lbap_bucketed(costs, total, buckets);
  std::vector<std::size_t> budgets(costs.users());
  std::size_t assigned = 0;
  for (std::size_t j = 0; j < costs.users(); ++j) {
    budgets[j] = costs.max_shards_within(j, r.threshold_seconds);
    assigned += budgets[j];
  }
  ASSERT_GE(assigned, total);
  EXPECT_EQ(r.trimmed_shards, assigned - total);
  EXPECT_EQ(r.assignment.shards_per_user, heap_trim(costs, budgets, total));
}

/// Returns the oracle's relaxed shard count (0 when both throw).
std::size_t expect_minenergy_matches_heap(const LinearCosts& costs, std::size_t total,
                                          const MinEnergyConfig& config) {
  MinEnergyResult want;
  try {
    want = heap_minenergy(costs, total, config);
  } catch (const std::invalid_argument&) {
    EXPECT_THROW(fed_minenergy(costs, total, config), std::invalid_argument);
    return 0;
  }
  const MinEnergyResult got = fed_minenergy(costs, total, config);
  EXPECT_EQ(got.assignment.shards_per_user, want.assignment.shards_per_user);
  EXPECT_EQ(got.steps, want.steps);
  EXPECT_EQ(got.relaxed_shards, want.relaxed_shards);
  EXPECT_EQ(got.time_cap_s, want.time_cap_s);
  EXPECT_EQ(got.total_energy_wh, want.total_energy_wh);
  EXPECT_EQ(got.makespan_seconds, want.makespan_seconds);
  return want.relaxed_shards;
}

// ---- select_units -----------------------------------------------------------

TEST(Selection, MatchesFullSortPrefix) {
  common::Rng rng(0x5e1ec7);
  for (int trial = 0; trial < 3000; ++trial) {
    const std::size_t runs_n = rng.uniform_int(40);
    std::vector<UnitRun> runs;
    std::size_t total = 0;
    for (std::size_t i = 0; i < runs_n; ++i) {
      // Few distinct keys, so ties on the key are common.
      const auto count = static_cast<std::uint32_t>(1 + rng.uniform_int(5));
      runs.push_back({static_cast<double>(rng.uniform_int(4)),
                      static_cast<std::uint32_t>(i), count});
      total += count;
    }
    rng.shuffle(runs);
    std::vector<UnitRun> sorted = runs;
    std::sort(sorted.begin(), sorted.end(), [](const UnitRun& a, const UnitRun& b) {
      return a.key != b.key ? a.key < b.key : a.user < b.user;
    });
    const std::size_t need = rng.uniform_int(total + 3);

    std::vector<std::size_t> kept(runs_n, 0), want(runs_n, 0);
    const std::size_t units = select_units(runs, need);
    for (const UnitRun& r : runs) {
      ASSERT_GT(r.count, 0u);
      kept[r.user] += r.count;
    }
    std::size_t left = need;
    for (const UnitRun& r : sorted) {
      want[r.user] = std::min<std::size_t>(left, r.count);
      left -= want[r.user];
    }
    EXPECT_EQ(units, std::min(need, total)) << "trial " << trial;
    EXPECT_EQ(kept, want) << "trial " << trial << " need " << need;
  }
}

TEST(Selection, EdgeCases) {
  std::vector<UnitRun> runs;
  EXPECT_EQ(select_units(runs, 5), 0u);
  const std::vector<UnitRun> three = {{2.0, 1, 3}, {1.0, 0, 2}, {2.0, 0, 1}};
  runs = three;
  EXPECT_EQ(select_units(runs, 0), 0u);
  EXPECT_TRUE(runs.empty());
  runs = three;
  EXPECT_EQ(select_units(runs, 3), 3u);  // {1.0, 0} and {2.0, 0}, whole
  ASSERT_EQ(runs.size(), 2u);
  EXPECT_EQ(runs[0].user + runs[1].user, 0u);
  runs = three;
  EXPECT_EQ(select_units(runs, 4), 4u);  // ... plus one unit of {2.0, 1}
  ASSERT_EQ(runs.size(), 3u);
  EXPECT_EQ(runs[2].user, 1u);
  EXPECT_EQ(runs[2].count, 1u);
  runs = three;
  EXPECT_EQ(select_units(runs, 99), 6u);  // short: every unit
  EXPECT_EQ(runs.size(), 3u);
}

// ---- Fed-LBAP surplus trim vs the heap --------------------------------------

TEST(BucketedTrimOracle, RandomInstancesMatchHeap) {
  common::Rng rng(0x7a1e);
  const std::size_t bucket_choices[] = {1, 3, 64, 1024, 1 << 16};
  for (std::size_t i = 0; i < 6000; ++i) {
    const std::size_t n = 1 + rng.uniform_int(24);
    const LinearCosts costs = random_rows(rng, n, 1 + rng.uniform_int(12), rows_of(i),
                                          false, kInf);
    const std::size_t total = 1 + rng.uniform_int(costs.total_capacity());
    SCOPED_TRACE(testing::Message() << "instance " << i);
    expect_trim_matches_heap(costs, total, bucket_choices[rng.uniform_int(5)]);
  }
}

TEST(BucketedTrimOracle, UlpNoisyMarginalsStillMatchHeap) {
  // One long noisy row per user and a fine bucket grid: thresholds land
  // mid-row, so nearly every user trims, and the ulp wobble of
  // C_jk - C_j(k-1) along each row decides the order.
  common::Rng rng(0x0b5e);
  std::size_t noisy_rows = 0;
  for (std::size_t i = 0; i < 200; ++i) {
    const std::size_t n = 2 + rng.uniform_int(30);
    const LinearCosts costs = random_rows(rng, n, 64, Rows::kUlpNoisy, false, kInf);
    for (std::size_t j = 0; j < n; ++j) {
      for (std::size_t k = 3; k <= costs.capacity(j); ++k) {
        if (costs.cost(j, k) - costs.cost(j, k - 1) !=
            costs.cost(j, k - 1) - costs.cost(j, k - 2)) {
          ++noisy_rows;
          break;
        }
      }
    }
    SCOPED_TRACE(testing::Message() << "instance " << i);
    expect_trim_matches_heap(costs, 1 + rng.uniform_int(costs.total_capacity()), 4096);
  }
  EXPECT_GT(noisy_rows, 100u);  // the wobble the key must absorb is real
}

TEST(BucketedTrimOracle, GeneratedFleetMatchesHeap) {
  const std::size_t n = 100'000;
  const fleet::FleetState state =
      fleet::FleetGenerator(fleet::FleetMix{}, device::lenet_desc(), 31).generate(n);
  const LinearCosts costs = fleet::linear_costs(state, /*shard_size=*/100);
  expect_trim_matches_heap(costs, 2 * n, 64);
}

// ---- Fed-MinEnergy vs the heap ----------------------------------------------

TEST(MinEnergyOracle, RandomInstancesMatchHeap) {
  common::Rng rng(0xe6e7);
  std::size_t relaxed_instances = 0;
  for (std::size_t i = 0; i < 6000; ++i) {
    const std::size_t n = 1 + rng.uniform_int(24);
    // Every third instance has zero base energy, so a client's opening bid
    // energy(j, 1) ties its own per-shard slope.
    const bool zero_base = i % 3 == 0;
    const double budget = rng.bernoulli(0.5) ? kInf : rng.uniform(1.0, 20.0);
    const LinearCosts costs =
        random_rows(rng, n, 1 + rng.uniform_int(10), rows_of(i / 3), zero_base, budget);
    MinEnergyConfig config;
    switch (rng.uniform_int(4)) {
      case 0: break;  // cap from the internal Fed-LBAP probe
      case 1: config.makespan_cap_s = kInf; break;
      case 2: config.makespan_slack = 1.0; break;
      default: config.makespan_cap_s = rng.uniform(0.5, 8.0); break;  // often relaxes
    }
    const std::size_t total = 1 + rng.uniform_int(costs.total_capacity());
    SCOPED_TRACE(testing::Message() << "instance " << i);
    relaxed_instances += expect_minenergy_matches_heap(costs, total, config) > 0;
  }
  EXPECT_GT(relaxed_instances, 300u);  // the second pass is well exercised
}

TEST(MinEnergyOracle, ZeroBaseEnergyTiesOpeningBidWithSlope) {
  // Every client bids the same 0.5 Wh for its first shard and every later
  // one, so only the user id orders the greedy: the lowest ids fill first.
  const LinearCosts costs = [] {
    LinearCosts c({1.0, 1.0, 1.0, 1.0}, {1.0, 1.0, 1.0, 1.0}, {3, 3, 3, 3}, 1);
    c.set_energy({0.0, 0.0, 0.0, 0.0}, {0.5, 0.5, 0.5, 0.5}, {kInf, kInf, kInf, kInf});
    return c;
  }();
  MinEnergyConfig config;
  config.makespan_cap_s = kInf;
  const MinEnergyResult r = fed_minenergy(costs, 7, config);
  EXPECT_EQ(r.assignment.shards_per_user, (std::vector<std::size_t>{3, 3, 1, 0}));
  expect_minenergy_matches_heap(costs, 7, config);
}

TEST(MinEnergyOracle, RelaxedPassMatchesHeap) {
  // A 2.5 s cap hosts one shard on each of clients 0-2 (cost 1 + k) and none
  // on client 3; the other five spill in the relaxed pass, where busy
  // clients bid only their slope and compete with client 3's opening bid.
  LinearCosts costs({1.0, 1.0, 1.0, 9.0}, {1.0, 1.0, 1.0, 1.0}, {4, 4, 4, 1}, 1);
  costs.set_energy({1.0, 2.0, 1.0, 0.0}, {1.0, 0.5, 2.0, 0.75}, {kInf, kInf, kInf, kInf});
  MinEnergyConfig config;
  config.makespan_cap_s = 2.5;
  const MinEnergyResult r = fed_minenergy(costs, 8, config);
  EXPECT_EQ(r.relaxed_shards, 5u);
  // Relaxed bids: client 1's three at 0.5, client 3's one at 0.75, then one
  // of client 0's at 1.0. Were busy clients to bid their opening energy
  // again (2.0 and 2.5), client 0 would take three and client 1 one.
  EXPECT_EQ(r.assignment.shards_per_user, (std::vector<std::size_t>{2, 4, 1, 1}));
  expect_minenergy_matches_heap(costs, 8, config);
}

TEST(MinEnergyOracle, GeneratedChurnFleetMatchesHeap) {
  const std::size_t n = 100'000;
  fleet::FleetMix mix;
  mix.capacity_shards = 16;
  mix.lte_fraction = 0.3;
  const fleet::FleetGenerator generator(mix, device::lenet_desc(), 47);
  const fleet::FleetState state = generator.generate(n);
  fleet::ClientDynamics dynamics(fleet::scenario_config("churn", 47), &generator);
  const LinearCosts costs = fleet::dynamic_linear_costs(state, 100, dynamics);
  expect_minenergy_matches_heap(costs, 2 * n, MinEnergyConfig{});
  MinEnergyConfig tight;
  tight.makespan_slack = 1.0;
  expect_minenergy_matches_heap(costs, 2 * n, tight);
}

}  // namespace
}  // namespace fedsched::sched
