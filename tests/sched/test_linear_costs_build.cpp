// LinearCosts::from_rows — the one-pass build behind fleet::linear_costs, the
// vector constructor and set_energy — against the view the vector
// constructor plus set_energy stored before: the caller's vectors verbatim,
// a serial capacity sum and a serial minimum single-shard cost. Rows span
// three 2^17-user chunks, and every rejection keeps its message.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <functional>
#include <limits>
#include <string>
#include <vector>

#include "common/thread_pool.hpp"
#include "device/model_desc.hpp"
#include "fleet/fleet.hpp"
#include "sched/linear_costs.hpp"

namespace fedsched::sched {
namespace {

constexpr std::size_t kUsers = 2 * common::kChunkGrain + 36'000;
constexpr std::size_t kShard = 100;
constexpr double kFloor = 0.05;

std::uint64_t bits(double x) { return std::bit_cast<std::uint64_t>(x); }

/// The columns fleet::linear_costs handed to the vector constructor and
/// set_energy before the one-pass build, computed serially.
struct Columns {
  std::vector<double> base_s, per_shard_s, base_wh, per_shard_wh, budget_wh;
  std::vector<std::uint32_t> capacity;
};

Columns serial_columns(const fleet::FleetState& state) {
  const std::size_t n = state.size();
  Columns c;
  for (std::size_t j = 0; j < n; ++j) {
    c.base_s.push_back(state.base_s[j] + state.comm_s[j]);
    c.per_shard_s.push_back(state.per_sample_s[j] * static_cast<double>(kShard));
    c.capacity.push_back(state.alive[j] != 0 ? state.capacity_shards[j] : 0);
    c.base_wh.push_back(state.train_power_w[j] * state.base_s[j] / 3600.0 +
                        state.comm_energy_wh[j]);
    c.per_shard_wh.push_back(state.train_power_w[j] * c.per_shard_s[j] / 3600.0);
    c.budget_wh.push_back(std::max(0.0, state.battery_soc[j] - kFloor) *
                          state.battery_capacity_wh[j]);
  }
  return c;
}

void expect_view_holds(const LinearCosts& costs, const Columns& c) {
  ASSERT_EQ(costs.users(), c.base_s.size());
  ASSERT_TRUE(costs.has_energy());
  EXPECT_EQ(costs.shard_size(), kShard);
  std::size_t capacity = 0;
  double lo = std::numeric_limits<double>::infinity();
  std::size_t mismatches = 0;
  for (std::size_t j = 0; j < costs.users(); ++j) {
    mismatches += bits(costs.base_seconds(j)) != bits(c.base_s[j]);
    mismatches += bits(costs.per_shard_seconds(j)) != bits(c.per_shard_s[j]);
    mismatches += costs.capacity(j) != c.capacity[j];
    mismatches += bits(costs.base_energy_wh(j)) != bits(c.base_wh[j]);
    mismatches += bits(costs.per_shard_energy_wh(j)) != bits(c.per_shard_wh[j]);
    mismatches += bits(costs.battery_budget_wh(j)) != bits(c.budget_wh[j]);
    capacity += c.capacity[j];
    if (c.capacity[j] > 0) lo = std::min(lo, c.base_s[j] + c.per_shard_s[j] * 1.0);
  }
  EXPECT_EQ(mismatches, 0u);
  EXPECT_EQ(costs.total_capacity(), capacity);
  EXPECT_EQ(bits(costs.min_single_shard_cost()), bits(lo));
}

TEST(LinearCosts, OnePassBuildMatchesVectorConstructorPlusSetEnergy) {
  fleet::FleetState state =
      fleet::FleetGenerator(fleet::FleetMix{}, device::lenet_desc(), 53).generate(kUsers);
  for (std::size_t j = 0; j < kUsers; j += 7) state.alive[j] = 0;
  const Columns c = serial_columns(state);

  const LinearCosts built = fleet::linear_costs(state, kShard, kFloor);
  expect_view_holds(built, c);

  LinearCosts adapted(c.base_s, c.per_shard_s, c.capacity, kShard);
  EXPECT_FALSE(adapted.has_energy());
  adapted.set_energy(c.base_wh, c.per_shard_wh, c.budget_wh);
  expect_view_holds(adapted, c);

  // The derived queries agree too.
  EXPECT_EQ(bits(built.max_full_cost(3)), bits(adapted.max_full_cost(3)));
  const double mid = 0.5 * (built.min_single_shard_cost() + built.max_full_cost(64));
  EXPECT_EQ(built.total_budget(mid, kUsers), adapted.total_budget(mid, kUsers));
  for (std::size_t j = 0; j < kUsers; j += 997) {
    EXPECT_EQ(built.max_shards_within_battery(j), adapted.max_shards_within_battery(j));
  }
}

std::string message_of(const std::function<void()>& build) {
  try {
    build();
  } catch (const std::invalid_argument& e) {
    return e.what();
  }
  return "(no throw)";
}

TEST(LinearCosts, RejectionsKeepTheirMessages) {
  const std::size_t n = kUsers;
  const std::vector<double> ones(n, 1.0);
  const std::vector<std::uint32_t> caps(n, 2);
  const auto with_last = [&](std::vector<double> v, double x) {
    v.back() = x;  // in the last of three chunks
    return v;
  };
  const auto build = [&](std::vector<double> base, std::vector<double> per,
                         std::vector<std::uint32_t> cap, std::size_t shard) {
    return [=] { (void)LinearCosts(base, per, cap, shard); };
  };
  const auto rows = [&](std::size_t users, std::size_t shard, CostRow bad, bool energy) {
    return [=] {
      (void)LinearCosts::from_rows(users, shard, energy, [&](std::size_t j) {
        return j + 1 == users ? bad : CostRow{1.0, 1.0, 2, 1.0, 1.0, 1.0};
      });
    };
  };
  const CostRow good{1.0, 1.0, 2, 1.0, 1.0, 1.0};
  const double nan = std::nan("");

  EXPECT_EQ(message_of(build({}, {}, {}, 1)), "LinearCosts: no users");
  EXPECT_EQ(message_of(rows(0, 1, good, true)), "LinearCosts: no users");
  EXPECT_EQ(message_of(build(ones, std::vector<double>(n - 1, 1.0), caps, 1)),
            "LinearCosts: misaligned vectors");
  EXPECT_EQ(message_of(build(ones, ones, std::vector<std::uint32_t>(n + 1, 2), 1)),
            "LinearCosts: misaligned vectors");
  EXPECT_EQ(message_of(build(ones, ones, caps, 0)), "LinearCosts: zero shard size");
  EXPECT_EQ(message_of(rows(n, 0, good, true)), "LinearCosts: zero shard size");

  const std::string bad_cost = "LinearCosts: negative or NaN cost coefficients";
  EXPECT_EQ(message_of(build(with_last(ones, -1.0), ones, caps, 1)), bad_cost);
  EXPECT_EQ(message_of(build(ones, with_last(ones, nan), caps, 1)), bad_cost);
  EXPECT_EQ(message_of(rows(n, 1, CostRow{nan, 1.0, 2, 1.0, 1.0, 1.0}, true)), bad_cost);
  EXPECT_EQ(message_of(rows(n, 1, CostRow{1.0, -0.5, 2, 1.0, 1.0, 1.0}, false)), bad_cost);

  EXPECT_EQ(message_of(build(ones, ones, std::vector<std::uint32_t>(n, 0), 1)),
            "LinearCosts: zero capacity");
  EXPECT_EQ(message_of([&] {
              (void)LinearCosts::from_rows(n, 1, true, [](std::size_t) {
                return CostRow{1.0, 1.0, 0, -1.0, 1.0, 1.0};
              });
            }),
            "LinearCosts: zero capacity");  // as before: the constructor threw first

  LinearCosts ok(ones, ones, caps, 1);
  EXPECT_EQ(message_of([&] { ok.set_energy(ones, ones, std::vector<double>(n - 1, 1.0)); }),
            "LinearCosts::set_energy: misaligned vectors");
  const std::string bad_energy = "LinearCosts::set_energy: negative or NaN energy coefficients";
  EXPECT_EQ(message_of([&] { ok.set_energy(with_last(ones, -1.0), ones, ones); }), bad_energy);
  EXPECT_EQ(message_of([&] { ok.set_energy(ones, with_last(ones, nan), ones); }), bad_energy);
  EXPECT_EQ(message_of([&] { ok.set_energy(ones, ones, with_last(ones, nan)); }), bad_energy);
  EXPECT_EQ(message_of([&] {
              ok.set_energy(with_last(ones, std::numeric_limits<double>::infinity()), ones,
                            ones);
            }),
            bad_energy);
  EXPECT_FALSE(ok.has_energy());  // a rejected set_energy leaves the view as it was
  EXPECT_EQ(message_of(rows(n, 1, CostRow{1.0, 1.0, 2, 1.0, -1.0, 1.0}, true)), bad_energy);
  // Energy fields are not read without the energy model.
  EXPECT_EQ(message_of(rows(n, 1, CostRow{1.0, 1.0, 2, nan, nan, nan}, false)), "(no throw)");
}

}  // namespace
}  // namespace fedsched::sched
