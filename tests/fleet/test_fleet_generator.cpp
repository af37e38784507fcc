// Property/fuzz suite for FleetGenerator (same spirit as
// tests/fl/test_health_property.cpp): over random seeds and sizes, sampled
// mixtures match the requested proportions within tolerance, every state
// vector stays index-aligned, and generation is bitwise seed-deterministic.

#include "fleet/fleet.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <string>
#include <vector>

#include "common/thread_pool.hpp"
#include "device/model_desc.hpp"

namespace fedsched::fleet {
namespace {

const device::ModelDesc& kModel = device::lenet_desc();

FleetMix skewed_mix() {
  FleetMix mix;
  mix.device_weights = {0.5, 0.2, 0.2, 0.1};
  mix.lte_fraction = 0.3;
  mix.soc_min = 0.6;
  mix.soc_max = 0.9;
  mix.speed_sigma = 0.2;
  mix.capacity_shards = 32;
  return mix;
}

void expect_aligned(const FleetState& s, std::size_t n) {
  EXPECT_EQ(s.size(), n);
  EXPECT_EQ(s.device_model.size(), n);
  EXPECT_EQ(s.network.size(), n);
  EXPECT_EQ(s.speed_factor.size(), n);
  EXPECT_EQ(s.base_s.size(), n);
  EXPECT_EQ(s.per_sample_s.size(), n);
  EXPECT_EQ(s.comm_s.size(), n);
  EXPECT_EQ(s.battery_soc.size(), n);
  EXPECT_EQ(s.battery_capacity_wh.size(), n);
  EXPECT_EQ(s.train_power_w.size(), n);
  EXPECT_EQ(s.comm_energy_wh.size(), n);
  EXPECT_EQ(s.temp_c.size(), n);
  EXPECT_EQ(s.capacity_shards.size(), n);
  EXPECT_EQ(s.alive.size(), n);
}

TEST(FleetGenerator, MixtureProportionsWithinTolerance) {
  const FleetMix mix = skewed_mix();
  constexpr std::size_t kN = 20000;
  constexpr double kTol = 0.02;  // ~10 sigma at n = 20k for the rarest class
  for (std::uint64_t seed : {101u, 202u, 303u}) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    const FleetGenerator gen(mix, kModel, seed);
    const FleetState state = gen.generate(kN);
    std::array<std::size_t, kPhoneModelCount> counts{};
    std::size_t lte = 0;
    for (std::size_t j = 0; j < kN; ++j) {
      counts[state.device_model[j]]++;
      lte += state.network[j];
    }
    for (std::size_t i = 0; i < kPhoneModelCount; ++i) {
      const double observed = static_cast<double>(counts[i]) / kN;
      EXPECT_NEAR(observed, mix.device_weights[i], kTol) << "model " << i;
    }
    EXPECT_NEAR(static_cast<double>(lte) / kN, mix.lte_fraction, kTol);
  }
}

TEST(FleetGenerator, StateVectorsAlignedAndInRange) {
  const FleetMix mix = skewed_mix();
  common::Rng fuzz(0xa11ce);
  for (int trial = 0; trial < 8; ++trial) {
    const std::size_t n = 1 + fuzz.uniform_int(3000);
    const std::uint64_t seed = fuzz();
    SCOPED_TRACE("trial=" + std::to_string(trial) + " n=" + std::to_string(n));
    const FleetGenerator gen(mix, kModel, seed);
    const FleetState state = gen.generate(n);
    expect_aligned(state, n);
    for (std::size_t j = 0; j < n; ++j) {
      EXPECT_LT(state.device_model[j], kPhoneModelCount);
      EXPECT_LE(state.network[j], 1);
      EXPECT_GT(state.speed_factor[j], 0.0);
      EXPECT_GE(state.base_s[j], 0.0);
      EXPECT_GT(state.per_sample_s[j], 0.0);
      EXPECT_GT(state.comm_s[j], 0.0);
      EXPECT_GE(state.battery_soc[j], mix.soc_min);
      EXPECT_LE(state.battery_soc[j], mix.soc_max);
      EXPECT_GT(state.battery_capacity_wh[j], 0.0);
      EXPECT_GT(state.train_power_w[j], 0.0);
      EXPECT_GT(state.comm_energy_wh[j], 0.0);
      EXPECT_EQ(state.capacity_shards[j], mix.capacity_shards);
      EXPECT_EQ(state.alive[j], 1);
    }
  }
}

TEST(FleetGenerator, BitwiseSeedDeterminism) {
  const FleetMix mix = skewed_mix();
  for (std::uint64_t seed : {7u, 77u, 777u}) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    const FleetState a = FleetGenerator(mix, kModel, seed).generate(1500);
    const FleetState b = FleetGenerator(mix, kModel, seed).generate(1500);
    EXPECT_EQ(a.device_model, b.device_model);
    EXPECT_EQ(a.network, b.network);
    EXPECT_EQ(a.speed_factor, b.speed_factor);   // bitwise: same draws
    EXPECT_EQ(a.base_s, b.base_s);
    EXPECT_EQ(a.per_sample_s, b.per_sample_s);
    EXPECT_EQ(a.battery_soc, b.battery_soc);
    EXPECT_EQ(a.temp_c, b.temp_c);
  }
  // And a different seed must actually change the population.
  const FleetState a = FleetGenerator(mix, kModel, 7).generate(1500);
  const FleetState c = FleetGenerator(mix, kModel, 8).generate(1500);
  EXPECT_NE(a.battery_soc, c.battery_soc);
}

TEST(FleetGenerator, ClientsKeepIdentityAsFleetGrows) {
  // fork(j) is a pure function of (seed, j): client j of a small fleet is
  // bit-identical to client j of a larger fleet with the same seed.
  const FleetMix mix = skewed_mix();
  const FleetGenerator gen(mix, kModel, 2024);
  const FleetState small = gen.generate(100);
  const FleetState large = gen.generate(1000);
  for (std::size_t j = 0; j < small.size(); ++j) {
    EXPECT_EQ(small.device_model[j], large.device_model[j]);
    EXPECT_EQ(small.speed_factor[j], large.speed_factor[j]);
    EXPECT_EQ(small.battery_soc[j], large.battery_soc[j]);
  }
}

void expect_same_fleet(const FleetState& a, const FleetState& b) {
  EXPECT_EQ(a.device_model, b.device_model);
  EXPECT_EQ(a.network, b.network);
  EXPECT_EQ(a.speed_factor, b.speed_factor);
  EXPECT_EQ(a.base_s, b.base_s);
  EXPECT_EQ(a.per_sample_s, b.per_sample_s);
  EXPECT_EQ(a.comm_s, b.comm_s);
  EXPECT_EQ(a.battery_soc, b.battery_soc);
  EXPECT_EQ(a.battery_capacity_wh, b.battery_capacity_wh);
  EXPECT_EQ(a.train_power_w, b.train_power_w);
  EXPECT_EQ(a.comm_energy_wh, b.comm_energy_wh);
  EXPECT_EQ(a.temp_c, b.temp_c);
  EXPECT_EQ(a.capacity_shards, b.capacity_shards);
  EXPECT_EQ(a.alive, b.alive);
}

TEST(FleetGenerator, ChunkedExtendMatchesSerialGrowth) {
  // Three chunks from zero; from a non-zero start (the join path) the chunk
  // boundaries fall elsewhere; one client at a time is the serial order.
  const std::size_t n = 2 * common::kChunkGrain + 36'000;
  const FleetGenerator gen(skewed_mix(), kModel, 99);
  const FleetState whole = gen.generate(n);
  FleetState grown = gen.generate(1'001);
  gen.extend(grown, n);
  FleetState serial;
  for (std::size_t j = 1; j <= n; ++j) gen.extend(serial, j);
  expect_aligned(whole, n);
  expect_same_fleet(grown, whole);
  expect_same_fleet(serial, whole);
}

/// Calls fn on every column of `s`.
template <class State, class Fn>
void for_each_column(State& s, Fn&& fn) {
  fn(s.device_model);
  fn(s.network);
  fn(s.speed_factor);
  fn(s.base_s);
  fn(s.per_sample_s);
  fn(s.comm_s);
  fn(s.battery_soc);
  fn(s.battery_capacity_wh);
  fn(s.train_power_w);
  fn(s.comm_energy_wh);
  fn(s.temp_c);
  fn(s.capacity_shards);
  fn(s.alive);
}

std::vector<std::string> column_bytes(const FleetState& s) {
  std::vector<std::string> out;
  for_each_column(s, [&](const auto& column) {
    out.emplace_back(reinterpret_cast<const char*>(column.data()),
                     column.size() * sizeof(column[0]));
  });
  return out;
}

constexpr unsigned char kPoison = 0xA5;

/// Fills the storage of rows [size, target) of every column with kPoison and
/// shrinks back. A Column keeps those bytes through the shrink and through
/// extend()'s resize, so a row extend() left unwritten would show them.
void poison_rows(FleetState& s, std::size_t target) {
  for_each_column(s, [&](auto& column) {
    const std::size_t size = column.size();
    column.resize(target);
    std::memset(column.data() + size, kPoison, (target - size) * sizeof(column[0]));
    column.resize(size);
  });
}

TEST(FleetGenerator, ExtendWritesEveryRowOfUninitializedStorage) {
  const std::size_t n = common::kChunkGrain + 20'000;  // two chunks
  const FleetGenerator gen(skewed_mix(), kModel, 61);
  const std::vector<std::string> whole = column_bytes(gen.generate(n));

  FleetState from_zero;
  poison_rows(from_zero, n);
  from_zero.device_model.resize(n);  // the poison survives a bare resize
  EXPECT_EQ(from_zero.device_model[n - 1], kPoison);
  from_zero.device_model.clear();
  gen.extend(from_zero, n);
  EXPECT_TRUE(column_bytes(from_zero) == whole);

  FleetState from_1001 = gen.generate(1'001);
  poison_rows(from_1001, n);
  gen.extend(from_1001, n);
  EXPECT_TRUE(column_bytes(from_1001) == whole);

  const std::size_t m = 3'000;
  FleetState one_at_a_time;
  for (std::size_t j = 1; j <= m; ++j) {
    poison_rows(one_at_a_time, j);
    gen.extend(one_at_a_time, j);
  }
  EXPECT_TRUE(column_bytes(one_at_a_time) == column_bytes(gen.generate(m)));
}

TEST(FleetGenerator, ExtendAcrossCapacityAtMultiChunkSizesMatchesGenerate) {
  // A generated fleet has no spare capacity, so a first join reallocates
  // every column and copies its old rows in chunks; growth doubles, as
  // std::vector's does, so a second join past that capacity copies again.
  const std::size_t n = common::kChunkGrain + 20'000;  // two chunks
  const FleetGenerator gen(skewed_mix(), kModel, 67);
  FleetState grown = gen.generate(n);
  gen.extend(grown, n + 1);
  for_each_column(grown, [&](const auto& column) { EXPECT_EQ(column.capacity(), 2 * n); });
  gen.extend(grown, 2 * n + 1);  // doubling beats the target
  for_each_column(grown, [&](const auto& column) {
    EXPECT_EQ(column.capacity(), 2 * (n + 1));
  });
  gen.extend(grown, 4 * n + 11);  // the target beats doubling; 3 chunks copied
  for_each_column(grown, [&](const auto& column) { EXPECT_EQ(column.capacity(), 4 * n + 11); });
  EXPECT_TRUE(column_bytes(grown) == column_bytes(gen.generate(4 * n + 11)));
}

TEST(FleetGenerator, LinearCostsViewMatchesState) {
  const FleetMix mix = skewed_mix();
  const FleetState state = FleetGenerator(mix, kModel, 5).generate(200);
  const sched::LinearCosts costs = linear_costs(state, 100);
  ASSERT_EQ(costs.users(), state.size());
  for (std::size_t j = 0; j < state.size(); ++j) {
    EXPECT_EQ(costs.base_seconds(j), state.base_s[j] + state.comm_s[j]);
    EXPECT_EQ(costs.per_shard_seconds(j), state.per_sample_s[j] * 100.0);
    EXPECT_EQ(costs.capacity(j), state.capacity_shards[j]);
  }
}

TEST(FleetGenerator, Validation) {
  const FleetMix mix = skewed_mix();
  FleetMix bad = mix;
  bad.soc_min = 0.9;
  bad.soc_max = 0.5;
  EXPECT_THROW(FleetGenerator(bad, kModel, 1), std::invalid_argument);
  bad = mix;
  bad.device_weights = {0.0, 0.0, 0.0, 0.0};
  EXPECT_THROW(FleetGenerator(bad, kModel, 1), std::invalid_argument);
  bad = mix;
  bad.capacity_shards = 0;
  EXPECT_THROW(FleetGenerator(bad, kModel, 1), std::invalid_argument);
}

TEST(FleetMixParse, ParsesDevicesAndLte) {
  const FleetMix mix = parse_fleet_mix("nexus6:0.4,mate10:0.4,pixel2:0.2,lte:0.5");
  EXPECT_DOUBLE_EQ(mix.device_weights[0], 0.4);  // Nexus 6
  EXPECT_DOUBLE_EQ(mix.device_weights[1], 0.0);  // Nexus 6P unnamed
  EXPECT_DOUBLE_EQ(mix.device_weights[2], 0.4);  // Mate 10
  EXPECT_DOUBLE_EQ(mix.device_weights[3], 0.2);  // Pixel 2
  EXPECT_DOUBLE_EQ(mix.lte_fraction, 0.5);
}

TEST(FleetMixParse, RejectsMalformedSpecs) {
  const auto parse = [](const std::string& spec) { (void)parse_fleet_mix(spec); };
  EXPECT_THROW(parse(""), std::invalid_argument);
  EXPECT_THROW(parse("lte:0.5"), std::invalid_argument);  // no devices
  EXPECT_THROW(parse("iphone:1.0"), std::invalid_argument);
  EXPECT_THROW(parse("nexus6:abc"), std::invalid_argument);
  EXPECT_THROW(parse("nexus6"), std::invalid_argument);
  EXPECT_THROW(parse("nexus6:-1"), std::invalid_argument);
  EXPECT_THROW(parse("nexus6:1,lte:1.5"), std::invalid_argument);
}

}  // namespace
}  // namespace fedsched::fleet
