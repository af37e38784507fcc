// Event-order suite for FleetSimulator::run_round: the round sweeps its
// events in (time, kind, client) order, and since only the floating-point
// energy sum depends on that order, the suite pins it through exact
// energy_wh bits — on a hand-built fleet where four events share one
// instant, and on 100k-client static and churn rounds whose energy,
// makespan and global-update bits are golden constants, captured from the
// priority-queue implementation the sorted sweep replaced.

#include "fleet/event_sim.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <vector>

#include "device/model_desc.hpp"
#include "fleet/dynamics.hpp"
#include "fleet/fleet.hpp"
#include "sched/bucketed.hpp"
#include "sched/minenergy.hpp"

namespace fedsched::fleet {
namespace {

/// FNV-1a over the bit patterns of the update coordinates.
std::uint64_t bits_checksum(const std::vector<double>& v) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const double x : v) {
    h ^= std::bit_cast<std::uint64_t>(x);
    h *= 0x100000001b3ULL;
  }
  return h;
}

/// Four clients, one shard each (shard size 1), all available and plugged
/// at t = 0. At t = 4 exactly: client 3's availability window closes (it is
/// still computing until 6), client 2's charger flips (it finishes at 5),
/// and clients 0 and 1 finish.
FleetState shared_instant_fleet() {
  FleetState s;
  const std::size_t n = 4;
  s.device_model.assign(n, 0);
  s.network.assign(n, 0);
  s.speed_factor.assign(n, 1.0);
  s.base_s = {1.0, 1.5, 1.0, 1.0};
  s.per_sample_s = {1.0, 0.5, 2.0, 3.0};  // compute 2, 2, 3, 4 s
  s.comm_s = {2.0, 2.0, 2.0, 2.0};        // finish 4, 4, 5, 6 s
  s.battery_soc.assign(n, 1.0);
  s.battery_capacity_wh.assign(n, 50.0);
  s.train_power_w = {180.0, 101.0, 396.0, 300.0};
  s.comm_energy_wh = {0.3, 0.2, 0.1, 0.7};
  s.temp_c.assign(n, 25.0);
  s.capacity_shards.assign(n, 4);
  s.alive.assign(n, 1);
  return s;
}

TEST(FleetEventOrder, SharedInstantRunsInTimeKindClientOrder) {
  DynamicsConfig dc;
  dc.enabled = true;
  dc.diurnal = true;
  dc.day_period_s = 100.0;
  dc.day_fraction = 0.5;  // window [0, 50) shifted by the phase
  dc.charging = true;
  dc.charge_period_s = 100.0;
  dc.charge_fraction = 0.5;
  ClientDynamics dynamics(dc);
  // Phase 46 puts a client 4 s before its window edge at t = 0.
  DynamicsSnapshot snap;
  snap.departed.assign(4, 0);
  snap.avail_phase = {0.0, 0.0, 0.0, 46.0};
  snap.charge_phase = {0.0, 0.0, 46.0, 0.0};
  dynamics.restore(snap);

  FleetSimConfig config;
  config.shard_size = 1;
  FleetSimulator sim(shared_instant_fleet(), config);
  const std::vector<std::size_t> plan = {1, 1, 1, 1};
  const FleetRoundResult r = sim.run_round(plan, 0, nullptr, &dynamics);

  EXPECT_EQ(r.events_processed, 6u);  // 4 finishes, 1 avail-off, 1 charge edge
  EXPECT_EQ(r.charge_edges, 1u);
  EXPECT_EQ(r.dropped_offline, 1u);
  EXPECT_EQ(r.completed, 3u);
  EXPECT_EQ(r.contributors, (std::vector<std::uint32_t>{0, 1, 2}));
  EXPECT_EQ(r.makespan_s, 5.0);

  // Drains in sweep order at t = 4: (avail-off, 3) cancels client 3 after 4
  // compute-seconds of 300 W, before its upload; then (finish, 0) and
  // (finish, 1); then (finish, 2) at t = 5.
  const double cancel3 = 300.0 * 4.0 / 3600.0;
  const double finish0 = 180.0 * 2.0 / 3600.0 + 0.3;
  const double finish1 = 101.0 * 2.0 / 3600.0 + 0.2;
  const double finish2 = 396.0 * 3.0 / 3600.0 + 0.1;
  const double swept = ((cancel3 + finish0) + finish1) + finish2;
  EXPECT_EQ(r.energy_wh, swept);
  // The instance is sensitive to the order: summing the instant's events
  // finishes-first or highest-client-first gives other bits.
  EXPECT_NE(swept, ((finish0 + finish1) + cancel3) + finish2);
  EXPECT_NE(swept, ((cancel3 + finish1) + finish0) + finish2);
}

struct RoundGolden {
  double energy_wh;
  double makespan_s;
  std::uint64_t update_checksum;
  std::size_t completed;
};

void expect_golden(const FleetRoundResult& r, const RoundGolden& g) {
  EXPECT_EQ(r.energy_wh, g.energy_wh) << std::hexfloat << r.energy_wh;
  EXPECT_EQ(r.makespan_s, g.makespan_s) << std::hexfloat << r.makespan_s;
  EXPECT_EQ(bits_checksum(r.global_update), g.update_checksum)
      << std::hex << bits_checksum(r.global_update);
  EXPECT_EQ(r.completed, g.completed);
  EXPECT_EQ(r.contributors.size(), r.completed);
  EXPECT_TRUE(std::is_sorted(r.contributors.begin(), r.contributors.end()));
}

constexpr std::size_t kClients = 100'000;

FleetSimConfig golden_config(std::uint64_t seed) {
  FleetSimConfig config;
  config.shard_size = 100;
  config.dropout_prob = 0.1;
  config.seed = seed;
  return config;
}

TEST(FleetEventOrder, StaticRoundGolden) {
  const FleetGenerator generator(FleetMix{}, device::lenet_desc(), 61);
  FleetSimulator sim(generator.generate(kClients), golden_config(61));
  const sched::LinearCosts costs = linear_costs(sim.state(), 100);
  const std::vector<std::size_t> plan =
      sched::fed_lbap_bucketed(costs, 2 * kClients, 64).assignment.shards_per_user;
  expect_golden(sim.run_round(plan, 0), {0x1.6a816601978a8p+7, 0x1.4893b274242eap+2,
                                         0x5bcc57c09a9d1095ULL, 43632});
}

TEST(FleetEventOrder, ChurnRoundGolden) {
  FleetMix mix;
  mix.capacity_shards = 16;
  mix.lte_fraction = 0.3;
  const FleetGenerator generator(mix, device::lenet_desc(), 67);
  ClientDynamics dynamics(scenario_config("churn", 67), &generator);
  FleetSimulator sim(generator.generate(kClients), golden_config(67));
  const sched::LinearCosts costs = dynamic_linear_costs(sim.state(), 100, dynamics);
  const std::vector<std::size_t> plan =
      sched::fed_minenergy(costs, 2 * kClients).assignment.shards_per_user;
  const FleetRoundResult r = sim.run_round(plan, 0, nullptr, &dynamics);
  EXPECT_GT(r.joins, 0u);
  EXPECT_GT(r.dropped_offline, 0u);
  expect_golden(r, {0x1.5312776a7f353p+7, 0x1.78f62f57e98d8p+2, 0xe2ace46f0f2371bbULL,
                    32984});
}

}  // namespace
}  // namespace fedsched::fleet
