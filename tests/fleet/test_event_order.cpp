// Event-order suite for FleetSimulator::run_round. The round is client-major:
// each client's events run in (time, kind) order, clients run chunk by chunk
// in parallel, and the energy is an exactly rounded sum. The suite pins
//  - per-client event order through outcomes (cancelled vs delivered), on a
//    hand-built fleet whose clients' events share one instant;
//  - the client-major round against the global-sort sweep it replaced (a
//    test-local copy), on every scenario at fleets of three chunks: every
//    result field, the post-round fleet and dynamics state must match, and
//    energy_wh must equal an independent exact sum of the sweep's drains;
//  - 100k-client static and churn rounds whose energy, makespan and
//    global-update bits are golden constants.

#include "fleet/event_sim.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <string>
#include <tuple>
#include <vector>

#include "../support/exact_sum_oracle.hpp"
#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "device/model_desc.hpp"
#include "fl/aggregate.hpp"
#include "fleet/dynamics.hpp"
#include "fleet/fleet.hpp"
#include "sched/bucketed.hpp"
#include "sched/minenergy.hpp"

namespace fedsched::fleet {
namespace {

using testing_support::exact_sum_oracle;

/// FNV-1a over the bit patterns of the update coordinates.
std::uint64_t bits_checksum(const std::vector<double>& v) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const double x : v) {
    h ^= std::bit_cast<std::uint64_t>(x);
    h *= 0x100000001b3ULL;
  }
  return h;
}

/// Five clients, one shard each (shard size 1), all available and plugged
/// at t = 0. Clients 0, 1 and 4 report at t = 4, client 2 at 5, client 3 at
/// 6. Client 1's availability window closes at 3.5 (mid-upload), client 3's
/// and client 4's at 4, and client 2's charger flips at 4.
FleetState shared_instant_fleet() {
  FleetState s;
  const std::size_t n = 5;
  s.device_model.assign(n, 0);
  s.network.assign(n, 0);
  s.speed_factor.assign(n, 1.0);
  s.base_s = {1.0, 1.5, 1.0, 1.0, 1.0};
  s.per_sample_s = {1.0, 0.5, 2.0, 3.0, 1.0};  // compute 2, 2, 3, 4, 2 s
  s.comm_s.assign(n, 2.0);                     // finish 4, 4, 5, 6, 4 s
  s.battery_soc.assign(n, 1.0);
  s.battery_capacity_wh.assign(n, 50.0);
  s.train_power_w = {180.0, 101.0, 396.0, 300.0, 250.0};
  s.comm_energy_wh = {0.3, 0.2, 0.1, 0.7, 0.4};
  s.temp_c.assign(n, 25.0);
  s.capacity_shards.assign(n, 4);
  s.alive.assign(n, 1);
  return s;
}

TEST(FleetEventOrder, SharedInstantResolvesEachClientInTimeKindOrder) {
  DynamicsConfig dc;
  dc.enabled = true;
  dc.diurnal = true;
  dc.day_period_s = 100.0;
  dc.day_fraction = 0.5;  // window [0, 50) shifted by the phase
  dc.charging = true;
  dc.charge_period_s = 100.0;
  dc.charge_fraction = 0.5;
  ClientDynamics dynamics(dc);
  // Phase p closes a client's window (or unplugs it) 50 - p s after t = 0.
  DynamicsSnapshot snap;
  snap.departed.assign(5, 0);
  snap.avail_phase = {0.0, 46.5, 0.0, 46.0, 46.0};
  snap.charge_phase = {0.0, 0.0, 46.0, 0.0, 0.0};
  dynamics.restore(snap);

  FleetSimConfig config;
  config.shard_size = 1;
  FleetSimulator sim(shared_instant_fleet(), config);
  const std::vector<std::size_t> plan = {1, 1, 1, 1, 1};
  const FleetRoundResult r = sim.run_round(plan, 0, nullptr, &dynamics);

  // 5 finishes, avail-offs of clients 1 (t = 3.5) and 3 (t = 4), client 2's
  // charge edge. Client 4's window closes at its report's own instant,
  // which is not inside its attempt, so it raises no event.
  EXPECT_EQ(r.events_processed, 8u);
  EXPECT_EQ(r.charge_edges, 1u);
  // Each client's events run in its own time order: client 1 is cancelled
  // mid-upload and client 3 mid-compute, before their reports; client 2's
  // charger flip cancels nothing; client 4 delivers.
  EXPECT_EQ(r.dropped_offline, 2u);
  EXPECT_EQ(r.completed, 3u);
  EXPECT_EQ(r.contributors, (std::vector<std::uint32_t>{0, 2, 4}));
  EXPECT_EQ(r.makespan_s, 5.0);

  // Client 1 is cancelled after its compute (2 s of 101 W) with its upload
  // under way, so it burns both; client 3 burns 4 s of 300 W, no upload.
  const double finish0 = 180.0 * 2.0 / 3600.0 + 0.3;
  const double cancel1 = 101.0 * 2.0 / 3600.0 + 0.2;
  const double finish2 = 396.0 * 3.0 / 3600.0 + 0.1;
  const double cancel3 = 300.0 * 4.0 / 3600.0;
  const double finish4 = 250.0 * 2.0 / 3600.0 + 0.4;
  EXPECT_EQ(r.energy_wh,
            exact_sum_oracle({finish0, cancel1, finish2, cancel3, finish4}));
}

// ---- reference: the global-sort sweep the client-major round replaced -----

std::uint64_t mix(std::uint64_t a, std::uint64_t b) {
  std::uint64_t s = a ^ (b + 0x9e3779b97f4a7c15ULL);
  return common::splitmix64(s);
}

double hash_to_unit(std::uint64_t h) {
  return static_cast<double>(h >> 11) * 0x1.0p-53;
}

constexpr std::uint64_t kDropoutTag = 0x66616c6c6f766572ULL;
constexpr std::uint64_t kJoinTag = 0x6a6f696e65727321ULL;

/// The sweep's own kinds, in its (time, kind, client) ranking.
enum SweepKind { kAvailOff, kLeave, kChargeEdge, kNetSwitch, kJoin, kFinish };

struct SweepEvent {
  double time_s;
  int kind;
  std::uint32_t client;
  bool operator<(const SweepEvent& o) const {
    return std::tie(time_s, kind, client) < std::tie(o.time_s, o.kind, o.client);
  }
};

struct SweepRound {
  FleetRoundResult result;     // energy_wh left at 0
  std::vector<double> drains;  // every battery drain, in sweep order
};

/// One round as a single list of every client's events — joins included, at
/// their own hashed instants — sorted once into (time, kind, client) order
/// and swept. Mutates `state` and `dynamics` as run_round does.
SweepRound global_sweep(FleetState& state, ClientDynamics* dynamics,
                        const FleetSimConfig& config,
                        const std::vector<std::size_t>& plan, std::size_t round) {
  const bool dyn = dynamics != nullptr && dynamics->enabled();
  if (dyn) dynamics->ensure_size(state.size());
  SweepRound out;
  FleetRoundResult& result = out.result;
  result.round = round;
  std::vector<SweepEvent> events;
  enum Phase : std::uint8_t { kIdle, kInflight, kDelivered };
  const std::size_t initial_n = state.size();
  std::vector<std::uint8_t> phase(initial_n, kIdle);
  std::vector<double> compute_s_of(initial_n, 0.0);
  std::vector<double> edges;
  double plan_span = 0.0;
  for (std::uint32_t j = 0; j < initial_n; ++j) {
    if (plan[j] == 0) continue;
    ++result.participants;
    if (!state.alive[j] || (dyn && !dynamics->schedulable(state, j))) {
      ++result.dropped_stale;
      continue;
    }
    const double compute_s =
        state.base_s[j] +
        state.per_sample_s[j] * static_cast<double>(plan[j] * config.shard_size);
    const double finish_s = compute_s + state.comm_s[j];
    events.push_back({finish_s, kFinish, j});
    plan_span = std::max(plan_span, finish_s);
    phase[j] = kInflight;
    compute_s_of[j] = compute_s;
    if (dyn) {
      const double off_s = dynamics->avail_off_within(j, finish_s);
      if (off_s < finish_s) events.push_back({off_s, kAvailOff, j});
      edges.clear();
      dynamics->charge_edges_within(j, finish_s, edges);
      for (const double e : edges) events.push_back({e, kChargeEdge, j});
    }
  }
  if (dyn) {
    const double span = plan_span > 0.0 ? plan_span : 1.0;
    std::size_t live = 0;
    std::vector<DynEvent> churn;
    for (std::size_t j = 0; j < initial_n; ++j) {
      if (state.alive[j] == 0 || dynamics->departed(j)) continue;
      ++live;
      dynamics->churn_events(round, j, span, churn);
    }
    for (const DynEvent& ev : churn) {
      events.push_back({ev.time_s, ev.kind == DynEvent::Kind::kLeave ? kLeave : kNetSwitch,
                        ev.client});
    }
    const std::size_t joins = dynamics->join_count(round, live);
    for (std::size_t i = 0; i < joins; ++i) {
      const double when = span * hash_to_unit(mix(
                                     mix(dynamics->config().seed ^ kJoinTag, round), i + 1));
      events.push_back({when, kJoin, static_cast<std::uint32_t>(i)});
    }
  }
  std::sort(events.begin(), events.end());

  const auto burn = [&](std::uint32_t j, double drain_wh) {
    out.drains.push_back(drain_wh);
    state.battery_soc[j] = std::max(
        0.0, state.battery_soc[j] - drain_wh / state.battery_capacity_wh[j]);
    if (state.battery_soc[j] <= config.battery_floor_soc) {
      state.alive[j] = 0;
      ++result.battery_deaths;
    }
    phase[j] = kIdle;
  };
  const auto cancel_inflight = [&](std::uint32_t j, double at_s) {
    burn(j, state.train_power_w[j] * std::min(at_s, compute_s_of[j]) / 3600.0 +
                (at_s > compute_s_of[j] ? state.comm_energy_wh[j] : 0.0));
    ++result.dropped_offline;
  };
  for (const SweepEvent& ev : events) {
    ++result.events_processed;
    const std::uint32_t j = ev.client;
    switch (ev.kind) {
      case kAvailOff:
        if (phase[j] == kInflight) cancel_inflight(j, ev.time_s);
        continue;
      case kLeave:
        dynamics->mark_departed(j);
        ++result.leaves;
        if (phase[j] == kInflight) cancel_inflight(j, ev.time_s);
        continue;
      case kChargeEdge:
        ++result.charge_edges;
        continue;
      case kNetSwitch:
        dynamics->apply_net_switch(state, j);
        ++result.net_switches;
        continue;
      case kJoin:
        dynamics->append_joins(state, 1);
        ++result.joins;
        continue;
      default:
        break;
    }
    if (phase[j] != kInflight) continue;
    const double compute_s = dyn ? compute_s_of[j] : ev.time_s - state.comm_s[j];
    burn(j, state.train_power_w[j] * compute_s / 3600.0 + state.comm_energy_wh[j]);
    if (hash_to_unit(mix(mix(config.seed ^ kDropoutTag, round), j)) < config.dropout_prob) {
      ++result.dropped_crash;
      continue;
    }
    if (ev.time_s > config.deadline_s) {
      ++result.dropped_deadline;
      continue;
    }
    phase[j] = kDelivered;
    ++result.completed;
    result.survivor_shards += plan[j];
    result.makespan_s = std::max(result.makespan_s, ev.time_s);
  }
  for (std::uint32_t j = 0; j < initial_n; ++j) {
    if (phase[j] == kDelivered) result.contributors.push_back(j);
  }
  const std::size_t dropped =
      result.dropped_crash + result.dropped_deadline + result.dropped_offline;
  if (dropped > 0 && std::isfinite(config.deadline_s)) result.makespan_s = config.deadline_s;
  if (!result.contributors.empty()) {
    std::vector<std::uint32_t> weights;
    for (const std::uint32_t c : result.contributors) {
      weights.push_back(static_cast<std::uint32_t>(plan[c]));
    }
    const std::uint64_t seed = config.seed;
    result.global_update = fl::tree_weighted_sum(
        result.contributors, weights, config.update_dim,
        [seed, round](std::uint32_t c, std::span<double> u) {
          synthetic_update(seed, round, c, u);
        },
        config.group_size);
    for (double& v : result.global_update) v /= static_cast<double>(result.survivor_shards);
  }
  if (dyn) result.revivals = dynamics->finish_round(state, result.makespan_s);
  return out;
}

void expect_same_round(const FleetRoundResult& got, const FleetRoundResult& want) {
  EXPECT_EQ(got.round, want.round);
  EXPECT_EQ(got.participants, want.participants);
  EXPECT_EQ(got.completed, want.completed);
  EXPECT_EQ(got.dropped_crash, want.dropped_crash);
  EXPECT_EQ(got.dropped_deadline, want.dropped_deadline);
  EXPECT_EQ(got.dropped_stale, want.dropped_stale);
  EXPECT_EQ(got.dropped_offline, want.dropped_offline);
  EXPECT_EQ(got.joins, want.joins);
  EXPECT_EQ(got.leaves, want.leaves);
  EXPECT_EQ(got.charge_edges, want.charge_edges);
  EXPECT_EQ(got.net_switches, want.net_switches);
  EXPECT_EQ(got.revivals, want.revivals);
  EXPECT_EQ(got.battery_deaths, want.battery_deaths);
  EXPECT_EQ(got.events_processed, want.events_processed);
  EXPECT_EQ(got.survivor_shards, want.survivor_shards);
  EXPECT_EQ(got.makespan_s, want.makespan_s);
  EXPECT_EQ(got.contributors, want.contributors);
  EXPECT_EQ(got.global_update, want.global_update);
}

void expect_same_state(const FleetState& got, const FleetState& want) {
  EXPECT_EQ(got.size(), want.size());
  EXPECT_EQ(got.battery_soc, want.battery_soc);
  EXPECT_EQ(got.alive, want.alive);
  EXPECT_EQ(got.network, want.network);
  EXPECT_EQ(got.comm_s, want.comm_s);
  EXPECT_EQ(got.comm_energy_wh, want.comm_energy_wh);
  EXPECT_EQ(got.base_s, want.base_s);
}

class FleetClientMajorRound : public ::testing::TestWithParam<std::string> {};

TEST_P(FleetClientMajorRound, MatchesGlobalSortSweep) {
  // Three chunks of the chunked passes, so chunk boundaries are crossed.
  const std::size_t n = 2 * common::kChunkGrain + 36'000;
  const std::string scenario = GetParam();
  FleetMix mix;
  mix.capacity_shards = 16;
  mix.lte_fraction = 0.3;
  const FleetGenerator generator(mix, device::lenet_desc(), 73);
  FleetState fleet = generator.generate(n);
  // Every 9th client starts just above the battery floor, so some die.
  for (std::size_t j = 0; j < n; j += 9) fleet.battery_soc[j] = 0.05005;
  ClientDynamics dynamics(scenario_config(scenario, 83), &generator);
  FleetSimConfig config;
  config.shard_size = 100;
  config.dropout_prob = 0.1;
  config.seed = 79;
  // A deadline just inside round 0's planned makespan drops a few reports.
  config.deadline_s =
      0.98 * sched::fed_lbap_bucketed(
                 dynamic_linear_costs(fleet, config.shard_size, dynamics), 2 * n, 64)
                 .makespan_seconds;
  FleetState oracle_state = fleet;
  ClientDynamics oracle_dynamics = dynamics;
  FleetSimulator sim(std::move(fleet), config);

  std::size_t deadline_drops = 0, deaths = 0;
  for (std::size_t round = 0; round < 2; ++round) {
    SCOPED_TRACE(scenario + " round " + std::to_string(round));
    const sched::LinearCosts costs =
        dynamic_linear_costs(sim.state(), config.shard_size, dynamics);
    const std::vector<std::size_t> plan =
        sched::fed_lbap_bucketed(costs, 2 * sim.state().size(), 64)
            .assignment.shards_per_user;
    const FleetRoundResult got = sim.run_round(plan, round, nullptr, &dynamics);
    const SweepRound want =
        global_sweep(oracle_state, &oracle_dynamics, config, plan, round);
    expect_same_round(got, want.result);
    EXPECT_EQ(got.energy_wh, exact_sum_oracle(want.drains));
    expect_same_state(sim.state(), oracle_state);
    const DynamicsSnapshot a = dynamics.snapshot();
    const DynamicsSnapshot b = oracle_dynamics.snapshot();
    EXPECT_EQ(a.now_s, b.now_s);
    EXPECT_EQ(a.departed, b.departed);
    EXPECT_EQ(a.avail_phase, b.avail_phase);
    EXPECT_GT(got.completed, 0u);
    deadline_drops += got.dropped_deadline;
    deaths += got.battery_deaths;
  }
  EXPECT_GT(deadline_drops, 0u);
  EXPECT_GT(deaths, 0u);
}

INSTANTIATE_TEST_SUITE_P(Scenarios, FleetClientMajorRound,
                         ::testing::ValuesIn(scenario_names()),
                         [](const ::testing::TestParamInfo<std::string>& info) {
                           std::string name = info.param;
                           std::replace(name.begin(), name.end(), '-', '_');
                           return name;
                         });

// ---- goldens ----------------------------------------------------------------

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

// Makespan, update and completion goldens date from the priority-queue
// round; energy goldens are the exactly rounded sums of the same drains,
// which each test re-derives from the global-sort sweep.
TEST(FleetEventOrder, StaticRoundGolden) {
  const FleetGenerator generator(FleetMix{}, device::lenet_desc(), 61);
  FleetSimulator sim(generator.generate(kClients), golden_config(61));
  FleetState sweep_state = sim.state();
  const sched::LinearCosts costs = linear_costs(sim.state(), 100);
  const std::vector<std::size_t> plan =
      sched::fed_lbap_bucketed(costs, 2 * kClients, 64).assignment.shards_per_user;
  const FleetRoundResult r = sim.run_round(plan, 0);
  expect_golden(r, {0x1.6a816601978a8p+7, 0x1.4893b274242eap+2, 0x5bcc57c09a9d1095ULL,
                    43632});
  EXPECT_EQ(r.energy_wh, exact_sum_oracle(
                             global_sweep(sweep_state, nullptr, golden_config(61), plan, 0)
                                 .drains));
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
  FleetState sweep_state = sim.state();
  ClientDynamics sweep_dynamics = dynamics;
  const FleetRoundResult r = sim.run_round(plan, 0, nullptr, &dynamics);
  EXPECT_GT(r.joins, 0u);
  EXPECT_GT(r.dropped_offline, 0u);
  expect_golden(r, {0x1.5312776a7f369p+7, 0x1.78f62f57e98d8p+2, 0xe2ace46f0f2371bbULL,
                    32984});
  EXPECT_EQ(r.energy_wh,
            exact_sum_oracle(
                global_sweep(sweep_state, &sweep_dynamics, golden_config(67), plan, 0)
                    .drains));
}

}  // namespace
}  // namespace fedsched::fleet
