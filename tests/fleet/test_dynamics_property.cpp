// Property / fuzz suite for the client-dynamics layer (fleet/dynamics.hpp):
// half-open availability windows, charge flips matching the seeded cycle
// exactly, join ids never reused, bitwise snapshot/restore stability, the
// disabled-dynamics bit-identity contract against FleetSimulator, and the
// charge-revival regression (a revived client must get a fresh cost row at
// the next replan, not the stale zero-capacity mask from when it was dead).

#include "fleet/dynamics.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <sstream>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "device/model_desc.hpp"
#include "fleet/event_sim.hpp"
#include "sched/bucketed.hpp"

namespace fedsched::fleet {
namespace {

FleetGenerator make_generator(std::uint64_t seed) {
  FleetMix mix;
  mix.lte_fraction = 0.3;
  mix.capacity_shards = 16;
  return FleetGenerator(mix, device::lenet_desc(), seed);
}

/// One round of churn as the simulator applies it: every live client's
/// leave and net-switch draws (leaves take effect), then the joins sized
/// from the live count. Returns the drawn events.
std::vector<DynEvent> apply_churn(ClientDynamics& d, FleetState& s,
                                  std::size_t round, double span) {
  std::vector<DynEvent> events;
  std::size_t live = 0;
  for (std::size_t j = 0; j < s.size(); ++j) {
    if (s.alive[j] == 0 || d.departed(j)) continue;
    ++live;
    d.churn_events(round, j, span, events);
  }
  for (const DynEvent& ev : events) {
    if (ev.kind == DynEvent::Kind::kLeave) d.mark_departed(ev.client);
  }
  d.append_joins(s, d.join_count(round, live));
  return events;
}

std::vector<std::size_t> plan_for(const sched::LinearCosts& costs,
                                  std::size_t total_shards) {
  return sched::fed_lbap_bucketed(costs, total_shards, 64)
      .assignment.shards_per_user;
}

TEST(Dynamics, AvailabilityWindowsAreHalfOpenCycles) {
  DynamicsConfig config;
  config.enabled = true;
  config.diurnal = true;
  config.day_period_s = 1000.0;
  config.day_fraction = 0.25;
  config.seed = 7;
  ClientDynamics dyn(config);
  dyn.ensure_size(64);

  // With fraction 0.25 the period splits into four window-sized quarters and
  // exactly one of them is the on-window: for any probe time t, exactly one
  // of {t, t+w, t+2w, t+3w} is available. This pins both the window length
  // and non-overlap without sampling the measure-zero cycle boundaries.
  const double window = config.day_fraction * config.day_period_s;
  common::Rng probe_rng(123);
  for (std::size_t j = 0; j < 64; ++j) {
    ASSERT_GE(dyn.avail_phase(j), 0.0);
    ASSERT_LT(dyn.avail_phase(j), config.day_period_s);
    for (int trial = 0; trial < 16; ++trial) {
      const double t = probe_rng.uniform(0.0, 3.0 * config.day_period_s);
      int on = 0;
      for (int q = 0; q < 4; ++q) {
        if (dyn.available(j, t + q * window)) ++on;
      }
      EXPECT_EQ(on, 1) << "client " << j << " t " << t;
    }
  }
}

TEST(Dynamics, AvailOffWithinReportsTheClosingEdge) {
  DynamicsConfig config;
  config.enabled = true;
  config.diurnal = true;
  config.day_period_s = 100.0;
  config.day_fraction = 0.5;
  ClientDynamics dyn(config);
  dyn.ensure_size(32);

  for (std::size_t j = 0; j < 32; ++j) {
    if (!dyn.available(j, 0.0)) continue;  // contract assumes open at now
    const double edge = dyn.avail_off_within(j, 100.0);
    ASSERT_TRUE(std::isfinite(edge));
    EXPECT_GT(edge, 0.0);
    EXPECT_TRUE(dyn.available(j, edge - 1e-6));
    EXPECT_FALSE(dyn.available(j, edge));
    // A limit at or below the edge hides it.
    EXPECT_TRUE(std::isinf(dyn.avail_off_within(j, edge)));
  }
}

TEST(Dynamics, ChargeEdgesMatchTheSeededCycleExactly) {
  DynamicsConfig config;
  config.enabled = true;
  config.charging = true;
  config.charge_period_s = 400.0;
  config.charge_fraction = 0.3;
  config.seed = 99;
  ClientDynamics dyn(config);
  dyn.ensure_size(48);

  std::vector<double> edges;
  for (std::size_t j = 0; j < 48; ++j) {
    edges.clear();
    const double limit = 3.0 * config.charge_period_s;
    dyn.charge_edges_within(j, limit, edges);
    // Exactly two flips per period, ascending, each flipping plugged().
    EXPECT_EQ(edges.size(), 6u) << "client " << j;
    double prev = 0.0;
    for (const double edge : edges) {
      EXPECT_GT(edge, prev);
      EXPECT_LT(edge, limit);
      // The flip lies within floating-point accumulation error of the
      // reported edge, so sample just either side of it.
      EXPECT_NE(dyn.plugged(j, edge - 1e-6), dyn.plugged(j, edge + 1e-6))
          << "client " << j << " edge " << edge;
      // No flip strictly between consecutive edges.
      const double mid = (prev + edge) / 2.0;
      EXPECT_EQ(dyn.plugged(j, prev + 1e-6), dyn.plugged(j, mid));
      prev = edge;
    }
  }
}

TEST(Dynamics, PhasesDrawnOnlyWhenACycleReadsThem) {
  // Two chunks, reached through a reallocating second ensure_size.
  const std::size_t n = common::kChunkGrain + 20'000;
  DynamicsConfig both = scenario_config("diurnal", 5);
  both.charging = true;
  for (const DynamicsConfig& config :
       {scenario_config("diurnal", 3), scenario_config("charge-gated", 4), both}) {
    ClientDynamics dyn(config);
    dyn.ensure_size(1'001);
    dyn.ensure_size(n);
    const DynamicsSnapshot snap = dyn.snapshot();
    ASSERT_EQ(snap.avail_phase.size(), n);
    ASSERT_EQ(snap.charge_phase.size(), n);
    EXPECT_EQ(snap.departed, common::Column<std::uint8_t>(n, 0));
    // The documented draw order: [0] availability phase, [1] charge phase.
    const common::Rng root(config.seed);
    std::size_t differing = 0;
    for (std::size_t j = 0; j < n; ++j) {
      common::Rng rng = root.fork(j);
      differing += snap.avail_phase[j] != rng.uniform(0.0, config.day_period_s);
      differing += snap.charge_phase[j] != rng.uniform(0.0, config.charge_period_s);
    }
    EXPECT_EQ(differing, 0u) << "seed " << config.seed;
  }
  // Churn and net-flap read no phase: none is drawn.
  const FleetGenerator generator = make_generator(9);
  for (const char* scenario : {"churn", "net-flap"}) {
    ClientDynamics dyn(scenario_config(scenario, 9), &generator);
    dyn.ensure_size(1'001);
    dyn.ensure_size(n);
    const DynamicsSnapshot snap = dyn.snapshot();
    EXPECT_TRUE(snap.avail_phase.empty()) << scenario;
    EXPECT_TRUE(snap.charge_phase.empty()) << scenario;
    EXPECT_EQ(snap.departed, common::Column<std::uint8_t>(n, 0)) << scenario;
  }
}

TEST(Dynamics, JoinsNeverReuseALiveClientId) {
  const FleetGenerator generator = make_generator(21);
  DynamicsConfig config;
  config.enabled = true;
  config.join_fraction_per_round = 0.1;
  ClientDynamics dyn(config, &generator);

  FleetState state = generator.generate(100);
  std::uint32_t prev = 99;
  for (int i = 0; i < 25; ++i) {
    const std::uint32_t id = dyn.append_joins(state, 1);
    EXPECT_EQ(id, prev + 1) << "ids must append, never reuse";
    EXPECT_EQ(state.size(), static_cast<std::size_t>(id) + 1);
    prev = id;
  }
  EXPECT_EQ(dyn.append_joins(state, 0), 125u);  // no joins: nothing appended
  EXPECT_EQ(dyn.append_joins(state, 25), 125u);  // a batch appends in order
  EXPECT_EQ(state.size(), 150u);
  // Prefix stability: the joined clients are bitwise the ones a larger
  // initial generation would have produced.
  const FleetState direct = generator.generate(150);
  EXPECT_EQ(state.base_s, direct.base_s);
  EXPECT_EQ(state.battery_soc, direct.battery_soc);
  EXPECT_EQ(state.device_model, direct.device_model);
}

TEST(Dynamics, SnapshotRestoreIsBitwiseStable) {
  const FleetGenerator generator = make_generator(31);
  DynamicsConfig config = scenario_config("churn", 5);
  config.charging = true;
  config.charge_fraction = 0.4;
  config.diurnal = true;
  ClientDynamics dyn(config, &generator);

  FleetState state = generator.generate(500);
  dyn.ensure_size(state.size());
  // Advance through three rounds of churn + charging.
  for (std::size_t round = 0; round < 3; ++round) {
    apply_churn(dyn, state, round, 10.0);
    dyn.finish_round(state, 10.0);
  }

  const DynamicsSnapshot snap = dyn.snapshot();
  const FleetState state_snap = state;

  // Continue two more rounds, recording everything observable.
  const auto continue_run = [&](ClientDynamics& d, FleetState s) {
    std::ostringstream log;
    for (std::size_t round = 3; round < 5; ++round) {
      for (const DynEvent& ev : apply_churn(d, s, round, 10.0)) {
        log << static_cast<int>(ev.kind) << ':' << ev.client << ':'
            << ev.time_s << ';';
      }
      log << "n=" << s.size() << ';';
      log << "rev=" << d.finish_round(s, 10.0) << ";clock=" << d.now_s() << ';';
      for (const double soc : s.battery_soc) log << soc << ',';
    }
    return log.str();
  };
  const std::string first = continue_run(dyn, state);

  dyn.restore(snap);
  const std::string second = continue_run(dyn, state_snap);
  EXPECT_EQ(first, second);
}

TEST(Dynamics, DisabledLayerLeavesSimulatorBitIdentical) {
  const FleetGenerator generator = make_generator(41);
  FleetSimConfig config;
  config.shard_size = 20;
  config.dropout_prob = 0.1;
  config.seed = 43;

  const auto run = [&](bool pass_disabled_layer) {
    FleetSimulator sim(generator.generate(800), config);
    ClientDynamics dyn(DynamicsConfig{}, &generator);  // enabled == false
    std::ostringstream trace_bytes;
    obs::TraceWriter trace(trace_bytes);
    std::ostringstream log;
    for (std::size_t round = 0; round < 3; ++round) {
      const std::vector<std::size_t> plan =
          plan_for(linear_costs(sim.state(), config.shard_size), 1600);
      const FleetRoundResult r =
          pass_disabled_layer
              ? sim.run_round(plan, round, &trace, &dyn)
              : sim.run_round(plan, round, &trace);
      log << r.completed << ',' << r.dropped_crash << ',' << r.makespan_s
          << ',' << r.energy_wh << ',' << r.survivor_shards << ';';
      for (const double v : r.global_update) log << v << ',';
    }
    for (const double soc : sim.state().battery_soc) log << soc << ',';
    return std::make_pair(log.str(), trace_bytes.str());
  };

  const auto [without_results, without_trace] = run(false);
  const auto [with_results, with_trace] = run(true);
  EXPECT_EQ(without_results, with_results);
  EXPECT_EQ(without_trace, with_trace);
}

TEST(Dynamics, ScenarioPresetsAreNamedAndValid) {
  EXPECT_EQ(scenario_names().size(), 5u);
  for (const std::string& name : scenario_names()) {
    const DynamicsConfig config = scenario_config(name, 1);
    EXPECT_EQ(config.enabled, name != "static") << name;
  }
  EXPECT_THROW(scenario_config("nope", 1), std::invalid_argument);
}

TEST(Dynamics, ChurnEventsAreAPureFunctionOfSeedRoundClient) {
  const FleetGenerator generator = make_generator(51);
  DynamicsConfig config = scenario_config("churn", 77);
  config.net_switch_prob_per_round = 0.2;
  const FleetState state = generator.generate(400);

  ClientDynamics a(config, &generator);
  ClientDynamics b(config, &generator);
  a.ensure_size(state.size());
  b.ensure_size(state.size());
  std::size_t drawn = 0;
  for (std::size_t round = 0; round < 4; ++round) {
    EXPECT_EQ(a.join_count(round, 400), b.join_count(round, 400));
    // b visits the clients in reverse: no draw depends on visiting order.
    for (std::size_t k = 0; k < state.size(); ++k) {
      const std::size_t j = state.size() - 1 - k;
      std::vector<DynEvent> ea, eb;
      a.churn_events(round, j, 25.0, ea);
      b.churn_events(round, j, 25.0, eb);
      ASSERT_EQ(ea.size(), eb.size());
      ASSERT_LE(ea.size(), 2u);  // at most one leave and one net switch
      drawn += ea.size();
      for (std::size_t i = 0; i < ea.size(); ++i) {
        EXPECT_EQ(ea[i].time_s, eb[i].time_s);
        EXPECT_EQ(ea[i].kind, eb[i].kind);
        EXPECT_EQ(ea[i].client, j);
        EXPECT_GE(ea[i].time_s, 0.0);
        EXPECT_LT(ea[i].time_s, 25.0);
      }
    }
  }
  EXPECT_GT(drawn, 0u);
}

// ---- charge-revival regression ---------------------------------------------

/// Two hand-built clients: client 1 starts one compute-second above the
/// death floor, so its first attempt kills it. With charging enabled the
/// battery refills between rounds; the regression is that a revived client
/// must reappear in the *schedulable* cost mask at the next replan — a
/// cached mask would keep its stale zero-capacity row forever.
FleetState revival_fleet() {
  FleetState s;
  const std::size_t n = 2;
  s.device_model.assign(n, 0);
  s.network.assign(n, 0);
  s.speed_factor.assign(n, 1.0);
  s.base_s = {1.0, 1.0};
  s.per_sample_s = {0.01, 0.01};
  s.comm_s = {1.0, 1.0};
  s.battery_soc = {1.0, 0.07};  // client 1 hovers just above the 0.05 floor
  s.battery_capacity_wh = {10.0, 10.0};
  s.train_power_w = {3600.0, 3600.0};  // 1 Wh per compute-second
  s.comm_energy_wh = {0.1, 0.1};
  s.temp_c = {25.0, 25.0};
  s.capacity_shards = {100, 100};
  s.alive.assign(n, 1);
  return s;
}

TEST(Dynamics, ChargeRevivalGetsAFreshCostRowAtReplan) {
  DynamicsConfig dyn_config;
  dyn_config.enabled = true;
  dyn_config.charging = true;
  dyn_config.charge_period_s = 100.0;
  dyn_config.charge_fraction = 1.0;  // always plugged: deterministic refill
  dyn_config.charge_power_w = 3600.0;  // 1 Wh per simulated second
  dyn_config.round_gap_s = 600.0;      // enough to recharge well past revive
  ClientDynamics dyn(dyn_config);

  FleetSimConfig config;
  config.shard_size = 10;
  FleetSimulator sim(revival_fleet(), config);

  // Round 0: both clients work; client 1's battery crosses the floor, and
  // the inter-round charge (applied inside run_round's close-out) revives it
  // before the round returns.
  std::vector<std::size_t> plan = {10, 10};
  const FleetRoundResult r0 = sim.run_round(plan, 0, nullptr, &dyn);
  EXPECT_EQ(r0.battery_deaths, 1u);
  EXPECT_EQ(r0.revivals, 1u);
  EXPECT_EQ(sim.state().alive[1], 1);
  EXPECT_GE(sim.state().battery_soc[1],
            dyn_config.battery_floor_soc + dyn_config.revive_margin_soc);

  // The replanned mask must expose the revived client again with its full
  // capacity row — this is the regression: a mask cached from while it was
  // dead would still be zero.
  const sched::LinearCosts costs =
      dynamic_linear_costs(sim.state(), config.shard_size, dyn);
  EXPECT_EQ(costs.capacity(1), 100u);
  EXPECT_GT(costs.battery_budget_wh(1), 0.0);

  // And a replanned schedule actually assigns it work again (the two rows
  // are time-identical, so LBAP balances 10/10).
  const std::vector<std::size_t> replan = plan_for(costs, 20);
  EXPECT_GT(replan[1], 0u);

  // Pin the corrected second-round outcome: both clients contribute.
  const FleetRoundResult r1 = sim.run_round(replan, 1, nullptr, &dyn);
  EXPECT_EQ(r1.completed, 2u);
  EXPECT_EQ(r1.dropped_stale, 0u);
}

TEST(Dynamics, DeadUnrevivedClientStaysMasked) {
  // Without charging the dead client must stay masked out — capacity zero at
  // every subsequent replan.
  DynamicsConfig dyn_config;
  dyn_config.enabled = true;
  dyn_config.diurnal = false;
  ClientDynamics dyn(dyn_config);

  FleetSimConfig config;
  config.shard_size = 10;
  FleetSimulator sim(revival_fleet(), config);
  std::vector<std::size_t> plan = {10, 10};
  const FleetRoundResult r0 = sim.run_round(plan, 0, nullptr, &dyn);
  EXPECT_EQ(r0.battery_deaths, 1u);
  EXPECT_EQ(r0.revivals, 0u);
  EXPECT_EQ(sim.state().alive[1], 0);
  const sched::LinearCosts costs =
      dynamic_linear_costs(sim.state(), config.shard_size, dyn);
  EXPECT_EQ(costs.capacity(1), 0u);
}

}  // namespace
}  // namespace fedsched::fleet
