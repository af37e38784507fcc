#include "fleet/event_sim.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "common/json.hpp"
#include "common/rng.hpp"
#include "fl/aggregate.hpp"

namespace fedsched::fleet {

namespace {

/// Stateless two-input mixer built on splitmix64.
std::uint64_t mix(std::uint64_t a, std::uint64_t b) noexcept {
  std::uint64_t s = a ^ (b + 0x9e3779b97f4a7c15ULL);
  return common::splitmix64(s);
}

// Domain tags keep the dropout stream independent of the update stream.
constexpr std::uint64_t kDropoutTag = 0x66616c6c6f766572ULL;
constexpr std::uint64_t kUpdateTag = 0x7570646174657321ULL;

double hash_to_unit(std::uint64_t h) noexcept {
  return static_cast<double>(h >> 11) * 0x1.0p-53;
}

}  // namespace

double synthetic_update_value(std::uint64_t seed, std::size_t round,
                              std::uint32_t client, std::size_t index) noexcept {
  const std::uint64_t h =
      mix(mix(mix(seed ^ kUpdateTag, round), client), index);
  // Top 17 bits -> signed grid point in [-2^16, 2^16), scaled by 2^-16:
  // every value is a multiple of 2^-16 with |v| <= 1, so weighted sums with
  // integer weights below ~2^36 are exact in double in any order.
  const std::int64_t q =
      static_cast<std::int64_t>(h >> 47) - (std::int64_t{1} << 16);
  return static_cast<double>(q) * 0x1.0p-16;
}

void synthetic_update(std::uint64_t seed, std::size_t round, std::uint32_t client,
                      std::span<double> out) noexcept {
  for (std::size_t i = 0; i < out.size(); ++i) {
    out[i] = synthetic_update_value(seed, round, client, i);
  }
}

FleetSimulator::FleetSimulator(FleetState state, FleetSimConfig config)
    : state_(std::move(state)), config_(config) {
  if (state_.size() == 0) throw std::invalid_argument("FleetSimulator: empty fleet");
  if (config_.shard_size == 0) {
    throw std::invalid_argument("FleetSimulator: zero shard size");
  }
  if (config_.update_dim == 0) {
    throw std::invalid_argument("FleetSimulator: zero update dim");
  }
  if (config_.group_size == 0) {
    throw std::invalid_argument("FleetSimulator: zero group size");
  }
  if (config_.parallelism != 1) {
    pool_ = std::make_unique<common::ThreadPool>(config_.parallelism);
  }
}

FleetRoundResult FleetSimulator::run_round(
    std::span<const std::size_t> shards_per_client, std::size_t round,
    obs::TraceWriter* trace, ClientDynamics* dynamics,
    obs::MetricsRegistry* metrics) {
  if (shards_per_client.size() != state_.size()) {
    throw std::invalid_argument("FleetSimulator::run_round: plan size mismatch");
  }
  const bool dyn = dynamics != nullptr && dynamics->enabled();
  if (dyn) dynamics->ensure_size(state_.size());

  FleetRoundResult result;
  result.round = round;

  // One list for finish and dynamics events. Handling an event never
  // schedules another, so the list is built in full, sorted once into
  // DynEvent's (time, kind, client) order and swept.
  using Kind = DynEvent::Kind;
  std::vector<DynEvent> events;

  // Per-client phase of the round's attempt (indexed by round-start id) and,
  // with dynamics, its compute span. Joins appended mid-round get ids >=
  // initial_n and never run this round.
  enum Phase : std::uint8_t { kIdle, kInflight, kDelivered };
  const std::size_t initial_n = state_.size();
  std::vector<std::uint8_t> phase(initial_n, kIdle);
  std::vector<double> compute_s_of(dyn ? initial_n : 0, 0.0);
  std::vector<double> edge_scratch;

  // Only plan participants get events; idle clients are never touched.
  double plan_span = 0.0;
  for (std::uint32_t j = 0; j < initial_n; ++j) {
    const std::size_t shards = shards_per_client[j];
    if (shards == 0) continue;
    ++result.participants;
    if (!state_.alive[j] || (dyn && !dynamics->schedulable(state_, j))) {
      // A stale plan may still target a dead (or, with dynamics, offline /
      // departed / unplugged) client; it never starts and burns nothing — a
      // planner no-op, not a round fault.
      ++result.dropped_stale;
      continue;
    }
    const double compute_s =
        state_.base_s[j] +
        state_.per_sample_s[j] *
            static_cast<double>(shards * config_.shard_size);
    const double finish_s = compute_s + state_.comm_s[j];
    events.push_back({finish_s, Kind::kFinish, j});
    plan_span = std::max(plan_span, finish_s);
    phase[j] = kInflight;
    if (dyn) {
      compute_s_of[j] = compute_s;
      const double off_s = dynamics->avail_off_within(j, finish_s);
      if (off_s < finish_s) events.push_back({off_s, Kind::kAvailOff, j});
      edge_scratch.clear();
      dynamics->charge_edges_within(j, finish_s, edge_scratch);
      for (double edge_s : edge_scratch) {
        events.push_back({edge_s, Kind::kChargeEdge, j});
      }
    }
  }
  if (dyn) {
    const std::vector<DynEvent> churn = dynamics->churn_events(state_, round, plan_span);
    events.insert(events.end(), churn.begin(), churn.end());
  }
  std::sort(events.begin(), events.end());

  // An attempt's drain burns the battery whether or not its report makes it
  // back. Battery death is permanent, but it gates *future* schedulability
  // only: a finished client's report is already delivered when the OS kills
  // the app, so it still counts toward this round (and may still crash or
  // miss the deadline). Only in-flight clients burn, so all are alive here.
  const auto burn = [&](std::uint32_t j, double drain_wh) {
    result.energy_wh += drain_wh;
    state_.battery_soc[j] = std::max(
        0.0, state_.battery_soc[j] - drain_wh / state_.battery_capacity_wh[j]);
    if (state_.battery_soc[j] <= config_.battery_floor_soc) {
      state_.alive[j] = 0;
      ++result.battery_deaths;
    }
    phase[j] = kIdle;
  };
  // Cancel an in-flight attempt at `at_s`: the compute burned so far drains
  // the battery, comm energy only if the upload already started.
  const auto cancel_inflight = [&](std::uint32_t j, double at_s) {
    burn(j, state_.train_power_w[j] * std::min(at_s, compute_s_of[j]) / 3600.0 +
                (at_s > compute_s_of[j] ? state_.comm_energy_wh[j] : 0.0));
    ++result.dropped_offline;
  };

  for (const DynEvent& ev : events) {
    ++result.events_processed;
    const std::uint32_t j = ev.client;
    switch (ev.kind) {
      case Kind::kAvailOff:
        if (phase[j] == kInflight) cancel_inflight(j, ev.time_s);
        continue;
      case Kind::kLeave:
        dynamics->mark_departed(j);
        ++result.leaves;
        if (j < initial_n && phase[j] == kInflight) cancel_inflight(j, ev.time_s);
        continue;
      case Kind::kChargeEdge:
        ++result.charge_edges;
        continue;
      case Kind::kNetSwitch:
        dynamics->apply_net_switch(state_, j);
        ++result.net_switches;
        continue;
      case Kind::kJoin:
        dynamics->append_join(state_);
        ++result.joins;
        continue;
      case Kind::kFinish:
        break;
    }

    if (phase[j] != kInflight) continue;  // cancelled before it finished
    // A mid-round net-switch mutates comm_s, so with dynamics the compute
    // span comes from the snapshot taken at admission (the exchange energy
    // uses the current row: the switch carried the actual bytes).
    const double compute_s =
        dyn ? compute_s_of[j] : ev.time_s - state_.comm_s[j];
    burn(j, state_.train_power_w[j] * compute_s / 3600.0 + state_.comm_energy_wh[j]);
    const double crash_draw =
        hash_to_unit(mix(mix(config_.seed ^ kDropoutTag, round), j));
    if (crash_draw < config_.dropout_prob) {
      ++result.dropped_crash;
      continue;
    }
    if (ev.time_s > config_.deadline_s) {
      ++result.dropped_deadline;
      continue;
    }
    phase[j] = kDelivered;
    ++result.completed;
    result.survivor_shards += shards_per_client[j];
    result.makespan_s = std::max(result.makespan_s, ev.time_s);
  }

  // Collected in client-id order, not finish order, so the tree partition is
  // a pure function of the survivor set.
  for (std::uint32_t j = 0; j < initial_n; ++j) {
    if (phase[j] == kDelivered) result.contributors.push_back(j);
  }

  const std::size_t dropped = result.dropped_crash + result.dropped_deadline +
                              result.dropped_offline;
  if (dropped > 0 && std::isfinite(config_.deadline_s)) {
    // With in-flight drops under a finite deadline the server holds the
    // round open until the deadline closes it — same semantics as the
    // testbed runners. An offline cancellation is an in-flight drop: the
    // server waited for that report until the deadline told it to stop.
    // Stale-plan no-ops never started, so the server is not waiting on them
    // and they do not pin the round open.
    result.makespan_s = config_.deadline_s;
  }

  if (!result.contributors.empty()) {
    std::vector<std::uint32_t> weights(result.contributors.size());
    for (std::size_t m = 0; m < result.contributors.size(); ++m) {
      weights[m] =
          static_cast<std::uint32_t>(shards_per_client[result.contributors[m]]);
    }
    const std::uint64_t seed = config_.seed;
    const auto update_into = [seed, round](std::uint32_t client,
                                           std::span<double> out) {
      synthetic_update(seed, round, client, out);
    };
    result.global_update = fl::tree_weighted_sum(
        result.contributors, weights, config_.update_dim, update_into,
        config_.group_size, pool_.get());
    const double total_weight = static_cast<double>(result.survivor_shards);
    for (double& v : result.global_update) v /= total_weight;
  }

  if (dyn) {
    // Close the round: integrate charging over the round span plus the
    // configured inter-round gap, revive charged-up dead clients, advance
    // the dynamics clock.
    result.revivals = dynamics->finish_round(state_, result.makespan_s);
    if (metrics != nullptr) {
      metrics->add("fleet.joins", result.joins);
      metrics->add("fleet.leaves", result.leaves);
      metrics->add("fleet.charge_edges", result.charge_edges);
      metrics->add("fleet.net_switches", result.net_switches);
    }
  }

  if (trace != nullptr && trace->enabled()) {
    common::JsonObject ev;
    ev.field("ev", "fleet_round")
        .field("round", round)
        .field("participants", result.participants)
        .field("completed", result.completed)
        .field("dropped_crash", result.dropped_crash)
        .field("dropped_deadline", result.dropped_deadline)
        .field("dropped_stale", result.dropped_stale)
        .field("battery_deaths", result.battery_deaths)
        .field("events", result.events_processed)
        .field("survivor_shards", result.survivor_shards)
        .field("makespan_s", result.makespan_s)
        .field("energy_wh", result.energy_wh);
    if (dyn) {
      // Dynamics fields only appear when the layer is enabled, keeping the
      // disabled trace byte-identical to pre-dynamics builds.
      ev.field("dropped_offline", result.dropped_offline)
          .field("joins", result.joins)
          .field("leaves", result.leaves)
          .field("charge_edges", result.charge_edges)
          .field("net_switches", result.net_switches)
          .field("revivals", result.revivals)
          .field("clock_s", dynamics->now_s());
    }
    trace->write(ev);
  }
  return result;
}

}  // namespace fedsched::fleet
