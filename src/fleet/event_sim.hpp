#pragma once
// Discrete-event round simulator for fleet-scale FL.
//
// A round sorts a list of (finish time, client) events once and sweeps it
// instead of stepping every client: only clients holding shards get an
// event, so a 1M-client fleet where the plan touches 100k clients costs
// O(participants log participants) — idle clients cost nothing. The sweep
// runs in (finish, client-id) order, which fixes the processing order (and
// the bits of the energy sum) independently of how the plan was produced.
//
// Faults mirror the testbed tier's kinds at fleet fidelity: a hashed
// per-(seed, round, client) dropout draw (crash), a round deadline, and
// battery death against a state-of-charge floor. Battery drain persists in
// FleetState across rounds; clients whose battery dies are marked not alive
// and drop out of future plans via fleet::linear_costs. Death gates *future*
// schedulability only: a client whose report was already delivered this
// round still contributes to the aggregate, and then leaves the fleet
// (`battery_deaths` counts the transition). A stale plan that still targets
// an already-dead client is a planner no-op — it never starts, burns
// nothing, and is tallied as `dropped_stale`, outside the deadline-hold
// rule, because the server already knows that client is gone.
//
// Aggregation reduces the survivors' synthetic updates with the two-level
// tree of fl::tree_weighted_sum, shard-count weighted. Updates are
// fixed-point: every coordinate is a multiple of 2^-16 with |v| < 1, drawn
// by a stateless splitmix64 hash of (seed, round, client, index), so all
// reduction orders are exact in double and the tree result is bit-identical
// to the flat left-to-right sum at every --parallel width
// (tests/fleet/test_fleet_sim.cpp).
//
// Client dynamics (fleet/dynamics.hpp) join the same sorted list as
// first-class events ranked *before* finish events at equal times:
// availability-edge and leave cancel in-flight work (partial energy burned,
// tallied as `dropped_offline`, which joins the deadline-hold rule),
// charge-edge flips are observational counts, net-switch swaps the client's
// network-cost row for future rounds, and join appends a new client through
// the generator's prefix-stable extend. With a null or disabled dynamics
// layer the sweep is exactly the one above — results and trace bytes are
// bit-identical to a build without dynamics (test_event_order.cpp).

#include <cstddef>
#include <cstdint>
#include <limits>
#include <memory>
#include <span>
#include <vector>

#include "common/thread_pool.hpp"
#include "fleet/dynamics.hpp"
#include "fleet/fleet.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace fedsched::fleet {

struct FleetSimConfig {
  std::size_t shard_size = 100;
  /// Round deadline in simulated seconds; infinity = wait for the straggler.
  double deadline_s = std::numeric_limits<double>::infinity();
  /// Per-(round, client) crash probability, drawn from a stateless hash.
  double dropout_prob = 0.0;
  /// State-of-charge floor below which the OS kills the training app.
  double battery_floor_soc = 0.05;
  /// Dimension of the synthetic client updates.
  std::size_t update_dim = 32;
  /// Tree-aggregation fan-in (clients per shard-group partial).
  std::size_t group_size = 1024;
  /// Aggregation worker threads: 1 = serial, 0 = hardware concurrency.
  std::size_t parallelism = 1;
  std::uint64_t seed = 0x5eedULL;
};

struct FleetRoundResult {
  std::size_t round = 0;
  std::size_t participants = 0;
  std::size_t completed = 0;
  std::size_t dropped_crash = 0;
  std::size_t dropped_deadline = 0;
  /// Plan entries targeting clients already dead — or, with dynamics, not
  /// schedulable — at round start (never ran).
  std::size_t dropped_stale = 0;
  /// In-flight clients cancelled mid-round by an availability-window closure
  /// or a churn departure (partial energy burned, no report delivered).
  std::size_t dropped_offline = 0;
  /// Dynamics tallies (all zero when the layer is null or disabled).
  std::size_t joins = 0;
  std::size_t leaves = 0;
  std::size_t charge_edges = 0;
  std::size_t net_switches = 0;
  /// Dead clients revived by end-of-round charging (see
  /// ClientDynamics::finish_round).
  std::size_t revivals = 0;
  /// Clients whose battery hit the floor during this round's attempt; they
  /// leave the schedulable fleet afterward (an already-delivered report
  /// still counts, so a death is not itself a drop).
  std::size_t battery_deaths = 0;
  std::size_t events_processed = 0;
  std::size_t survivor_shards = 0;
  double makespan_s = 0.0;
  double energy_wh = 0.0;
  /// Completed client ids, ascending (the tree-reduction member list).
  std::vector<std::uint32_t> contributors;
  /// Shard-weighted mean of the survivors' updates (empty if none survived).
  std::vector<double> global_update;
};

/// One coordinate of the synthetic update: a multiple of 2^-16 in [-1, 1),
/// a pure function of (seed, round, client, index).
[[nodiscard]] double synthetic_update_value(std::uint64_t seed, std::size_t round,
                                            std::uint32_t client,
                                            std::size_t index) noexcept;

/// Fill `out` with client's full update for the round.
void synthetic_update(std::uint64_t seed, std::size_t round, std::uint32_t client,
                      std::span<double> out) noexcept;

class FleetSimulator {
 public:
  /// Takes ownership of the state; battery/health mutate across rounds.
  FleetSimulator(FleetState state, FleetSimConfig config);

  [[nodiscard]] const FleetState& state() const noexcept { return state_; }
  [[nodiscard]] const FleetSimConfig& config() const noexcept { return config_; }

  /// Simulate one round of the given plan (shards_per_client[j] = shards
  /// assigned to client j; zero = idle). Emits a `fleet_round` trace event
  /// when given an enabled writer; trace bytes carry simulated quantities
  /// only and are byte-identical at any parallelism.
  ///
  /// `dynamics` (optional) merges churn / availability / charging / network
  /// events into the round (the fleet may grow via joins — replan from
  /// state().size() next round). Its trace fields and `fleet.*` metrics
  /// counters are only emitted when the layer is enabled, so a null or
  /// disabled layer leaves trace bytes unchanged. `metrics` (optional)
  /// accumulates fleet.joins|leaves|charge_edges|net_switches counters.
  FleetRoundResult run_round(std::span<const std::size_t> shards_per_client,
                             std::size_t round, obs::TraceWriter* trace = nullptr,
                             ClientDynamics* dynamics = nullptr,
                             obs::MetricsRegistry* metrics = nullptr);

 private:
  FleetState state_;
  FleetSimConfig config_;
  std::unique_ptr<common::ThreadPool> pool_;  // null when parallelism == 1
};

}  // namespace fedsched::fleet
