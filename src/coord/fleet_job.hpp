#pragma once
// Checkpointed round-at-a-time stepping for fleet-tier runs.
//
// A fleet run replans and simulates one round per step, exactly as
// `fedsched_cli fleet` does in its loop: linear_costs over the surviving
// fleet, a bucketed schedule (emitting its sched_* trace event), then
// FleetSimulator::run_round (emitting fleet_round). Between steps the run
// persists an FSF1 version 2 checkpoint, built on the same sealed-payload
// codec as the FSC1 run checkpoint. Its payload holds
//
//   rounds_completed
//   run identity: fleet_size, seed, mix, model
//   battery_soc (f64) and alive (u8), one entry per client — the only
//     columns a round mutates (9 bytes per client)
//   the per-round summaries
//   the captured trace prefix and its event count
//
// The other FleetState columns are not stored: FleetGenerator makes client
// j a pure function of (seed, j) for a given mix and model, so every step
// regenerates them from the identity and then restores the two mutable
// columns. A checkpoint whose identity or column length differs from the
// spec, and any FSF1 version 1 file, is rejected with std::runtime_error.
// A coordinator restart therefore resumes the run bit-identically, and the
// final trace file is byte-identical to the one-shot CLI run's (fleet
// generation is traced inside the first step with the same seed, so even
// the fleet_generate event matches).

#include <cstddef>
#include <string>
#include <vector>

#include "coord/registry.hpp"
#include "coord/spec.hpp"
#include "obs/trace.hpp"
#include "sched/linear_costs.hpp"
#include "sched/types.hpp"

namespace fedsched::coord {

/// What the coordinator reports per simulated fleet round.
struct FleetRoundSummary {
  std::size_t round = 0;
  std::size_t participants = 0;
  std::size_t completed = 0;
  std::size_t dropped_crash = 0;
  std::size_t dropped_deadline = 0;
  std::size_t dropped_stale = 0;
  std::size_t battery_deaths = 0;
  std::size_t survivor_shards = 0;
  double threshold_s = 0.0;  // the bucketed planner's bound for the round
  double makespan_s = 0.0;
  double energy_wh = 0.0;
};

/// Policy dispatch shared with `fedsched_cli fleet`: solve one round's plan
/// with the bucketed scheduler, returning the assignment and its bound.
struct FleetPlan {
  sched::Assignment assignment;
  double threshold_s = 0.0;
};
[[nodiscard]] FleetPlan plan_fleet_round(const std::string& policy,
                                         const sched::LinearCosts& costs,
                                         std::size_t total_shards,
                                         std::size_t buckets,
                                         obs::TraceWriter* trace);

struct FleetStepOutcome {
  std::size_t rounds_completed = 0;
  bool done = false;
  std::vector<FleetRoundSummary> summaries;  // every round's, once done
};

/// Run one round of `spec`. `completed_rounds` must match the checkpoint at
/// `ckpt_path` (0 = generate the fleet and start fresh). The trace file at
/// `trace_path` is rewritten each step from the captured prefix; the
/// checkpoint goes through write_file_atomic with `write_options` (the
/// registry's durable + chaos settings in the coordinator).
[[nodiscard]] FleetStepOutcome run_fleet_step(
    const FleetRunSpec& spec, const std::string& ckpt_path,
    const std::string& trace_path, std::size_t completed_rounds,
    const AtomicWriteOptions& write_options = {});

/// Summaries rendered as the coordinator's result.json document.
[[nodiscard]] std::string fleet_result_json(
    const FleetRunSpec& spec, const std::vector<FleetRoundSummary>& rounds);

}  // namespace fedsched::coord
