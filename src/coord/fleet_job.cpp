#include "coord/fleet_job.hpp"

#include <stdexcept>
#include <string_view>
#include <utility>

#include "device/model_desc.hpp"
#include "fl/checkpoint/codec.hpp"
#include "fleet/event_sim.hpp"
#include "fleet/fleet.hpp"
#include "sched/bucketed.hpp"

namespace fedsched::coord {

namespace fc = fl::checkpoint;

namespace {

constexpr std::uint32_t kFleetMagic = 0x46534631;  // "FSF1"
constexpr std::uint32_t kFleetVersion = 2;

/// An FSF1 v2 checkpoint as loaded: the two columns a round mutates, the
/// per-round summaries and the trace prefix. The run identity is checked
/// against the spec while loading and not kept.
struct FleetCheckpoint {
  std::size_t rounds_completed = 0;
  common::Column<double> battery_soc;
  common::Column<std::uint8_t> alive;
  std::vector<FleetRoundSummary> summaries;
  std::string trace_prefix;
  std::size_t trace_events = 0;
};

// Summaries travel as raw records (put_vec / get_vec), so the struct must
// have no padding.
static_assert(sizeof(FleetRoundSummary) ==
              8 * sizeof(std::size_t) + 3 * sizeof(double));

/// Persist the step's resume point: the run identity, `state`'s mutable
/// columns and `ckpt`'s summaries and trace prefix (its columns are unused).
void save_fleet_checkpoint(const FleetRunSpec& spec, const FleetCheckpoint& ckpt,
                           const fleet::FleetState& state, const std::string& path,
                           const AtomicWriteOptions& options) {
  fc::PayloadWriter out;
  out.put_u64(ckpt.rounds_completed);
  out.put_u64(spec.fleet_size);
  out.put_u64(spec.seed);
  out.put_bytes(spec.mix);
  out.put_bytes(spec.model);
  out.put_vec(state.battery_soc);
  out.put_vec(state.alive);

  out.put_vec(ckpt.summaries);
  out.put_u64(ckpt.trace_events);
  out.put_bytes(ckpt.trace_prefix);
  write_file_atomic(path, fc::seal(kFleetMagic, kFleetVersion, out.bytes()), options);
}

/// Load the checkpoint at `path` and check that it belongs to `spec`: the
/// same identity and one battery / alive entry per client.
FleetCheckpoint load_fleet_checkpoint(const std::string& path,
                                      const FleetRunSpec& spec) {
  const std::string context = "fleet checkpoint: " + path;
  const std::string file = fc::read_whole_file(path, "fleet checkpoint");
  const std::string_view body = fc::open(kFleetMagic, kFleetVersion, file, context,
                                         "fedsched fleet checkpoint");
  fc::PayloadReader payload(body, context);

  FleetCheckpoint ckpt;
  ckpt.rounds_completed = static_cast<std::size_t>(payload.get_u64());
  const auto expect = [&](bool same, const std::string& what) {
    if (!same) {
      throw std::runtime_error(context + ": belongs to a run with a different " +
                               what + " than the spec");
    }
  };
  expect(payload.get_u64() == spec.fleet_size, "fleet_size");
  expect(payload.get_u64() == spec.seed, "seed");
  expect(payload.get_bytes() == spec.mix, "mix");
  expect(payload.get_bytes() == spec.model, "model");
  ckpt.battery_soc = payload.get_vec<double, common::DefaultInitAllocator<double>>();
  ckpt.alive = payload.get_vec<std::uint8_t, common::DefaultInitAllocator<std::uint8_t>>();
  if (ckpt.battery_soc.size() != spec.fleet_size ||
      ckpt.alive.size() != spec.fleet_size) {
    throw std::runtime_error(context + ": column length does not match fleet_size " +
                             std::to_string(spec.fleet_size));
  }

  ckpt.summaries = payload.get_vec<FleetRoundSummary>();
  ckpt.trace_events = static_cast<std::size_t>(payload.get_u64());
  ckpt.trace_prefix = payload.get_bytes();
  payload.expect_exhausted();
  return ckpt;
}

FleetStepOutcome outcome(const FleetRunSpec& spec, FleetCheckpoint& ckpt) {
  FleetStepOutcome out;
  out.rounds_completed = ckpt.rounds_completed;
  out.done = ckpt.rounds_completed == spec.rounds;
  if (out.done) out.summaries = std::move(ckpt.summaries);
  return out;
}

}  // namespace

FleetPlan plan_fleet_round(const std::string& policy,
                           const sched::LinearCosts& costs,
                           std::size_t total_shards, std::size_t buckets,
                           obs::TraceWriter* trace) {
  FleetPlan plan;
  if (policy == "fed-lbap") {
    auto planned = sched::fed_lbap_bucketed(costs, total_shards, buckets, trace);
    plan.threshold_s = planned.threshold_seconds;
    plan.assignment = std::move(planned.assignment);
  } else if (policy == "fed-minavg") {
    auto planned = sched::fed_minavg_bucketed(costs, total_shards, buckets, trace);
    plan.threshold_s = planned.makespan_seconds;
    plan.assignment = std::move(planned.assignment);
  } else {
    throw std::runtime_error("fleet job: unknown policy '" + policy + "'");
  }
  return plan;
}

FleetStepOutcome run_fleet_step(const FleetRunSpec& spec,
                                const std::string& ckpt_path,
                                const std::string& trace_path,
                                std::size_t completed_rounds,
                                const AtomicWriteOptions& write_options) {
  if (completed_rounds >= spec.rounds) {
    throw std::runtime_error("fleet job: run already complete");
  }
  FleetCheckpoint ckpt;
  if (completed_rounds > 0) {
    ckpt = load_fleet_checkpoint(ckpt_path, spec);
    if (ckpt.rounds_completed != completed_rounds &&
        ckpt.rounds_completed != completed_rounds + 1) {
      throw std::runtime_error("fleet job: checkpoint round mismatch");
    }
  }
  obs::TraceWriter trace = obs::TraceWriter::to_file(trace_path);
  trace.enable_capture();
  trace.write_raw(ckpt.trace_prefix, ckpt.trace_events);
  if (ckpt.rounds_completed == completed_rounds + 1) {
    // Torn recovery state: a crash between the checkpoint rename and the
    // meta write lost the step's acknowledgement, but the checkpoint
    // already holds the completed round. Replay its trace and report the
    // step done instead of re-simulating (which would double-apply it).
    trace.flush();
    return outcome(spec, ckpt);
  }

  // The static columns are a pure function of (seed, mix, model, client
  // index), so every step regenerates them; only the first step traces the
  // fleet_generate event (later steps replay it with the prefix). Resumed
  // steps then restore the two columns the earlier rounds mutated.
  const device::ModelDesc& desc = spec.model == "VGG6" ? device::vgg6_desc()
                                                       : device::lenet_desc();
  const fleet::FleetMix mix =
      spec.mix.empty() ? fleet::FleetMix{} : fleet::parse_fleet_mix(spec.mix);
  fleet::FleetState state = fleet::FleetGenerator(mix, desc, spec.seed)
                                .generate(spec.fleet_size,
                                          completed_rounds == 0 ? &trace : nullptr);
  if (completed_rounds > 0) {
    state.battery_soc = std::move(ckpt.battery_soc);
    state.alive = std::move(ckpt.alive);
  }

  fleet::FleetSimConfig config;
  config.shard_size = spec.shard;
  config.deadline_s = spec.deadline_s;
  config.dropout_prob = spec.dropout;
  config.battery_floor_soc = spec.battery_floor;
  config.parallelism = spec.parallelism;
  config.seed = spec.seed;
  fleet::FleetSimulator sim(std::move(state), config);

  // Replan every round — battery deaths shrink the schedulable fleet — then
  // simulate it, exactly the `fedsched_cli fleet` loop body.
  const sched::LinearCosts costs = fleet::linear_costs(sim.state(), spec.shard);
  const FleetPlan plan = plan_fleet_round(spec.policy, costs,
                                          spec.effective_total_shards(),
                                          spec.buckets, &trace);
  const fleet::FleetRoundResult r =
      sim.run_round(plan.assignment.shards_per_user, completed_rounds, &trace);
  trace.flush();

  FleetRoundSummary summary;
  summary.round = r.round;
  summary.participants = r.participants;
  summary.completed = r.completed;
  summary.dropped_crash = r.dropped_crash;
  summary.dropped_deadline = r.dropped_deadline;
  summary.dropped_stale = r.dropped_stale;
  summary.battery_deaths = r.battery_deaths;
  summary.survivor_shards = r.survivor_shards;
  summary.threshold_s = plan.threshold_s;
  summary.makespan_s = r.makespan_s;
  summary.energy_wh = r.energy_wh;
  ckpt.summaries.push_back(summary);

  ckpt.rounds_completed = completed_rounds + 1;
  ckpt.trace_prefix = trace.captured();
  ckpt.trace_events = trace.captured_events();
  save_fleet_checkpoint(spec, ckpt, sim.state(), ckpt_path, write_options);
  return outcome(spec, ckpt);
}

std::string fleet_result_json(const FleetRunSpec& spec,
                              const std::vector<FleetRoundSummary>& rounds) {
  std::string arr = "[";
  for (std::size_t i = 0; i < rounds.size(); ++i) {
    const FleetRoundSummary& r = rounds[i];
    common::JsonObject ro;
    ro.field("round", r.round)
        .field("participants", r.participants)
        .field("completed", r.completed)
        .field("dropped_crash", r.dropped_crash)
        .field("dropped_deadline", r.dropped_deadline)
        .field("dropped_stale", r.dropped_stale)
        .field("battery_deaths", r.battery_deaths)
        .field("survivor_shards", r.survivor_shards)
        .field("threshold_s", r.threshold_s)
        .field("makespan_s", r.makespan_s)
        .field("energy_wh", r.energy_wh);
    if (i > 0) arr += ",";
    arr += ro.str();
  }
  arr += "]";
  common::JsonObject o;
  o.field("kind", "fleet")
      .field("fleet_size", spec.fleet_size)
      .field("rounds", rounds.size())
      .field("seed", spec.seed)
      .field_raw("round_records", arr);
  return o.str();
}

}  // namespace fedsched::coord
