// Fleet-tier workloads: one million generated clients, planned and simulated
// round after round.
//
//   fleet-1m  default FleetMix, static scenario, fed_lbap_bucketed (B = 64)
//   fleet-dyn capacity-16 / 30%-LTE mix, churn scenario, fed_minenergy
//
// Both run 2 shards per client with a 0.1 dropout. An episode generates one
// fleet and plays kEpisodeRounds rounds on it. Episodes cycle through
// kFleets fleets derived from the workload seed: how much planning work a
// round takes depends on where the optimum falls inside a cost bucket, which
// differs from fleet to fleet, so one run averages over several. The first
// pass over the fleets always runs and gives the simulated metrics and the
// counts; later passes replay the same rounds and must reproduce them.

#include <optional>
#include <span>
#include <string>
#include <vector>

#include "common/thread_pool.hpp"
#include "device/model_desc.hpp"
#include "fl/aggregate.hpp"
#include "fleet/dynamics.hpp"
#include "fleet/event_sim.hpp"
#include "fleet/fleet.hpp"
#include "sched/bucketed.hpp"
#include "sched/minenergy.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

using namespace fedsched;

constexpr std::size_t kClients = 1'000'000;
constexpr std::size_t kShard = 100;
constexpr std::size_t kTotalShards = 2 * kClients;
constexpr double kDropout = 0.1;
constexpr double kBatteryFloor = 0.05;
constexpr std::size_t kEpisodeRounds = 2;
constexpr std::size_t kFleets = 8;
constexpr std::size_t kProbeReps = 3;
// The fedsched CLI derives the dynamics seed from the run seed with this salt.
constexpr std::uint64_t kDynamicsSalt = 0x64796e616d696373ULL;

struct FleetShape {
  fleet::FleetMix mix;
  const char* scenario = "static";
  bool minenergy = false;
  /// Buckets of the Fed-LBAP call the workload makes: the planner itself
  /// (fleet-1m) or fed_minenergy's internal makespan probe (fleet-dyn).
  std::size_t lbap_buckets = 64;
};

struct Plan {
  std::vector<std::size_t> shards;
  bool within_bound = true;  // makespan <= threshold (lbap) / time cap (minenergy)
  std::size_t minenergy_steps = 0;
  std::size_t relaxed = 0;
};

Plan plan_round(const FleetShape& shape, const sched::LinearCosts& costs) {
  Plan plan;
  if (shape.minenergy) {
    sched::MinEnergyResult r = sched::fed_minenergy(costs, kTotalShards);
    plan.shards = std::move(r.assignment.shards_per_user);
    plan.within_bound = r.relaxed_shards > 0 || r.makespan_seconds <= r.time_cap_s;
    plan.minenergy_steps = r.steps;
    plan.relaxed = r.relaxed_shards;
  } else {
    sched::BucketedLbapResult r =
        sched::fed_lbap_bucketed(costs, kTotalShards, shape.lbap_buckets);
    plan.shards = std::move(r.assignment.shards_per_user);
    plan.within_bound = r.makespan_seconds <= r.threshold_seconds;
  }
  return plan;
}

/// The simulated outcome of one round: what the metrics read and what a
/// replay of the round must reproduce exactly.
struct RoundSummary {
  std::size_t participants = 0;
  std::size_t completed = 0;
  std::size_t events = 0;
  std::size_t joins = 0;
  std::size_t leaves = 0;
  std::size_t dropped_offline = 0;
  std::size_t minenergy_steps = 0;
  std::size_t relaxed = 0;
  double makespan_s = 0.0;
  double energy_wh = 0.0;
  std::vector<double> global_update;

  bool operator==(const RoundSummary&) const = default;
};

struct RoundTimes {
  double cost_s = 0.0;
  double plan_s = 0.0;
  double run_s = 0.0;
  double round_s = 0.0;
  std::size_t events = 0;
  bool traced = false;
};

/// The work sched.search_est_s times: the threshold search re-enacted from
/// outside — `iters` total_budget probes plus one max_shards_within per
/// client at the chosen threshold. An estimate: the real search probes other
/// thresholds, and total_budget exits early. Returns the budgets' sum so the
/// calls cannot be optimized away.
std::size_t replay_search(const sched::LinearCosts& costs, std::size_t iters,
                          double threshold) {
  std::size_t sum = 0;
  for (std::size_t i = 0; i < iters; ++i) sum += costs.total_budget(threshold, kTotalShards);
  for (std::size_t j = 0; j < costs.users(); ++j) sum += costs.max_shards_within(j, threshold);
  return sum;
}

void run_fleet(const Options& opt, const FleetShape& shape, Tracer& tracer,
               Report& report) {
  const device::ModelDesc& model = device::lenet_desc();
  const auto fleet_seed = [&](std::size_t k) { return opt.seed * kFleets + k; };
  const auto dynamics_config = [&](std::uint64_t seed) {
    fleet::DynamicsConfig c = fleet::scenario_config(shape.scenario, seed ^ kDynamicsSalt);
    c.battery_floor_soc = kBatteryFloor;
    return c;
  };
  fleet::FleetSimConfig config;
  config.shard_size = kShard;
  config.dropout_prob = kDropout;
  config.battery_floor_soc = kBatteryFloor;
  config.parallelism = opt.threads;

  // ---- measured loop: episodes of kEpisodeRounds rounds ------------------
  // Set-up (fleet generation) is timed once per episode. In the traced run
  // every other round is traced, so the same run yields the untraced
  // medians that trace_overhead_frac compares against.
  Tracer untraced(false);
  std::vector<double> setup_s;
  std::vector<RoundTimes> times;
  std::vector<RoundSummary> first_pass;
  fleet::FleetRoundResult probe_round;  // fleet 0, round 0
  std::vector<std::size_t> probe_plan;
  const double loop_start = tracer.now();
  for (std::size_t episode = 0;
       another_fits(loop_start, tracer.now(), episode, kFleets, opt.seconds); ++episode) {
    const std::size_t k = episode % kFleets;
    config.seed = fleet_seed(k);
    std::optional<fleet::FleetGenerator> generator;
    fleet::FleetState state;
    {
      Tracer::Scope span(tracer, "fleet.generate", static_cast<std::int64_t>(k));
      generator.emplace(shape.mix, model, config.seed);
      state = generator->generate(kClients);
      setup_s.push_back(span.stop());
    }
    fleet::ClientDynamics dynamics(dynamics_config(config.seed), &*generator);
    fleet::FleetSimulator sim(std::move(state), config);
    for (std::size_t r = 0; r < kEpisodeRounds; ++r) {
      const bool traced = opt.traced && times.size() % 2 == 0;
      Tracer& t = traced ? tracer : untraced;
      const auto id = static_cast<std::int64_t>(r);
      RoundTimes rt;
      rt.traced = traced;
      Plan plan;
      fleet::FleetRoundResult res;
      {
        Tracer::Scope round_span(t, "fleet.round", id);
        Tracer::Scope cost_span(t, "fleet.cost_build", id);
        const sched::LinearCosts costs =
            dynamics.enabled()
                ? fleet::dynamic_linear_costs(sim.state(), kShard, dynamics,
                                              kBatteryFloor)
                : fleet::linear_costs(sim.state(), kShard, kBatteryFloor);
        rt.cost_s = cost_span.stop();
        Tracer::Scope plan_span(t, "sched.plan", id);
        plan = plan_round(shape, costs);
        rt.plan_s = plan_span.stop();
        Tracer::Scope run_span(t, "fleet.run_round", id);
        res = sim.run_round(plan.shards, r, nullptr,
                            dynamics.enabled() ? &dynamics : nullptr);
        rt.run_s = run_span.stop();
        rt.round_s = round_span.stop();
      }
      rt.events = res.events_processed;
      times.push_back(rt);

      // Output checks: invariants of any correct planner and simulator.
      std::size_t planned = 0;
      for (const std::size_t shards : plan.shards) planned += shards;
      const std::size_t accounted = res.completed + res.dropped_crash +
                                    res.dropped_deadline + res.dropped_stale +
                                    res.dropped_offline;
      bool ok = planned == kTotalShards && accounted == res.participants &&
                plan.within_bound && res.completed > 0;
      std::string what = "fleet " + std::to_string(k) + " round " + std::to_string(r) +
                         ": plan sums to " + std::to_string(planned) + ", " +
                         std::to_string(accounted) + " of " +
                         std::to_string(res.participants) +
                         " participants accounted, makespan within bound: " +
                         (plan.within_bound ? "yes" : "no");
      RoundSummary summary{res.participants, res.completed,  res.events_processed,
                           res.joins,        res.leaves,     res.dropped_offline,
                           plan.minenergy_steps, plan.relaxed, res.makespan_s,
                           res.energy_wh,    res.global_update};
      if (episode < kFleets) {
        first_pass.push_back(std::move(summary));
      } else if (!(summary == first_pass[k * kEpisodeRounds + r])) {
        ok = false;
        what = "fleet " + std::to_string(k) + " round " + std::to_string(r) +
               " replayed differently (same seed)";
      }
      report.operation(ok, what);
      if (episode == 0 && r == 0) {
        probe_round = std::move(res);
        probe_plan = std::move(plan.shards);
      }
    }
  }

  // ---- end-to-end metrics (from the untraced rounds) ---------------------
  std::vector<double> round_s;
  for (const RoundTimes& rt : times) {
    if (!rt.traced) round_s.push_back(rt.round_s);
  }
  const auto first_pass_mean = [&](auto field) {
    double sum = 0.0;
    for (const RoundSummary& s : first_pass) sum += static_cast<double>(field(s));
    return sum / static_cast<double>(first_pass.size());
  };
  const double participants =
      first_pass_mean([](const RoundSummary& s) { return s.participants; });
  const double completed = first_pass_mean([](const RoundSummary& s) { return s.completed; });
  const std::size_t n0 = first_pass.size();
  report.end_to_end_timing("setup_s", setup_s);
  report.end_to_end_timing("round_s", round_s);
  // Rounds run back to back, so the round rate is that of the median round.
  report.end_to_end("rounds_per_s", 1.0 / *median(round_s), "1/s", round_s.size());
  report.end_to_end("sim_makespan_s",
                    first_pass_mean([](const RoundSummary& s) { return s.makespan_s; }),
                    "sim_s", n0);
  report.end_to_end("sim_completed_frac", completed / participants, "ratio", n0);
  if (!opt.traced) return;

  // ---- per-layer metrics (traced run) ------------------------------------
  report.layer("peak_rss_mb", peak_rss_mb(), "MB", 1);
  // Layer times are the self times of the recorded spans.
  std::vector<double> traced_round_s, ns_per_event, unattributed;
  for (const RoundTimes& rt : times) {
    if (rt.traced) traced_round_s.push_back(rt.round_s);
  }
  const std::vector<double> run_s = tracer.self_samples("fleet.run_round");
  std::size_t traced_index = 0;
  for (const RoundTimes& rt : times) {
    if (!rt.traced) continue;
    ns_per_event.push_back(run_s.at(traced_index++) * 1e9 / static_cast<double>(rt.events));
  }
  const std::vector<double> round_self = tracer.self_samples("fleet.round");
  for (std::size_t i = 0; i < round_self.size(); ++i) {
    unattributed.push_back(round_self[i] / traced_round_s.at(i));
  }
  report.layer_timing("fleet.generate_s", tracer.self_samples("fleet.generate"));
  report.layer_timing("fleet.cost_build_s", tracer.self_samples("fleet.cost_build"));
  report.layer_timing("sched.plan_s", tracer.self_samples("sched.plan"));
  report.layer_timing("fleet.run_round_s", run_s);
  report.layer("fleet.ns_per_event", *median(ns_per_event), "ns", ns_per_event.size());
  report.layer("unattributed_frac", *median(unattributed), "ratio", unattributed.size());
  report.layer("trace_overhead_frac", *median(traced_round_s) / *median(round_s) - 1.0,
               "ratio", traced_round_s.size() + round_s.size());

  // Counts: per-round means over the first pass (they repeat for a seed).
  report.layer("fleet.events", first_pass_mean([](const RoundSummary& s) { return s.events; }),
               "count", n0);
  report.layer("fleet.participants", participants, "count", n0);
  report.layer("fleet.joins", first_pass_mean([](const RoundSummary& s) { return s.joins; }),
               "count", n0);
  report.layer("fleet.leaves", first_pass_mean([](const RoundSummary& s) { return s.leaves; }),
               "count", n0);
  report.layer("fleet.dropped_offline",
               first_pass_mean([](const RoundSummary& s) { return s.dropped_offline; }),
               "count", n0);
  report.layer("fleet.completed_frac", completed / participants, "ratio", n0);
  report.layer("fleet.energy_wh",
               first_pass_mean([](const RoundSummary& s) { return s.energy_wh; }), "Wh", n0);
  if (shape.minenergy) {
    report.layer("sched.minenergy_steps",
                 first_pass_mean([](const RoundSummary& s) { return s.minenergy_steps; }),
                 "count", n0);
    report.layer("sched.relaxed_shards",
                 first_pass_mean([](const RoundSummary& s) { return s.relaxed; }), "count",
                 n0);
  }

  // ---- probes on fleet 0 at round 0 --------------------------------------
  config.seed = fleet_seed(0);
  const fleet::FleetGenerator generator(shape.mix, model, config.seed);
  const fleet::FleetState state = generator.generate(kClients);

  // Fed-LBAP split into threshold search and surplus trim: fleet-1m's own
  // planner, fleet-dyn's fed_minenergy makespan probe.
  {
    fleet::ClientDynamics dynamics(dynamics_config(config.seed), &generator);
    const sched::LinearCosts costs =
        dynamics.enabled()
            ? fleet::dynamic_linear_costs(state, kShard, dynamics, kBatteryFloor)
            : fleet::linear_costs(state, kShard, kBatteryFloor);
    std::vector<double> lbap_s, search_s;
    sched::BucketedLbapResult lbap;
    for (std::size_t i = 0; i < kProbeReps; ++i) {
      Tracer::Scope span(tracer, "sched.lbap_probe", 0);
      lbap = sched::fed_lbap_bucketed(costs, kTotalShards, shape.lbap_buckets);
      lbap_s.push_back(span.stop());
      Tracer::Scope search(tracer, "sched.search_probe", 0);
      const std::size_t budget =
          replay_search(costs, lbap.search_iterations, lbap.threshold_seconds);
      search_s.push_back(search.stop());
      report.check(budget >= kTotalShards, "Fed-LBAP threshold cannot host the shards");
    }
    const double search = *median(search_s);
    report.layer("sched.search_iters", static_cast<double>(lbap.search_iterations),
                 "count", 1);
    report.layer("sched.trimmed_shards", static_cast<double>(lbap.trimmed_shards),
                 "count", 1);
    report.layer("sched.search_est_s", search, "s", search_s.size());
    report.layer("sched.trim_est_s", *median(lbap_s) - search, "s", lbap_s.size());
  }

  // Aggregation: the tree reduction over round 0's contributors, which
  // run_round already performed; its result must match the round's.
  {
    const auto& members = probe_round.contributors;
    std::vector<std::uint32_t> weights(members.size());
    for (std::size_t m = 0; m < members.size(); ++m) {
      weights[m] = static_cast<std::uint32_t>(probe_plan[members[m]]);
    }
    const std::uint64_t seed = config.seed;
    const fl::UpdateFn update = [seed](std::uint32_t client, std::span<double> out) {
      fleet::synthetic_update(seed, 0, client, out);
    };
    common::ThreadPool pool(opt.threads);
    std::vector<double> tree_s;
    std::vector<double> sum;
    for (std::size_t i = 0; i < kProbeReps; ++i) {
      Tracer::Scope span(tracer, "fl.tree_sum", 0);
      sum = fl::tree_weighted_sum(members, weights, config.update_dim, update,
                                  config.group_size, &pool);
      tree_s.push_back(span.stop());
    }
    for (double& v : sum) v /= static_cast<double>(probe_round.survivor_shards);
    report.check(sum == probe_round.global_update,
                 "fl::tree_weighted_sum over round 0's contributors differs from the "
                 "round's global update");
    report.layer_timing("fl.tree_sum_s", tree_s);
  }
}

}  // namespace

void run_fleet_1m(const Options& opt, Tracer& tracer, Report& report) {
  FleetShape shape;  // default FleetMix: capacity 64, 25% LTE
  shape.scenario = "static";
  shape.minenergy = false;
  shape.lbap_buckets = 64;
  run_fleet(opt, shape, tracer, report);
}

void run_fleet_dyn(const Options& opt, Tracer& tracer, Report& report) {
  FleetShape shape;
  shape.mix.capacity_shards = 16;
  shape.mix.lte_fraction = 0.3;
  shape.scenario = "churn";
  shape.minenergy = true;
  shape.lbap_buckets = sched::MinEnergyConfig{}.probe_buckets;
  run_fleet(opt, shape, tracer, report);
}

}  // namespace perfbench
