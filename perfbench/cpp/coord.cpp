// coord-mixed: one Coordinator (2 workers, 2 concurrent rounds) drains a
// batch of ten 100k-client fleet runs (10 rounds each, dropout 0.1) and two
// LeNet/MNIST train runs (1200 samples, 5 rounds), all submitted at t0.
//
// The main thread polls every run through handle_frame status frames, as a
// client of the service would, and recovers step latencies from the polls.
// Each drain uses a fresh coordinator over a fresh registry root.

#include <fcntl.h>
#include <unistd.h>

#include <chrono>
#include <filesystem>
#include <map>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/json.hpp"
#include "coord/coordinator.hpp"
#include "coord/fleet_job.hpp"
#include "coord/registry.hpp"
#include "coord/train_job.hpp"
#include "coord/wire.hpp"
#include "device/model_desc.hpp"
#include "fleet/event_sim.hpp"
#include "fleet/fleet.hpp"
#include "sched/bucketed.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

using namespace fedsched;
namespace fs = std::filesystem;

constexpr std::size_t kFleetRuns = 10;
constexpr std::size_t kFleetRounds = 10;
constexpr std::size_t kFleetClients = 100'000;
constexpr double kFleetDropout = 0.1;
constexpr std::size_t kTrainRuns = 2;
constexpr std::size_t kTrainRounds = 5;
constexpr std::size_t kTrainSamples = 1200;
constexpr std::size_t kWorkers = 2;
constexpr auto kPollGap = std::chrono::microseconds(500);
constexpr double kDrainTimeout_s = 150.0;
constexpr std::size_t kProbeReps = 5;
constexpr std::size_t kSetupReps = 8;
constexpr std::size_t kSetupWarmups = 2;

std::vector<coord::RunSpec> queue_specs(std::uint64_t seed) {
  std::vector<coord::RunSpec> specs;
  for (std::size_t i = 0; i < kFleetRuns; ++i) {
    coord::RunSpec s;
    s.id = "fleet" + std::to_string(i);
    s.kind = coord::RunKind::kFleet;
    s.fleet.fleet_size = kFleetClients;
    s.fleet.buckets = 64;
    s.fleet.rounds = kFleetRounds;
    s.fleet.dropout = kFleetDropout;
    s.fleet.seed = seed * 1000 + i;
    specs.push_back(s);
  }
  for (std::size_t i = 0; i < kTrainRuns; ++i) {
    coord::RunSpec s;
    s.id = "train" + std::to_string(i);
    s.kind = coord::RunKind::kTrain;
    s.train.samples = kTrainSamples;
    s.train.rounds = kTrainRounds;
    s.train.seed = seed * 1000 + 500 + i;
    specs.push_back(s);
  }
  return specs;
}

/// A run driven step by step in this process through the same job entry
/// points the coordinator's workers call: the reference for its trace bytes.
struct Reference {
  std::string trace;
  std::size_t ckpt_bytes = 0;
  std::size_t trace_bytes_rewritten = 0;  // trace file size summed over steps
};

Reference reference_run(const coord::RunSpec& spec, const std::string& dir) {
  fs::create_directories(dir);
  const std::string ckpt = dir + "/ckpt";
  const std::string trace = dir + "/trace";
  Reference ref;
  std::size_t completed = 0;
  for (bool done = false; !done;) {
    if (spec.kind == coord::RunKind::kFleet) {
      const coord::FleetStepOutcome out =
          coord::run_fleet_step(spec.fleet, ckpt, trace, completed);
      completed = out.rounds_completed;
      done = out.done;
    } else {
      const coord::TrainStepOutcome out =
          coord::run_train_step(spec.train, ckpt, trace, completed);
      completed = out.rounds_completed;
      done = out.done;
    }
    ref.trace_bytes_rewritten += fs::file_size(trace);
  }
  ref.ckpt_bytes = fs::file_size(ckpt);
  ref.trace = coord::read_file(trace, "reference trace");
  fs::remove_all(dir);
  return ref;
}

struct Drain {
  double setup_s = 0.0;
  double drain_s = 0.0;
  std::size_t rounds = 0;
  std::vector<double> submit_s;
  std::vector<double> frame_s;
  std::vector<double> fleet_step_s;
  std::vector<double> train_step_s;
  std::vector<double> queue_wait_s;
  double step_busy_s = 0.0;
  std::map<std::string, std::string> results;  // id -> result document
  std::map<std::string, std::string> traces;   // id -> trace bytes (checked runs)
};

coord::CoordinatorConfig queue_config(const std::string& root) {
  coord::CoordinatorConfig config;
  config.root = root;
  config.workers = kWorkers;
  config.max_concurrent_rounds = kWorkers;
  return config;
}

void submit_all(coord::Coordinator& coordinator, const std::vector<coord::RunSpec>& specs,
                Tracer& t, std::int64_t round, std::vector<double>* submit_s) {
  for (const coord::RunSpec& spec : specs) {
    Tracer::Scope submit(t, "coord.submit", round);
    const coord::SubmitOutcome out = coordinator.submit(spec);
    const double s = submit.stop();
    if (submit_s != nullptr) submit_s->push_back(s);
    if (!out.accepted) throw std::runtime_error("submit rejected: " + out.error);
  }
}

/// setup_s alone: construct a coordinator and submit the queue, then shut it
/// down (the steps already dispatched finish, outside the timing).
double setup_only(const std::vector<coord::RunSpec>& specs, const std::string& root,
                  std::size_t index, Tracer& t) {
  double s = 0.0;
  {
    Tracer::Scope setup(t, "coord.setup", static_cast<std::int64_t>(index));
    coord::Coordinator coordinator(queue_config(root));
    submit_all(coordinator, specs, t, static_cast<std::int64_t>(index), nullptr);
    s = setup.stop();
  }
  fs::remove_all(root);
  return s;
}

Drain drain_queue(const std::vector<coord::RunSpec>& specs, const std::string& root,
                  std::size_t index, Tracer& t) {
  Drain d;
  const auto round = static_cast<std::int64_t>(index);
  {
    Tracer::Scope setup(t, "coord.setup", round);
    coord::Coordinator coordinator(queue_config(root));
    submit_all(coordinator, specs, t, round, &d.submit_s);
    d.setup_s = setup.stop();

    std::vector<std::string> frames;
    for (const coord::RunSpec& spec : specs) {
      common::JsonObject req;
      req.field("verb", "status").field("id", spec.id);
      frames.push_back(coord::encode_frame(req.str()));
    }
    std::vector<std::vector<Poll>> polls(specs.size());
    std::vector<std::string> status(specs.size());
    Tracer::Scope drain(t, "coord.drain", round);
    const double t0 = t.now();
    for (bool all_terminal = false; !all_terminal;) {
      all_terminal = true;
      for (std::size_t i = 0; i < specs.size(); ++i) {
        const double before = t.now();
        const std::string reply = coordinator.handle_frame(frames[i]);
        const double after = t.now();
        d.frame_s.push_back(after - before);
        const common::JsonValue v = common::json_parse(coord::decode_frame(reply));
        status[i] = v.get_string("status", "?");
        polls[i].push_back(Poll{0.5 * (before + after), status[i] == "running",
                                static_cast<std::size_t>(v.get_number("rounds_completed", 0))});
        all_terminal = all_terminal && (status[i] == "done" || status[i] == "failed");
      }
      if (t.now() - t0 > kDrainTimeout_s) {
        throw std::runtime_error("coordinator queue did not drain within " +
                                 std::to_string(kDrainTimeout_s) + " s");
      }
      if (!all_terminal) std::this_thread::sleep_for(kPollGap);
    }
    d.drain_s = t.now() - t0;

    for (std::size_t i = 0; i < specs.size(); ++i) {
      const coord::RunSpec& spec = specs[i];
      const StepTimeline timeline = extract_steps(polls[i]);
      const bool is_fleet = spec.kind == coord::RunKind::kFleet;
      for (const StepInterval& step : timeline.steps) {
        const double s = step.end_s - step.start_s;
        (is_fleet ? d.fleet_step_s : d.train_step_s).push_back(s);
        d.step_busy_s += s;
        t.add(is_fleet ? "coord.fleet_step" : "coord.train_step", step.start_s,
              step.end_s, static_cast<std::int64_t>(step.round));
      }
      d.queue_wait_s.insert(d.queue_wait_s.end(), timeline.queue_waits_s.begin(),
                            timeline.queue_waits_s.end());
      if (status[i] != "done") continue;
      d.rounds += spec.total_rounds();
      d.results[spec.id] = coordinator.result_document(spec.id);
      if (spec.id == "fleet0" || spec.id == "train0") {
        d.traces[spec.id] = coordinator.trace_bytes(spec.id);
      }
    }
  }
  fs::remove_all(root);
  return d;
}

/// coord.fleet_inproc_s: fleet0's first round run directly in this process —
/// cost build, plan and run_round on one thread, as a worker step runs them.
std::vector<double> fleet_inproc(const coord::FleetRunSpec& spec, Tracer& tracer) {
  const fleet::FleetGenerator generator(fleet::FleetMix{}, device::lenet_desc(),
                                        spec.seed);
  const fleet::FleetState state = generator.generate(spec.fleet_size);
  fleet::FleetSimConfig config;
  config.shard_size = spec.shard;
  config.dropout_prob = spec.dropout;
  config.battery_floor_soc = spec.battery_floor;
  config.seed = spec.seed;
  std::vector<double> out;
  for (std::size_t i = 0; i < kProbeReps; ++i) {
    fleet::FleetSimulator sim(state, config);
    Tracer::Scope span(tracer, "coord.fleet_inproc", 0);
    const sched::LinearCosts costs =
        fleet::linear_costs(sim.state(), spec.shard, spec.battery_floor);
    const sched::BucketedLbapResult plan = sched::fed_lbap_bucketed(
        costs, spec.effective_total_shards(), spec.buckets);
    (void)sim.run_round(plan.assignment.shards_per_user, 0);
    out.push_back(span.stop());
  }
  return out;
}

/// (mean makespan, completed / participants) over every fleet run's rounds.
std::pair<double, double> fleet_outcomes(const Drain& d) {
  double makespan = 0.0, rounds = 0.0, completed = 0.0, participants = 0.0;
  for (const auto& [id, doc] : d.results) {
    const common::JsonValue v = common::json_parse(doc);
    if (v.get_string("kind", "") != "fleet") continue;
    for (const common::JsonValue& r : v.find("round_records")->as_array()) {
      makespan += r.get_number("makespan_s", 0.0);
      completed += r.get_number("completed", 0.0);
      participants += r.get_number("participants", 0.0);
      rounds += 1.0;
    }
  }
  return {makespan / rounds, completed / participants};
}

}  // namespace

void run_coord_mixed(const Options& opt, Tracer& tracer, Report& report) {
  const std::vector<coord::RunSpec> specs = queue_specs(opt.seed);
  const coord::RunSpec& fleet0 = specs.front();
  const coord::RunSpec& train0 = specs[kFleetRuns];
  Tracer untraced(false);

  // Set-up alone, first: before any checkpoint traffic of this process, after
  // flushing what earlier processes left to write back (which otherwise makes
  // the registry's file writes several times slower in some runs), and after
  // two untimed set-ups that warm the allocator and directory caches.
  if (const int fd = ::open(opt.work_dir.c_str(), O_RDONLY | O_DIRECTORY); fd >= 0) {
    ::syncfs(fd);
    ::close(fd);
  }
  for (std::size_t i = 0; i < kSetupWarmups; ++i) {
    (void)setup_only(specs, opt.work_dir + "/warmup" + std::to_string(i), i, untraced);
  }
  std::vector<double> setup_s;
  for (std::size_t i = 0; i < kSetupReps; ++i) {
    setup_s.push_back(
        setup_only(specs, opt.work_dir + "/setup" + std::to_string(i), i, tracer));
  }

  // Reference runs, outside the measured drains.
  std::map<std::string, Reference> refs;
  refs["fleet0"] = reference_run(fleet0, opt.work_dir + "/ref-fleet0");
  refs["train0"] = reference_run(train0, opt.work_dir + "/ref-train0");

  // ---- measured drains -----------------------------------------------------
  // The traced run traces every other drain; the rest are its untraced
  // baseline for trace_overhead_frac.
  std::vector<Drain> drains;
  std::vector<bool> traced_drain;
  const std::size_t min_drains = opt.traced ? 2 : 1;
  const double loop_start = tracer.now();
  while (another_fits(loop_start, tracer.now(), drains.size(), min_drains, opt.seconds)) {
    const bool traced = opt.traced && drains.size() % 2 == 0;
    const std::size_t index = drains.size();
    Drain d = drain_queue(specs, opt.work_dir + "/root" + std::to_string(index), index,
                          traced ? tracer : untraced);
    for (const coord::RunSpec& spec : specs) {
      const auto it = d.results.find(spec.id);
      bool ok = it != d.results.end();
      std::string what = "run " + spec.id + " of drain " + std::to_string(index) +
                         " did not reach done";
      if (ok && !drains.empty() && it->second != drains.front().results.at(spec.id)) {
        ok = false;
        what = "run " + spec.id + " of drain " + std::to_string(index) +
               " has a different result than in drain 0 (same spec)";
      }
      const auto trace = d.traces.find(spec.id);
      if (ok && trace != d.traces.end() && trace->second != refs.at(spec.id).trace) {
        ok = false;
        what = "run " + spec.id + " trace bytes differ from the in-process reference";
      }
      report.operation(ok, what);
    }
    drains.push_back(std::move(d));
    traced_drain.push_back(traced);
  }

  std::vector<double> fleet_step_s, train_step_s, frame_s, submit_s, queue_s;
  std::vector<double> traced_step_s, untraced_step_s;
  double drain_total = 0.0, busy = 0.0;
  std::size_t rounds = 0;
  for (std::size_t i = 0; i < drains.size(); ++i) {
    const Drain& d = drains[i];
    setup_s.push_back(d.setup_s);
    fleet_step_s.insert(fleet_step_s.end(), d.fleet_step_s.begin(), d.fleet_step_s.end());
    train_step_s.insert(train_step_s.end(), d.train_step_s.begin(), d.train_step_s.end());
    frame_s.insert(frame_s.end(), d.frame_s.begin(), d.frame_s.end());
    submit_s.insert(submit_s.end(), d.submit_s.begin(), d.submit_s.end());
    queue_s.insert(queue_s.end(), d.queue_wait_s.begin(), d.queue_wait_s.end());
    auto& by_mode = traced_drain[i] ? traced_step_s : untraced_step_s;
    by_mode.insert(by_mode.end(), d.fleet_step_s.begin(), d.fleet_step_s.end());
    drain_total += d.drain_s;
    busy += d.step_busy_s;
    rounds += d.rounds;
  }
  report.check(!fleet_step_s.empty() && !train_step_s.empty(),
               "the polls saw no fleet or no train step");
  if (fleet_step_s.empty() || train_step_s.empty()) return;
  const auto [makespan, completed_frac] = fleet_outcomes(drains.front());
  report.end_to_end_timing("setup_s", setup_s);
  report.end_to_end_timing("round_s", fleet_step_s);
  report.end_to_end("rounds_per_s", static_cast<double>(rounds) / drain_total, "1/s",
                    drains.size());
  report.end_to_end("sim_makespan_s", makespan, "sim_s", kFleetRuns * kFleetRounds);
  report.end_to_end("sim_completed_frac", completed_frac, "ratio",
                    kFleetRuns * kFleetRounds);
  if (!opt.traced) return;

  // ---- per-layer metrics (traced run) ------------------------------------
  // Peak RSS is per layer here: it depends on which of the two workers' steps
  // overlap and what their malloc arenas retain, which varies run to run.
  report.layer("peak_rss_mb", peak_rss_mb(), "MB", 1);
  const double busy_frac = busy / (static_cast<double>(kWorkers) * drain_total);
  const auto p90 = percentile(fleet_step_s, 0.9);
  const auto p99 = percentile(frame_s, 0.99);
  report.check(p90.has_value() && p99.has_value(),
               "too few fleet steps or polls for the p90 / p99 latencies");
  report.layer("coord.fleet_step_s_p90", p90.value_or(0.0), "s", fleet_step_s.size());
  report.layer_timing("coord.train_step_s_p50", train_step_s);
  report.layer_timing("coord.submit_s_p50", submit_s);
  report.layer_timing("coord.queue_wait_s_p50", queue_s);
  report.layer_timing("coord.frame_s_p50", frame_s);
  report.layer("coord.frame_s_p99", p99.value_or(0.0), "s", frame_s.size());
  report.layer("coord.worker_busy_frac", busy_frac, "ratio", drains.size());
  report.layer("unattributed_frac", 1.0 - busy_frac, "ratio", drains.size());
  report.layer("trace_overhead_frac",
               *median(traced_step_s) / *median(untraced_step_s) - 1.0, "ratio",
               traced_step_s.size() + untraced_step_s.size());
  report.layer("coord.ckpt_bytes_fleet", static_cast<double>(refs["fleet0"].ckpt_bytes),
               "bytes", 1);
  report.layer("coord.ckpt_bytes_train", static_cast<double>(refs["train0"].ckpt_bytes),
               "bytes", 1);
  report.layer("coord.trace_bytes_rewritten",
               static_cast<double>(refs["fleet0"].trace_bytes_rewritten +
                                   refs["train0"].trace_bytes_rewritten),
               "bytes", kFleetRounds + kTrainRounds);

  const std::vector<double> inproc = fleet_inproc(fleet0.fleet, tracer);
  report.layer_timing("coord.fleet_inproc_s", inproc);
  report.layer("coord.step_over_inproc", *median(fleet_step_s) / *median(inproc), "ratio",
               fleet_step_s.size());

  // Checkpoint I/O on a buffer the size of one fleet checkpoint.
  {
    const std::string path = opt.work_dir + "/probe.ckpt";
    const std::string bytes(refs["fleet0"].ckpt_bytes, '\x5a');
    std::vector<double> write_s, read_s;
    for (std::size_t i = 0; i < kProbeReps; ++i) {
      Tracer::Scope w(tracer, "coord.ckpt_write", 0);
      coord::write_file_atomic(path, bytes);
      write_s.push_back(w.stop());
      Tracer::Scope r(tracer, "coord.ckpt_read", 0);
      const std::string back = coord::read_file(path, "probe checkpoint");
      read_s.push_back(r.stop());
      report.check(back.size() == bytes.size(), "checkpoint probe read a short file");
    }
    fs::remove(path);
    report.layer_timing("coord.ckpt_write_s", write_s);
    report.layer_timing("coord.ckpt_read_s", read_s);
  }
}

}  // namespace perfbench
