#include "coord/train_job.hpp"

#include <stdexcept>

#include "common/rng.hpp"
#include "core/experiment.hpp"
#include "data/synth.hpp"
#include "fl/checkpoint/checkpoint.hpp"
#include "sched/baselines.hpp"
#include "sched/fed_lbap.hpp"

namespace fedsched::coord {

namespace {

sched::Baseline baseline_of(const std::string& name) {
  if (name == "equal") return sched::Baseline::kEqual;
  if (name == "prop") return sched::Baseline::kProportional;
  if (name == "random") return sched::Baseline::kRandom;
  throw std::runtime_error("train job: unknown baseline policy '" + name + "'");
}

}  // namespace

TrainJob build_train_job(const TrainRunSpec& spec, obs::TraceWriter* trace) {
  TrainJob job;
  const data::SynthConfig ds_config =
      spec.dataset == "cifar" ? data::cifar_like() : data::mnist_like();
  job.phones = device::testbed(spec.testbed);
  const nn::Arch arch = spec.model == "VGG6" ? nn::Arch::kVgg6 : nn::Arch::kLeNet;
  job.desc = arch == nn::Arch::kLeNet ? device::lenet_desc() : device::vgg6_desc();

  job.train = data::generate_balanced(ds_config, spec.samples, spec.seed);
  job.test = data::generate_balanced(ds_config, spec.samples / 3, spec.seed + 1);

  // Schedule at full simulator scale, materialize proportionally. The RNG
  // stream order — baseline assignment first (when used), partition second —
  // is load-bearing: it matches `fedsched_cli train` draw for draw.
  job.users = core::build_profiles(job.phones, job.desc,
                                   device::NetworkType::kWifi, 60'000);
  common::Rng rng(spec.seed + 2);
  if (spec.policy == "fed-lbap") {
    job.assignment = sched::fed_lbap(job.users, 600, 100, trace).assignment;
  } else {
    job.assignment = sched::assign_baseline(baseline_of(spec.policy), job.users,
                                            600, 100, rng);
  }
  std::vector<double> weights;
  weights.reserve(job.assignment.shards_per_user.size());
  for (std::size_t k : job.assignment.shards_per_user) {
    weights.push_back(static_cast<double>(k));
  }
  job.partition = data::partition_with_sizes_iid(
      job.train, data::proportional_sizes(job.train.size(), weights), rng);

  job.config.rounds = spec.rounds;
  job.config.seed = spec.seed + 3;
  job.config.parallelism = spec.parallelism;
  job.config.evaluate_each_round = spec.evaluate_each_round;

  job.model_spec.arch = arch;
  job.model_spec.in_channels = ds_config.channels;
  job.model_spec.in_h = ds_config.height;
  job.model_spec.in_w = ds_config.width;
  return job;
}

TrainStepOutcome run_train_step(const TrainRunSpec& spec,
                                const std::string& ckpt_path,
                                const std::string& trace_path,
                                std::size_t completed_rounds,
                                const AtomicWriteOptions& write_options) {
  if (completed_rounds >= spec.rounds) {
    throw std::runtime_error("train job: run already complete");
  }

  // Torn recovery state: a crash between the checkpoint rename and the meta
  // write leaves the checkpoint one round ahead of `completed_rounds`. The
  // round is already durable, so replay it instead of re-simulating.
  bool final_replay = false;
  if (completed_rounds > 0) {
    const std::uint64_t have = fl::checkpoint::peek_rounds_completed(ckpt_path);
    if (have == completed_rounds + 1 && have < spec.rounds) {
      // Mid-run: the post-step trace file is exactly the schedule events the
      // job rebuild emits plus the checkpoint's captured prefix.
      const fl::checkpoint::RunState state =
          fl::checkpoint::load_checkpoint(ckpt_path);
      obs::TraceWriter trace = obs::TraceWriter::to_file(trace_path);
      (void)build_train_job(spec, &trace);  // re-emits the schedule events
      trace.write_raw(state.trace_prefix,
                      static_cast<std::size_t>(state.trace_events));
      trace.flush();
      TrainStepOutcome replayed;
      replayed.rounds_completed = static_cast<std::size_t>(have);
      replayed.done = false;
      return replayed;
    }
    final_replay = have == completed_rounds + 1;  // == spec.rounds
    if (!final_replay && have != completed_rounds) {
      throw std::runtime_error("train job: checkpoint round mismatch");
    }
  }

  // The trace file is rewritten from scratch every step: the job rebuild
  // re-emits the schedule event, and the runner replays the checkpointed
  // prefix before appending the new round — same mechanics as a CLI resume.
  obs::TraceWriter trace = obs::TraceWriter::to_file(trace_path);
  TrainJob job = build_train_job(spec, &trace);
  job.config.trace = &trace;
  job.config.checkpoint.path = ckpt_path + ".tmp";
  job.config.checkpoint.every_rounds = 1;
  const std::size_t next = completed_rounds + 1;
  job.config.checkpoint.halt_after_rounds =
      !final_replay && next < spec.rounds ? next : 0;
  if (completed_rounds > 0) job.config.checkpoint.resume_from = ckpt_path;

  if (final_replay) {
    // The final round's checkpoint is already durable; resuming from it runs
    // zero rounds and deterministically re-derives the tail the crash lost
    // (final evaluation + run_end trace event). No temp file is written, so
    // there is nothing to rename and no chaos write op to claim.
    fl::FedAvgRunner runner(job.train, job.test, job.model_spec, job.desc,
                            job.phones, device::NetworkType::kWifi, job.config);
    TrainStepOutcome out;
    out.result = runner.run(job.partition);
    out.done = true;
    out.rounds_completed = spec.rounds;
    return out;
  }

  // The runner itself writes the temp checkpoint during run(), so this step's
  // write op spans it: before-tmp fires before any byte exists, after-tmp
  // once the temp file is complete (and fsync'd under durable writes) but not
  // yet visible at ckpt_path. The step's checkpoint (halt or final-round
  // cadence save) then lands atomically.
  TrainStepOutcome out;
  replace_file_atomic(
      ckpt_path,
      [&](const std::string&) {
        fl::FedAvgRunner runner(job.train, job.test, job.model_spec, job.desc,
                                job.phones, device::NetworkType::kWifi, job.config);
        out.result = runner.run(job.partition);
      },
      write_options);
  out.done = !out.result.halted;
  out.rounds_completed = out.done ? spec.rounds : next;
  return out;
}

fl::RunResult run_train_oneshot(const TrainRunSpec& spec,
                                const std::string& ckpt_path,
                                const std::string& trace_path) {
  obs::TraceWriter trace = obs::TraceWriter::to_file(trace_path);
  TrainJob job = build_train_job(spec, &trace);
  job.config.trace = &trace;
  job.config.checkpoint.path = ckpt_path;
  job.config.checkpoint.every_rounds = 1;
  fl::FedAvgRunner runner(job.train, job.test, job.model_spec, job.desc,
                          job.phones, device::NetworkType::kWifi, job.config);
  return runner.run(job.partition);
}

std::string train_result_json(const TrainRunSpec& spec,
                              const fl::RunResult& result) {
  std::string rounds = "[";
  for (std::size_t i = 0; i < result.rounds.size(); ++i) {
    const fl::RoundRecord& r = result.rounds[i];
    common::JsonObject ro;
    ro.field("round", r.round)
        .field("round_seconds", r.round_seconds)
        .field("cumulative_seconds", r.cumulative_seconds)
        .field("mean_train_loss", r.mean_train_loss)
        .field("test_accuracy", r.test_accuracy)
        .field("completed_clients", r.completed_clients)
        .field("dropped_clients", r.dropped_clients);
    if (i > 0) rounds += ",";
    rounds += ro.str();
  }
  rounds += "]";
  common::JsonObject o;
  o.field("kind", "train")
      .field("rounds", result.rounds.size())
      .field("final_accuracy", result.final_accuracy)
      .field("total_seconds", result.total_seconds)
      .field("seed", spec.seed)
      .field_raw("round_records", rounds);
  return o.str();
}

}  // namespace fedsched::coord
