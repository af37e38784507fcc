// train-lenet: testbed 1 (three phones), LeNet on 6000 MNIST-like samples,
// Fed-LBAP shard assignment, three FedAvg rounds per run.
//
// Setup is coord::build_train_job (data generation, device profiles, the
// Fed-LBAP schedule, the partition). Every measured run replays the same
// three rounds from a fresh FedAvgRunner, so round_s has one sample per run.
//
// The model is LeNet rather than VGG6: with VGG6 every client lane forks its
// convolutions onto the shared global thread pool, so 3 lanes and 4 pool
// threads contend for 4 cores, and the round time of the same code swung
// between 1.1 and 4.0 s from run to run on a shared 4-vCPU host. LeNet's
// convolutions stay below the pool threshold and run inside their lane.

#include <algorithm>
#include <cmath>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "coord/train_job.hpp"
#include "data/synth.hpp"
#include "fl/aggregate.hpp"
#include "fl/parallel.hpp"
#include "fl/runner.hpp"
#include "fl/trainer.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

using namespace fedsched;

constexpr std::size_t kSamples = 6000;
constexpr std::size_t kRounds = 3;
constexpr std::size_t kSetupReps = 5;
constexpr std::size_t kProbeReps = 3;
constexpr std::size_t kAggregateReps = 10;
// Accuracy floor of the output check: twice chance on ten classes.
constexpr double kAccuracyFloor = 0.2;

coord::TrainRunSpec lenet_spec(const Options& opt) {
  coord::TrainRunSpec spec;
  spec.dataset = "mnist";
  spec.testbed = 1;
  spec.model = "LeNet";
  spec.samples = kSamples;
  spec.policy = "fed-lbap";
  spec.rounds = kRounds;
  spec.seed = opt.seed;
  spec.parallelism = opt.threads;
  return spec;
}

fl::RunResult run_once(const coord::TrainJob& job, const fl::FlConfig& config) {
  fl::FedAvgRunner runner(job.train, job.test, job.model_spec, job.desc, job.phones,
                          device::NetworkType::kWifi, config);
  return runner.run(job.partition);
}

bool same_run(const fl::RunResult& a, const fl::RunResult& b) {
  if (a.final_accuracy != b.final_accuracy || a.rounds.size() != b.rounds.size()) {
    return false;
  }
  for (std::size_t r = 0; r < a.rounds.size(); ++r) {
    if (a.rounds[r].mean_train_loss != b.rounds[r].mean_train_loss) return false;
  }
  return true;
}

}  // namespace

void run_train_lenet(const Options& opt, Tracer& tracer, Report& report) {
  const coord::TrainRunSpec spec = lenet_spec(opt);

  std::vector<double> setup_s;
  coord::TrainJob job;
  for (std::size_t i = 0; i < kSetupReps; ++i) {
    job = coord::TrainJob{};
    Tracer::Scope span(tracer, "coord.build_train_job", -1);
    job = coord::build_train_job(spec, nullptr);
    setup_s.push_back(span.stop());
  }
  const std::size_t clients = job.phones.size();

  // ---- measured loop: one FedAvg run (kRounds rounds) per sample ----------
  // The traced run traces every other run; the rest give the untraced
  // baseline for trace_overhead_frac.
  Tracer untraced(false);
  std::vector<double> run_s, traced_run_s;
  std::vector<fl::RunResult> results;
  const std::size_t min_runs = opt.traced ? 2 : 1;
  const double loop_start = tracer.now();
  while (another_fits(loop_start, tracer.now(), results.size(), min_runs, opt.seconds)) {
    const bool traced = opt.traced && results.size() % 2 == 0;
    Tracer::Scope span(traced ? tracer : untraced, "fl.run",
                       static_cast<std::int64_t>(results.size()));
    fl::RunResult result = run_once(job, job.config);
    (traced ? traced_run_s : run_s).push_back(span.stop());

    bool ok = result.rounds.size() == kRounds && std::isfinite(result.final_accuracy) &&
              result.final_accuracy > kAccuracyFloor;
    for (const fl::RoundRecord& r : result.rounds) {
      ok = ok && std::isfinite(r.mean_train_loss) &&
           r.completed_clients + r.dropped_clients == clients;
    }
    std::string what = "train run " + std::to_string(results.size()) +
                       ": wrong round count, non-finite loss, lost clients, or accuracy " +
                       std::to_string(result.final_accuracy) + " at or below " +
                       std::to_string(kAccuracyFloor);
    if (ok && !results.empty() && !same_run(result, results.front())) {
      ok = false;
      what = "train run " + std::to_string(results.size()) +
             " differs from run 0 (same seed)";
    }
    report.operation(ok, what);
    results.push_back(std::move(result));
  }

  std::vector<double> round_s;
  for (const double s : run_s) round_s.push_back(s / static_cast<double>(kRounds));
  const fl::RunResult& first = results.front();
  double makespan = 0.0, completed = 0.0, attempted = 0.0;
  for (const fl::RoundRecord& r : first.rounds) {
    makespan += r.round_seconds;
    completed += static_cast<double>(r.completed_clients);
    attempted += static_cast<double>(r.completed_clients + r.dropped_clients);
  }
  const double rounds = static_cast<double>(first.rounds.size());
  report.end_to_end_timing("setup_s", setup_s);
  report.end_to_end_timing("round_s", round_s);
  // Rounds run back to back, so the round rate is that of the median run.
  report.end_to_end("rounds_per_s", 1.0 / *median(round_s), "1/s", run_s.size());
  report.end_to_end("sim_makespan_s", makespan / rounds, "sim_s", first.rounds.size());
  report.end_to_end("sim_completed_frac", completed / attempted, "ratio",
                    first.rounds.size());
  if (!opt.traced) return;

  // ---- per-layer metrics (traced run) ------------------------------------
  report.layer("peak_rss_mb", peak_rss_mb(), "MB", 1);
  report.layer_timing("coord.build_train_job_s",
                      tracer.self_samples("coord.build_train_job"));
  const data::SynthConfig ds = data::mnist_like();
  std::vector<double> generate_s;
  for (std::size_t i = 0; i < kProbeReps; ++i) {
    // The two sets build_train_job generates: train, and a test third.
    Tracer::Scope span(tracer, "data.generate", -1);
    const data::Dataset train = data::generate_balanced(ds, kSamples, spec.seed);
    const data::Dataset test = data::generate_balanced(ds, kSamples / 3, spec.seed + 1);
    generate_s.push_back(span.stop());
    report.check(train.size() == kSamples && test.size() == kSamples / 3,
                 "data::generate_balanced returned the wrong sample count");
  }
  report.layer_timing("data.generate_s", generate_s);

  // Every client's local epoch, one after another on this thread: the work
  // the parallel runner spreads over its lanes.
  std::vector<double> client_s;
  std::vector<std::vector<float>> locals;
  {
    Tracer::Scope all(tracer, "fl.client_probe", 0);
    for (std::size_t u = 0; u < clients; ++u) {
      common::Rng init(spec.seed);
      nn::Model model = nn::build_model(job.model_spec, init);
      nn::Sgd sgd(job.config.sgd);
      common::Rng order(spec.seed + u);
      Tracer::Scope span(tracer, "fl.client_train", 0);
      const fl::EpochStats stats = fl::train_epoch(
          model, sgd, job.train, job.partition.user_indices[u], job.config.batch_size,
          order);
      client_s.push_back(span.stop());
      report.check(std::isfinite(stats.mean_loss), "client epoch loss is not finite");
      locals.push_back(model.flat_params());
    }
  }
  const double client_max = *std::max_element(client_s.begin(), client_s.end());
  double client_sum = 0.0;
  for (const double s : client_s) client_sum += s;

  // FedAvg aggregation over model-sized vectors, on the runner's lane count.
  std::vector<double> aggregate_s;
  {
    fl::ClientExecutor executor(job.model_spec, job.config.parallelism);
    std::vector<float> aggregate(locals.front().size());
    const std::vector<char> trained(clients, 1);
    const std::vector<std::size_t> shares = job.partition.sizes();
    std::size_t survivors = 0;
    for (const std::size_t s : shares) survivors += s;
    for (std::size_t i = 0; i < kAggregateReps; ++i) {
      Tracer::Scope span(tracer, "fl.aggregate", 0);
      fl::survivor_weighted_average(aggregate, locals, trained, shares, survivors,
                                    executor);
      aggregate_s.push_back(span.stop());
    }
  }

  // The same run on one lane: the observed serial/parallel ratio.
  fl::FlConfig serial = job.config;
  serial.parallelism = 1;
  Tracer::Scope serial_span(tracer, "fl.run_serial", 0);
  const fl::RunResult serial_result = run_once(job, serial);
  const double serial_s = serial_span.stop();
  report.check(same_run(serial_result, first),
               "serial run differs from the parallel run (same seed)");

  probe_model(job.model_spec, job.train, job.test, spec.seed, tracer, report);

  const double traced_round = *median(traced_run_s) / static_cast<double>(kRounds);
  const double aggregate = *median(aggregate_s);
  const double evaluate_per_round =
      report.layers().at("nn.evaluate_s").value / static_cast<double>(kRounds);
  report.layer("fl.client_train_s_max", client_max, "s", client_s.size());
  report.layer("fl.client_train_s_sum", client_sum, "s", client_s.size());
  report.layer("fl.parallel_bound", client_sum / client_max, "ratio", client_s.size());
  report.layer("fl.observed_speedup", serial_s / *median(traced_run_s), "ratio",
               traced_run_s.size());
  report.layer("fl.round_overhead_s", traced_round - client_max, "s",
               traced_run_s.size());
  report.layer_timing("fl.aggregate_s", aggregate_s);
  report.layer("fl.test_accuracy", first.final_accuracy, "ratio", 1);
  // A round's critical path as the probes see it: the slowest client, the
  // aggregation, and its share of the final evaluation.
  report.layer("unattributed_frac",
               1.0 - (client_max + aggregate + evaluate_per_round) / traced_round, "ratio",
               traced_run_s.size());
  report.layer("trace_overhead_frac", *median(traced_run_s) / *median(run_s) - 1.0,
               "ratio", traced_run_s.size() + run_s.size());
}

}  // namespace perfbench
