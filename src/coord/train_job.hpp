#pragma once
// Shared construction + checkpointed stepping for testbed FedAvg runs.
//
// build_train_job() is the single place the deterministic core of a train
// run is assembled — datasets, device profiles, the full-scale schedule
// (emitting its sched trace event), the proportional data partition, and the
// base FlConfig. `fedsched_cli train` and the coordinator both call it, so a
// coordinator-submitted run is byte-identical to the one-shot CLI run *by
// construction*, not by parallel maintenance of two copies of the same
// seed-sensitive recipe (the RNG stream order — baseline assignment, then
// partition — is part of the trace contract).
//
// run_train_step() executes exactly one round via the runner's
// checkpoint/halt machinery: every step saves a checkpoint (cadence 1), so
// the interleaving coordinator can park the run after any round and a
// coordinator restart resumes it bit-identically. The matching one-shot CLI
// invocation is `fedsched_cli train ... --checkpoint-out X
// --checkpoint-every 1` (the `checkpoint` trace event is part of the stream,
// so byte-identical traces require the same cadence).

#include <cstddef>
#include <string>
#include <vector>

#include "coord/registry.hpp"
#include "coord/spec.hpp"
#include "data/dataset.hpp"
#include "data/partition.hpp"
#include "device/model_desc.hpp"
#include "device/spec.hpp"
#include "fl/runner.hpp"
#include "nn/models.hpp"
#include "obs/trace.hpp"
#include "sched/types.hpp"

namespace fedsched::coord {

/// Everything a FedAvgRunner needs, fully deterministic in the spec.
struct TrainJob {
  data::Dataset train;
  data::Dataset test;
  std::vector<device::PhoneModel> phones;
  device::ModelDesc desc;
  nn::ModelSpec model_spec;
  std::vector<sched::UserProfile> users;
  sched::Assignment assignment;
  data::Partition partition;
  /// rounds / seed / parallelism / evaluate_each_round set from the spec;
  /// trace, checkpoint, faults etc. left for the caller to attach.
  fl::FlConfig config;
};

/// Assemble the job. A non-null enabled `trace` receives the schedule's
/// sched_* trace event exactly as `fedsched_cli train` emits it.
[[nodiscard]] TrainJob build_train_job(const TrainRunSpec& spec,
                                       obs::TraceWriter* trace);

struct TrainStepOutcome {
  /// The runner's result after this step: halted partial result for
  /// intermediate rounds, the complete RunResult on the final step.
  fl::RunResult result;
  std::size_t rounds_completed = 0;
  bool done = false;
};

/// Run one round of `spec` as a checkpointed step. `completed_rounds` is the
/// number of rounds already on disk at `ckpt_path` (0 = start fresh). The
/// trace file at `trace_path` is rewritten each step via the checkpoint's
/// captured prefix, so after the final step it is byte-identical to an
/// uninterrupted run's. The checkpoint is written to a temp file and renamed
/// into place by replace_file_atomic under `write_options` (durable fsyncs,
/// chaos crash points), so a kill mid-step never leaves a corrupt resume point.
[[nodiscard]] TrainStepOutcome run_train_step(
    const TrainRunSpec& spec, const std::string& ckpt_path,
    const std::string& trace_path, std::size_t completed_rounds,
    const AtomicWriteOptions& write_options = {});

/// The complete run in one call with the same cadence (checkpoint every
/// round) — the reference the stepped execution must match byte-for-byte.
[[nodiscard]] fl::RunResult run_train_oneshot(const TrainRunSpec& spec,
                                              const std::string& ckpt_path,
                                              const std::string& trace_path);

/// RunResult rendered as the coordinator's result.json document.
[[nodiscard]] std::string train_result_json(const TrainRunSpec& spec,
                                            const fl::RunResult& result);

}  // namespace fedsched::coord
