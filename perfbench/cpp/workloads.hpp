#pragma once
// The four benchmark workloads and the layer probes they share. Each
// workload fills one Report: end-to-end metrics always, per-layer metrics
// only when the tracer is enabled (the traced run).

#include <cstddef>
#include <cstdint>
#include <string>

#include "data/dataset.hpp"
#include "measure.hpp"
#include "nn/models.hpp"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool traced = false;
  std::size_t threads = 1;   // min(4, nproc)
  std::string work_dir;      // scratch directory for on-disk state
};

void run_fleet_1m(const Options& opt, Tracer& tracer, Report& report);
void run_fleet_dyn(const Options& opt, Tracer& tracer, Report& report);
void run_train_lenet(const Options& opt, Tracer& tracer, Report& report);
void run_coord_mixed(const Options& opt, Tracer& tracer, Report& report);

/// nn.* and tensor.* probes: per-layer forward/backward on one batch of 20,
/// the SGD step, test-set evaluation, the GEMMs of those layers at the same
/// shapes, and the batch im2col of every convolution.
void probe_model(const fedsched::nn::ModelSpec& spec,
                 const fedsched::data::Dataset& train,
                 const fedsched::data::Dataset& test, std::uint64_t seed,
                 Tracer& tracer, Report& report);

}  // namespace perfbench
