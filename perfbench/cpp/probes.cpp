// nn.* and tensor.* probes of the train workload's model.
//
// The probes call the library's public layer and kernel entry points on one
// minibatch of 20 (the testbed's batch size) and time them from outside:
// Model::layer(i).forward/backward grouped by layer kind, the SGD step,
// Model::accuracy over the test set, tensor::gemm at exactly the products
// those layers issue, and ops::im2col_batch on every convolution's input.

#include <cmath>
#include <map>
#include <numeric>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "fl/runner.hpp"
#include "nn/conv2d.hpp"
#include "nn/dense.hpp"
#include "nn/loss.hpp"
#include "nn/sgd.hpp"
#include "tensor/gemm.hpp"
#include "tensor/ops.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

using namespace fedsched;

constexpr std::size_t kBatch = 20;
constexpr std::size_t kReps = 10;

/// conv | dense | other, from Layer::name() ("Conv2d(...)", "Dense(...)").
std::string kind_of(const nn::Layer& layer) {
  const std::string name = layer.name();
  if (name.rfind("Conv2d", 0) == 0) return "conv";
  if (name.rfind("Dense", 0) == 0) return "dense";
  return "other";
}

/// One GEMM the layers issue per batch, in tensor::gemm's stride notation.
struct GemmCall {
  std::size_t m, n, k;
  std::size_t a_rs, a_cs, b_rs, b_cs;
};

/// Forward and both backward products of every Conv2d and Dense layer, as
/// Conv2d/Dense issue them for a batch of kBatch (row-major operands).
std::vector<GemmCall> gemm_calls(nn::Model& model) {
  std::vector<GemmCall> calls;
  for (std::size_t i = 0; i < model.layer_count(); ++i) {
    nn::Layer& layer = model.layer(i);
    if (const auto* conv = dynamic_cast<const nn::Conv2d*>(&layer)) {
      const auto& g = conv->geometry();
      const std::size_t oc = conv->out_channels();
      const std::size_t patch = g.patch_size();
      const std::size_t cols = kBatch * g.out_h() * g.out_w();
      calls.push_back({oc, cols, patch, patch, 1, cols, 1});     // W * columns
      calls.push_back({oc, patch, cols, cols, 1, 1, cols});      // dY * columns^T
      calls.push_back({patch, cols, oc, 1, patch, cols, 1});     // W^T * dY
    } else if (const auto* dense = dynamic_cast<const nn::Dense*>(&layer)) {
      const std::size_t in = dense->in_features();
      const std::size_t out = dense->out_features();
      calls.push_back({kBatch, out, in, in, 1, 1, in});          // X * W^T
      calls.push_back({out, in, kBatch, 1, out, in, 1});         // dY^T * X
      calls.push_back({kBatch, in, out, out, 1, in, 1});         // dY * W
    }
  }
  return calls;
}

}  // namespace

void probe_model(const nn::ModelSpec& spec, const data::Dataset& train,
                 const data::Dataset& test, std::uint64_t seed, Tracer& tracer,
                 Report& report) {
  common::Rng rng(seed);
  nn::Model model = nn::build_model(spec, rng);
  nn::Sgd sgd(fl::FlConfig{}.sgd);
  std::vector<std::size_t> rows(kBatch);
  std::iota(rows.begin(), rows.end(), std::size_t{0});
  tensor::Tensor batch;
  std::vector<std::uint16_t> labels;
  train.fill_batch(rows, batch, labels);

  // ---- layers: forward, loss, backward, SGD step on one batch ------------
  std::map<std::string, std::vector<double>> pass_s;  // "conv.fwd" -> per rep
  std::vector<double> sgd_s;
  std::vector<std::pair<const nn::Conv2d*, tensor::Tensor>> conv_inputs;
  for (std::size_t rep = 0; rep < kReps; ++rep) {
    Tracer::Scope pass(tracer, "nn.batch", static_cast<std::int64_t>(rep));
    std::map<std::string, double> sums{{"conv.fwd", 0.0}, {"conv.bwd", 0.0},
                                       {"dense.fwd", 0.0}, {"dense.bwd", 0.0},
                                       {"other.fwd", 0.0}, {"other.bwd", 0.0}};
    tensor::Tensor x = batch;
    for (std::size_t i = 0; i < model.layer_count(); ++i) {
      nn::Layer& layer = model.layer(i);
      if (rep == 0) {
        if (const auto* conv = dynamic_cast<const nn::Conv2d*>(&layer)) {
          conv_inputs.emplace_back(conv, x);
        }
      }
      const std::string key = kind_of(layer) + ".fwd";
      Tracer::Scope span(tracer, "nn." + key, static_cast<std::int64_t>(rep));
      x = layer.forward(x, /*train=*/true);
      sums[key] += span.stop();
    }
    const nn::LossResult loss = nn::softmax_cross_entropy(x, labels);
    report.check(std::isfinite(loss.loss), "probe batch loss is not finite");
    tensor::Tensor g = loss.grad;
    for (std::size_t i = model.layer_count(); i-- > 0;) {
      nn::Layer& layer = model.layer(i);
      const std::string key = kind_of(layer) + ".bwd";
      Tracer::Scope span(tracer, "nn." + key, static_cast<std::int64_t>(rep));
      g = layer.backward(g);
      sums[key] += span.stop();
    }
    Tracer::Scope step(tracer, "nn.sgd_step", static_cast<std::int64_t>(rep));
    sgd.step(model);
    sgd_s.push_back(step.stop());
    for (const auto& [key, s] : sums) pass_s[key].push_back(s);
  }
  for (const auto& [key, samples] : pass_s) report.layer_timing("nn." + key + "_s", samples);
  report.layer_timing("nn.sgd_step_s", sgd_s);

  std::vector<double> eval_s;
  for (std::size_t rep = 0; rep < 3; ++rep) {
    Tracer::Scope span(tracer, "nn.evaluate", static_cast<std::int64_t>(rep));
    const double acc = model.accuracy(test.images(), test.labels());
    eval_s.push_back(span.stop());
    report.check(acc >= 0.0 && acc <= 1.0, "probe accuracy outside [0, 1]");
  }
  report.layer_timing("nn.evaluate_s", eval_s);

  // ---- tensor: the same products through tensor::gemm, serially ----------
  const std::vector<GemmCall> calls = gemm_calls(model);
  std::vector<tensor::Tensor> a, b, c;
  double flop = 0.0;
  for (const GemmCall& call : calls) {
    a.push_back(tensor::Tensor::randn({call.m * call.k}, rng));
    b.push_back(tensor::Tensor::randn({call.k * call.n}, rng));
    c.emplace_back(tensor::Shape{call.m * call.n});
    flop += 2.0 * static_cast<double>(call.m * call.n * call.k);
  }
  tensor::gemm::Workspace ws;
  std::vector<double> gemm_s;
  for (std::size_t rep = 0; rep < kReps; ++rep) {
    Tracer::Scope span(tracer, "tensor.gemm", static_cast<std::int64_t>(rep));
    for (std::size_t i = 0; i < calls.size(); ++i) {
      const GemmCall& g = calls[i];
      tensor::gemm::gemm(g.m, g.n, g.k, a[i].raw(), g.a_rs, g.a_cs, b[i].raw(), g.b_rs,
                         g.b_cs, c[i].raw(), &ws, nullptr);
    }
    gemm_s.push_back(span.stop());
  }
  report.layer_timing("tensor.gemm_s", gemm_s);
  report.layer("tensor.gemm_gflops", flop / *median(gemm_s) / 1e9, "GFLOP/s",
               gemm_s.size());

  std::vector<tensor::Tensor> columns;
  for (const auto& [conv, input] : conv_inputs) {
    const auto& g = conv->geometry();
    columns.emplace_back(tensor::Shape{g.patch_size(), kBatch * g.out_h() * g.out_w()});
  }
  std::vector<double> im2col_s;
  for (std::size_t rep = 0; rep < kReps; ++rep) {
    Tracer::Scope span(tracer, "tensor.im2col", static_cast<std::int64_t>(rep));
    for (std::size_t i = 0; i < conv_inputs.size(); ++i) {
      tensor::ops::im2col_batch(conv_inputs[i].second, conv_inputs[i].first->geometry(),
                                columns[i]);
    }
    im2col_s.push_back(span.stop());
  }
  report.layer_timing("tensor.im2col_s", im2col_s);
  // Forward (one product per layer) plus backward (two) per batch.
  report.layer("tensor.flop_per_batch",
               3.0 * 2.0 * model.macs_per_sample() * static_cast<double>(kBatch), "count",
               1);
}

}  // namespace perfbench
