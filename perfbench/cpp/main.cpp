// perfbench — one benchmark workload per process.
//
//   perfbench --workload fleet-1m|fleet-dyn|train-lenet|coord-mixed
//             --seed N --seconds S --trace 0|1 --threads T --work-dir DIR
//             [--spans-out FILE]
//
// Prints a metric table, then as its last line one JSON object with the keys
// correct, attempted, failed and metrics: end-to-end metrics for --trace 0,
// per-layer metrics for --trace 1. Exits 1 when an output check failed.
// perfbench/run.py builds this binary and is the intended entry point.

#include <cstdlib>
#include <filesystem>
#include <iostream>
#include <map>
#include <stdexcept>
#include <string>

#include "common/json.hpp"
#include "measure.hpp"
#include "workloads.hpp"

namespace {

using perfbench::Options;

std::map<std::string, std::string> parse_flags(int argc, char** argv) {
  std::map<std::string, std::string> flags;
  for (int i = 1; i < argc; i += 2) {
    const std::string key = argv[i];
    if (key.rfind("--", 0) != 0 || i + 1 >= argc) {
      throw std::invalid_argument("expected --flag value pairs, got '" + key + "'");
    }
    flags[key.substr(2)] = argv[i + 1];
  }
  return flags;
}

std::string require(const std::map<std::string, std::string>& flags,
                    const std::string& key) {
  const auto it = flags.find(key);
  if (it == flags.end()) throw std::invalid_argument("missing --" + key);
  return it->second;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const auto flags = parse_flags(argc, argv);
    Options opt;
    opt.workload = require(flags, "workload");
    opt.seed = std::stoull(require(flags, "seed"));
    opt.seconds = std::stod(require(flags, "seconds"));
    opt.traced = require(flags, "trace") == "1";
    opt.threads = std::stoul(require(flags, "threads"));
    opt.work_dir = require(flags, "work-dir");
    if (opt.seconds <= 0.0 || opt.threads == 0) {
      throw std::invalid_argument("--seconds and --threads must be positive");
    }
    std::filesystem::create_directories(opt.work_dir);
    fedsched::common::JsonObject build;
    build.field("compiler", PERFBENCH_COMPILER).field("build_type", PERFBENCH_BUILD_TYPE);
    std::cout << "build: " << build.str() << std::endl;

    perfbench::Tracer tracer(opt.traced);
    perfbench::Report report;
    if (opt.workload == "fleet-1m") {
      perfbench::run_fleet_1m(opt, tracer, report);
    } else if (opt.workload == "fleet-dyn") {
      perfbench::run_fleet_dyn(opt, tracer, report);
    } else if (opt.workload == "train-lenet") {
      perfbench::run_train_lenet(opt, tracer, report);
    } else if (opt.workload == "coord-mixed") {
      perfbench::run_coord_mixed(opt, tracer, report);
    } else {
      throw std::invalid_argument("unknown workload '" + opt.workload + "'");
    }

    const auto spans_out = flags.find("spans-out");
    if (opt.traced && spans_out != flags.end()) {
      fedsched::common::JsonObject header = build;
      header.field("workload", opt.workload)
          .field("seed", opt.seed)
          .field("threads", opt.threads)
          .field("spans", tracer.spans().size());
      tracer.write_jsonl(spans_out->second, header.str());
    }

    report.print_table(std::cout, opt.traced);
    std::cout << report.result_json(opt.traced) << std::endl;
    return report.correct() ? 0 : 1;
  } catch (const std::exception& error) {
    std::cerr << "perfbench: " << error.what() << "\n";
    return 2;
  }
}
