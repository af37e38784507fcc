// FSF1 version 2 fleet checkpoint contract (coord/fleet_job):
//   * the file holds the run identity and the two mutable columns only, so
//     it stays within 9 bytes per client plus a small fixed part;
//   * every truncation and every single-bit flip is rejected, as are a
//     checkpoint of another run (seed, size, mix, model) and a v1 file;
//   * the checkpoint write honours the registry's durable and chaos options
//     without changing a byte;
//   * stepping a multi-chunk fleet through checkpoints equals the same rounds
//     run in memory, summary bits and trace bytes alike.

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "coord/chaos/chaos.hpp"
#include "coord/coordinator.hpp"
#include "coord/fleet_job.hpp"
#include "coord/registry.hpp"
#include "device/model_desc.hpp"
#include "fl/checkpoint/codec.hpp"
#include "fleet/event_sim.hpp"
#include "fleet/fleet.hpp"
#include "obs/trace.hpp"

namespace fedsched::coord {
namespace {

namespace fs = std::filesystem;

constexpr std::uint32_t kFleetMagic = 0x46534631;  // "FSF1"

class CoordFleetJob : public ::testing::Test {
 protected:
  void SetUp() override {
    base_ = fs::temp_directory_path() /
            ("fedsched_fleet_job_" +
             std::string(::testing::UnitTest::GetInstance()
                             ->current_test_info()
                             ->name()));
    fs::remove_all(base_);
    fs::create_directories(base_);
  }
  void TearDown() override {
    std::error_code ec;
    fs::remove_all(base_, ec);
  }

  [[nodiscard]] std::string path(const std::string& name) const {
    return (base_ / name).string();
  }

  static FleetRunSpec small_spec(std::size_t rounds) {
    FleetRunSpec spec;
    spec.fleet_size = 64;
    spec.buckets = 16;
    spec.rounds = rounds;
    spec.dropout = 0.1;
    spec.seed = 11;
    return spec;
  }

  /// Step `spec` from round 0 until `rounds` rounds are checkpointed.
  void step_to(const FleetRunSpec& spec, std::size_t rounds, const std::string& ckpt,
               const std::string& trace, const AtomicWriteOptions& options = {}) {
    for (std::size_t r = 0; r < rounds; ++r) {
      ASSERT_EQ(run_fleet_step(spec, ckpt, trace, r, options).rounds_completed, r + 1);
    }
  }

  fs::path base_;
};

// Writes a new file rather than truncating the old one: some filesystems
// flush a truncated-and-rewritten file on close, which would make the
// corruption sweep below I/O-bound.
void write_bytes(const std::string& path, const std::string& bytes) {
  fs::remove(path);
  std::ofstream out(path, std::ios::binary);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

std::string step_error(const FleetRunSpec& spec, const std::string& ckpt,
                       const std::string& trace, std::size_t completed) {
  try {
    (void)run_fleet_step(spec, ckpt, trace, completed);
  } catch (const std::runtime_error& ex) {
    return ex.what();
  }
  return "";
}

TEST_F(CoordFleetJob, CheckpointHoldsOnlyIdentityAndMutableColumns) {
  FleetRunSpec spec = small_spec(2);
  spec.fleet_size = 10'000;
  spec.buckets = 64;
  step_to(spec, 2, path("ckpt"), path("trace"));
  EXPECT_LE(fs::file_size(path("ckpt")), 9 * spec.fleet_size + 65'536);
}

TEST_F(CoordFleetJob, EveryTruncationAndBitFlipIsRejected) {
  const FleetRunSpec spec = small_spec(3);
  const std::string ckpt = path("ckpt");
  const std::string trace = path("trace");
  step_to(spec, 2, ckpt, trace);
  const std::string good = read_file(ckpt, "test");
  const std::string good_trace = read_file(trace, "test");

  for (std::size_t len = 0; len < good.size(); ++len) {
    write_bytes(ckpt, good.substr(0, len));
    EXPECT_FALSE(step_error(spec, ckpt, trace, 2).empty()) << "prefix " << len;
  }
  for (std::size_t bit = 0; bit < good.size() * 8; ++bit) {
    std::string flipped = good;
    flipped[bit / 8] = static_cast<char>(flipped[bit / 8] ^ (1 << (bit % 8)));
    write_bytes(ckpt, flipped);
    EXPECT_FALSE(step_error(spec, ckpt, trace, 2).empty()) << "bit " << bit;
  }
  // A rejected checkpoint leaves the trace as the last good step wrote it.
  EXPECT_EQ(read_file(trace, "test"), good_trace);

  write_bytes(ckpt, good);
  EXPECT_TRUE(run_fleet_step(spec, ckpt, trace, 2).done);
}

TEST_F(CoordFleetJob, CheckpointOfAnotherRunIsRejected) {
  const FleetRunSpec spec = small_spec(3);
  step_to(spec, 1, path("ckpt"), path("trace"));

  const auto expect_rejected = [&](FleetRunSpec other, const std::string& field) {
    const std::string error = step_error(other, path("ckpt"), path("trace"), 1);
    EXPECT_NE(error.find("different " + field), std::string::npos) << error;
  };
  FleetRunSpec other = spec;
  other.seed = spec.seed + 1;
  expect_rejected(other, "seed");
  other = spec;
  other.fleet_size = spec.fleet_size + 1;
  expect_rejected(other, "fleet_size");
  other = spec;
  other.mix = "nexus6:0.5,pixel2:0.5";
  expect_rejected(other, "mix");
  other = spec;
  other.model = "VGG6";
  expect_rejected(other, "model");

  EXPECT_EQ(run_fleet_step(spec, path("ckpt"), path("trace"), 1).rounds_completed, 2u);
}

TEST_F(CoordFleetJob, VersionOneFileGetsTheVersionMessage) {
  const FleetRunSpec spec = small_spec(3);
  write_bytes(path("ckpt"), fl::checkpoint::seal(kFleetMagic, 1, "a v1 payload"));
  const std::string error = step_error(spec, path("ckpt"), path("trace"), 1);
  EXPECT_NE(error.find("has format version 1; this build reads version 2"),
            std::string::npos)
      << error;
}

TEST_F(CoordFleetJob, DurableRunWritesTheSameBytes) {
  RunSpec spec;
  spec.id = "f";
  spec.kind = RunKind::kFleet;
  spec.fleet = small_spec(3);
  std::vector<std::string> files[2];
  for (const bool durable : {false, true}) {
    CoordinatorConfig config;
    config.root = path(durable ? "durable" : "fast");
    config.workers = 1;
    config.durable_writes = durable;
    Coordinator coordinator(config);
    ASSERT_TRUE(coordinator.submit(spec).accepted);
    coordinator.wait_all_done();
    ASSERT_EQ(coordinator.status("f")->status, RunStatus::kDone);
    const RunRegistry& registry = coordinator.registry();
    for (const std::string& file :
         {registry.ckpt_path("f"), registry.trace_path("f"), registry.meta_path("f"),
          registry.result_path("f"), registry.spec_path("f")}) {
      files[durable ? 1 : 0].push_back(read_file(file, "test"));
    }
  }
  EXPECT_EQ(files[0], files[1]);
}

TEST_F(CoordFleetJob, CheckpointWriteGoesThroughTheWriteOptions) {
  const FleetRunSpec spec = small_spec(2);
  chaos::ChaosConfig config;
  config.enabled = true;
  config.crash_at_write = 1;  // the second step's checkpoint
  config.crash_phase = chaos::CrashPhase::kAfterTmp;
  chaos::ChaosInjector injector(config);
  const AtomicWriteOptions options{true, &injector};

  ASSERT_EQ(run_fleet_step(spec, path("ckpt"), path("trace"), 0, options).rounds_completed,
            1u);
  const std::string round_one = read_file(path("ckpt"), "test");
  EXPECT_THROW((void)run_fleet_step(spec, path("ckpt"), path("trace"), 1, options),
               chaos::ChaosCrash);
  EXPECT_EQ(injector.write_ops(), 2u);
  EXPECT_EQ(read_file(path("ckpt"), "test"), round_one);
  EXPECT_TRUE(fs::exists(path("ckpt") + ".tmp"));
}

std::uint64_t bits(double x) { return std::bit_cast<std::uint64_t>(x); }

TEST_F(CoordFleetJob, SteppedRunMatchesInMemoryLoopAcrossChunks) {
  // Two 2^17-client chunks in every generate / cost / plan / round pass.
  FleetRunSpec spec;
  spec.fleet_size = 140'000;
  spec.rounds = 3;
  spec.dropout = 0.1;
  spec.seed = 23;
  spec.parallelism = 2;

  std::vector<FleetRoundSummary> stepped;
  for (std::size_t r = 0; r < spec.rounds; ++r) {
    FleetStepOutcome out = run_fleet_step(spec, path("ckpt"), path("trace"), r);
    ASSERT_EQ(out.rounds_completed, r + 1);
    ASSERT_EQ(out.done, r + 1 == spec.rounds);
    if (out.done) stepped = std::move(out.summaries);
  }

  std::vector<FleetRoundSummary> reference;
  {
    obs::TraceWriter trace = obs::TraceWriter::to_file(path("ref_trace"));
    fleet::FleetSimConfig config;
    config.shard_size = spec.shard;
    config.deadline_s = spec.deadline_s;
    config.dropout_prob = spec.dropout;
    config.battery_floor_soc = spec.battery_floor;
    config.parallelism = spec.parallelism;
    config.seed = spec.seed;
    fleet::FleetSimulator sim(
        fleet::FleetGenerator({}, device::lenet_desc(), spec.seed)
            .generate(spec.fleet_size, &trace),
        config);
    for (std::size_t r = 0; r < spec.rounds; ++r) {
      const sched::LinearCosts costs = fleet::linear_costs(sim.state(), spec.shard);
      const FleetPlan plan = plan_fleet_round(spec.policy, costs,
                                              spec.effective_total_shards(),
                                              spec.buckets, &trace);
      const fleet::FleetRoundResult res =
          sim.run_round(plan.assignment.shards_per_user, r, &trace);
      FleetRoundSummary s;
      s.round = res.round;
      s.participants = res.participants;
      s.completed = res.completed;
      s.dropped_crash = res.dropped_crash;
      s.dropped_deadline = res.dropped_deadline;
      s.dropped_stale = res.dropped_stale;
      s.battery_deaths = res.battery_deaths;
      s.survivor_shards = res.survivor_shards;
      s.threshold_s = plan.threshold_s;
      s.makespan_s = res.makespan_s;
      s.energy_wh = res.energy_wh;
      reference.push_back(s);
    }
    trace.flush();
  }

  ASSERT_EQ(stepped.size(), reference.size());
  for (std::size_t r = 0; r < reference.size(); ++r) {
    const FleetRoundSummary& a = stepped[r];
    const FleetRoundSummary& b = reference[r];
    EXPECT_EQ(a.round, b.round);
    EXPECT_EQ(a.participants, b.participants);
    EXPECT_EQ(a.completed, b.completed);
    EXPECT_EQ(a.dropped_crash, b.dropped_crash);
    EXPECT_EQ(a.dropped_deadline, b.dropped_deadline);
    EXPECT_EQ(a.dropped_stale, b.dropped_stale);
    EXPECT_EQ(a.battery_deaths, b.battery_deaths);
    EXPECT_EQ(a.survivor_shards, b.survivor_shards);
    EXPECT_EQ(bits(a.threshold_s), bits(b.threshold_s));
    EXPECT_EQ(bits(a.makespan_s), bits(b.makespan_s));
    EXPECT_EQ(bits(a.energy_wh), bits(b.energy_wh));
  }
  EXPECT_GT(reference.back().completed, 0u);
  EXPECT_GT(reference.back().dropped_crash, 0u);
  EXPECT_EQ(read_file(path("trace"), "test"), read_file(path("ref_trace"), "test"));
}

}  // namespace
}  // namespace fedsched::coord
