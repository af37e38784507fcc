// The reproduction contract, executable: the paper's headline claims that
// EXPERIMENTS.md reports, asserted as tests so regressions in any substrate
// (calibration, profiler, schedulers) surface immediately.

#include <gtest/gtest.h>

#include <tuple>

#include "core/fedsched.hpp"

namespace fedsched {

namespace device {
// gtest prints a pointer parameter as its address, which ASLR changes on
// every run; print the model's name so the listed test names are stable.
void PrintTo(const ModelDesc* model, std::ostream* os) { *os << model->name; }
}  // namespace device

namespace {

// --- Observation 3: communication is a small share of the epoch. ----------

class CommShare
    : public ::testing::TestWithParam<std::tuple<device::PhoneModel,
                                                 const device::ModelDesc*,
                                                 device::NetworkType>> {};

TEST_P(CommShare, WithinPaperRange) {
  const auto [phone, model, network] = GetParam();
  device::Device dev(phone, network);
  const double compute = dev.train(*model, 3000);
  const double comm = dev.comm_seconds(*model);
  const double share = comm / (comm + compute);
  EXPECT_GT(share, 0.001);
  EXPECT_LT(share, 0.16);  // paper: ~5% average, max ~15% (VGG6 over LTE)
}

INSTANTIATE_TEST_SUITE_P(
    Grid, CommShare,
    ::testing::Combine(::testing::ValuesIn(device::kAllPhoneModels),
                       ::testing::Values(&device::lenet_desc(),
                                         &device::vgg6_desc()),
                       ::testing::Values(device::NetworkType::kWifi,
                                         device::NetworkType::kLte)),
    [](const auto& info) {
      return std::string(device::model_name(std::get<0>(info.param))) + "_" +
             std::get<1>(info.param)->name + "_" +
             device::network_name(std::get<2>(info.param));
    });

// --- Fig 5's headline: Fed-LBAP beats every baseline, on every testbed, ---
// --- for both models, at full dataset scale.                            ---

class LbapDominance
    : public ::testing::TestWithParam<std::tuple<int, const device::ModelDesc*>> {};

TEST_P(LbapDominance, BeatsAllBaselines) {
  const auto [testbed_index, model] = GetParam();
  const auto phones = device::testbed(testbed_index);
  const std::size_t total = 60'000;
  constexpr std::size_t kShard = 100;
  const auto users =
      core::build_profiles(phones, *model, device::NetworkType::kWifi, total);

  auto truth = [&](const sched::Assignment& a) {
    return core::simulate_epoch(phones, *model, device::NetworkType::kWifi,
                                a.sample_counts())
        .makespan;
  };

  const double lbap = truth(sched::fed_lbap(users, total / kShard, kShard).assignment);
  const double equal =
      truth(sched::assign_equal(users.size(), total / kShard, kShard));
  const double prop = truth(sched::assign_proportional(users, total / kShard, kShard));
  common::Rng rng(1);
  const double random =
      truth(sched::assign_random(users.size(), total / kShard, kShard, rng));

  EXPECT_LT(lbap, equal);
  EXPECT_LT(lbap, prop);
  EXPECT_LT(lbap, random);
  // Testbed 2 carries the Nexus6P stragglers: the gap must be large there.
  if (testbed_index == 2 && model == &device::lenet_desc()) {
    EXPECT_GT(equal / lbap, 2.5);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Grid, LbapDominance,
    ::testing::Combine(::testing::Values(1, 2, 3),
                       ::testing::Values(&device::lenet_desc(),
                                         &device::vgg6_desc())),
    [](const auto& info) {
      return "Testbed" + std::to_string(std::get<0>(info.param)) + "_" +
             std::get<1>(info.param)->name;
    });

// --- Fed-LBAP scales with users while Equal does not (Fig 5's downtrend). -

TEST(ReproductionContract, LbapImprovesWithMoreUsersEqualBarely) {
  const std::size_t total = 60'000;
  std::vector<double> lbap_times, equal_times;
  for (int tb : {1, 2, 3}) {
    const auto phones = device::testbed(tb);
    const auto users = core::build_profiles(phones, device::lenet_desc(),
                                            device::NetworkType::kWifi, total);
    const auto lbap = sched::fed_lbap(users, total / 100, 100);
    lbap_times.push_back(core::simulate_epoch(phones, device::lenet_desc(),
                                              device::NetworkType::kWifi,
                                              lbap.assignment.sample_counts())
                             .makespan);
    const auto equal = sched::assign_equal(users.size(), total / 100, 100);
    equal_times.push_back(core::simulate_epoch(phones, device::lenet_desc(),
                                               device::NetworkType::kWifi,
                                               equal.sample_counts())
                              .makespan);
  }
  // LBAP: testbed 3 (10 devices) much faster than testbed 1 (3 devices).
  EXPECT_LT(lbap_times[2], 0.55 * lbap_times[0]);
  // Equal from testbed 1 to 2 *regresses* (the Nexus6P join) — the paper's
  // "time surge from Testbed 1 to Testbed 2".
  EXPECT_GT(equal_times[1], equal_times[0]);
}

// --- Fig 6's alpha mechanics on scenario S(II). ----------------------------

TEST(ReproductionContract, AlphaConcentratesAndSlowsSII) {
  const auto scenario = data::scenario_s2();
  std::vector<device::PhoneModel> phones;
  for (const auto& user : scenario.users) {
    phones.push_back(device::spec_by_name(user.device_model).model);
  }
  auto users = core::build_profiles(phones, device::lenet_desc(),
                                    device::NetworkType::kWifi, 50'000);
  for (std::size_t u = 0; u < users.size(); ++u) {
    users[u].classes = scenario.users[u].classes;
  }
  auto run = [&](double alpha) {
    sched::MinAvgConfig config;
    config.cost.alpha = alpha;
    config.cost.beta = 0.0;
    return sched::fed_minavg(users, 500, 100, config);
  };
  const auto low = run(100.0);
  const auto high = run(5000.0);
  EXPECT_GE(low.assignment.participants(), high.assignment.participants());
  EXPECT_LE(low.makespan_seconds, high.makespan_seconds);
  EXPECT_GE(low.covered_classes, high.covered_classes);
}

// --- The beta recruitment claim (any-new-class reading). -------------------

TEST(ReproductionContract, BetaBuysCoverageOnSI) {
  const auto scenario = data::scenario_s1();
  std::vector<device::PhoneModel> phones;
  for (const auto& user : scenario.users) {
    phones.push_back(device::spec_by_name(user.device_model).model);
  }
  auto users = core::build_profiles(phones, device::lenet_desc(),
                                    device::NetworkType::kWifi, 50'000);
  for (std::size_t u = 0; u < users.size(); ++u) {
    users[u].classes = scenario.users[u].classes;
  }
  sched::MinAvgConfig config;
  config.cost.alpha = 100.0;
  config.cost.bonus_mode = sched::BonusMode::kAnyNewClass;
  config.cost.beta = 0.0;
  const auto without = sched::fed_minavg(users, 500, 100, config);
  config.cost.beta = 2.0;
  const auto with = sched::fed_minavg(users, 500, 100, config);
  // S(I)'s class 7 lives only at Pixel2(a); beta must recruit it.
  EXPECT_LT(without.covered_classes, 10u);
  EXPECT_EQ(with.covered_classes, 10u);
}

}  // namespace
}  // namespace fedsched
