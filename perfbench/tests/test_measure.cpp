// Unit tests of the benchmark's measurement helpers (perfbench/cpp/measure).
//
//   cmake --build <build-dir> --target perfbench_tests && <build-dir>/perfbench_tests

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <numeric>
#include <string>
#include <vector>

#include "common/json.hpp"
#include "measure.hpp"

namespace perfbench {
namespace {

std::vector<double> one_to(std::size_t n) {
  std::vector<double> v(n);
  std::iota(v.begin(), v.end(), 1.0);
  return v;
}

TEST(Percentile, ReportedOnlyWithTenSamplesBeyond) {
  // p90 of 1..100 is the 90th value, with exactly ten samples above it.
  EXPECT_EQ(percentile(one_to(100), 0.9), 90.0);
  EXPECT_FALSE(percentile(one_to(99), 0.9).has_value());
  EXPECT_FALSE(percentile(one_to(999), 0.99).has_value());
  EXPECT_EQ(percentile(one_to(1000), 0.99), 990.0);
  // Sample order does not matter.
  std::vector<double> shuffled = one_to(100);
  std::reverse(shuffled.begin(), shuffled.end());
  EXPECT_EQ(percentile(shuffled, 0.9), 90.0);
}

TEST(Percentile, MedianIsAlwaysReported) {
  EXPECT_EQ(median({3.0}), 3.0);
  EXPECT_EQ(median({4.0, 1.0, 2.0}), 2.0);
  EXPECT_EQ(median({4.0, 1.0, 2.0, 3.0}), 2.5);
  EXPECT_FALSE(median({}).has_value());
}

TEST(Percentile, TopPercentileIsTheHighestWithTenBeyond) {
  EXPECT_FALSE(top_percentile(one_to(19)).has_value());
  EXPECT_EQ(top_percentile(one_to(20))->first, 0.5);
  EXPECT_EQ(top_percentile(one_to(40))->first, 0.75);
  EXPECT_EQ(top_percentile(one_to(100))->first, 0.9);
  EXPECT_EQ(top_percentile(one_to(1000))->first, 0.99);
  EXPECT_EQ(top_percentile(one_to(10000))->first, 0.999);
}

TEST(Percentile, ReportTableCarriesSampleCountAndTail) {
  Report report;
  report.end_to_end_timing("round_s", one_to(100));
  const Metric& m = report.end_to_end().at("round_s");
  EXPECT_EQ(m.samples, 100u);
  EXPECT_EQ(m.value, 50.5);
  ASSERT_TRUE(m.top.has_value());
  EXPECT_EQ(m.top->first, 0.9);
}

Poll poll(double t, bool running, std::size_t rounds) { return Poll{t, running, rounds}; }

TEST(StepLatency, StepsRunFromFirstRunningPollToLeavingIt) {
  // admitted, running x3, checkpointed, running x2, done.
  const std::vector<Poll> polls = {poll(0.0, false, 0), poll(1.0, true, 0),
                                   poll(2.0, true, 0),  poll(3.0, true, 0),
                                   poll(4.0, false, 1), poll(5.0, true, 1),
                                   poll(6.0, true, 1),  poll(7.0, false, 2)};
  const StepTimeline t = extract_steps(polls);
  ASSERT_EQ(t.steps.size(), 2u);
  EXPECT_EQ(t.steps[0].round, 0u);
  EXPECT_EQ(t.steps[0].start_s, 1.0);
  EXPECT_EQ(t.steps[0].end_s, 4.0);
  EXPECT_EQ(t.steps[1].round, 1u);
  EXPECT_EQ(t.steps[1].start_s, 5.0);
  EXPECT_EQ(t.steps[1].end_s, 7.0);
  ASSERT_EQ(t.queue_waits_s.size(), 1u);
  EXPECT_EQ(t.queue_waits_s[0], 1.0);
}

TEST(StepLatency, RedispatchBetweenPollsSplitsOnRoundCount) {
  // The worker finished round 0 and picked the run up again before the next
  // poll: still `running`, but one more round completed.
  const std::vector<Poll> polls = {poll(0.0, true, 0), poll(1.0, true, 0),
                                   poll(2.0, true, 1), poll(3.0, false, 2)};
  const StepTimeline t = extract_steps(polls);
  ASSERT_EQ(t.steps.size(), 2u);
  EXPECT_EQ(t.steps[0].end_s, 2.0);
  EXPECT_EQ(t.steps[1].start_s, 2.0);
  EXPECT_EQ(t.steps[1].end_s, 3.0);
  ASSERT_EQ(t.queue_waits_s.size(), 1u);
  EXPECT_EQ(t.queue_waits_s[0], 0.0);
}

TEST(StepLatency, OpenAndUnseenStepsAreNotReported) {
  EXPECT_TRUE(extract_steps({poll(0.0, false, 0), poll(1.0, false, 1)}).steps.empty());
  EXPECT_TRUE(extract_steps({poll(0.0, false, 0), poll(1.0, true, 0)}).steps.empty());
  EXPECT_TRUE(extract_steps({}).steps.empty());
}

TEST(Spans, SelfTimeSubtractsTheUnionOfChildren) {
  // Children [1,3] and [2,5] overlap; [9,12] runs past the parent's end.
  const std::vector<Span> spans = {{"round", 0.0, 10.0, -1, 0},
                                   {"a", 1.0, 3.0, 0, 0},
                                   {"b", 2.0, 5.0, 0, 0},
                                   {"c", 9.0, 12.0, 0, 0},
                                   {"a.inner", 1.5, 2.5, 1, 0}};
  const std::vector<double> self = self_seconds(spans);
  EXPECT_DOUBLE_EQ(self[0], 10.0 - 4.0 - 1.0);
  EXPECT_DOUBLE_EQ(self[1], 2.0 - 1.0);
  EXPECT_DOUBLE_EQ(self[2], 3.0);
  EXPECT_DOUBLE_EQ(self[4], 1.0);
}

TEST(Spans, ScopesNestAndDisabledTracersRecordNothing) {
  Tracer tracer(true);
  {
    Tracer::Scope outer(tracer, "outer", 3);
    Tracer::Scope inner(tracer, "inner", 3);
    EXPECT_GE(inner.stop(), 0.0);
    tracer.add("polled", tracer.now(), tracer.now(), 4);
  }
  ASSERT_EQ(tracer.spans().size(), 3u);
  EXPECT_EQ(tracer.spans()[0].parent, -1);
  EXPECT_EQ(tracer.spans()[1].parent, 0);
  EXPECT_EQ(tracer.spans()[2].parent, 0);
  EXPECT_EQ(tracer.spans()[1].round, 3);
  EXPECT_EQ(tracer.self_samples("inner").size(), 1u);

  Tracer off(false);
  Tracer::Scope scope(off, "x", 0);
  EXPECT_GE(scope.stop(), 0.0);
  off.add("y", 0.0, 1.0, 0);
  EXPECT_TRUE(off.spans().empty());
}

TEST(ReportOutput, ResultLineHasExactlyTheContractKeys) {
  Report report;
  report.end_to_end("setup_s", 0.25, "s", 5);
  report.layer("fleet.events", 444299.0, "count", 3);
  report.operation(true, "");
  report.operation(false, "round 1 lost a client");
  const auto doc = fedsched::common::json_parse(report.result_json(false));
  const auto& keys = doc.as_object();
  ASSERT_EQ(keys.size(), 4u);
  EXPECT_FALSE(doc.get_bool("correct", true));
  EXPECT_EQ(doc.get_number("attempted", 0), 2.0);
  EXPECT_EQ(doc.get_number("failed", 0), 1.0);
  const auto& metrics = doc.find("metrics")->as_object();
  ASSERT_EQ(metrics.size(), 1u);
  EXPECT_EQ(metrics.at("setup_s").get_string("unit", ""), "s");
  const auto traced = fedsched::common::json_parse(report.result_json(true));
  EXPECT_EQ(traced.find("metrics")->as_object().count("fleet.events"), 1u);
}

TEST(TimeBox, AnotherIterationOnlyWhenItFits) {
  EXPECT_TRUE(another_fits(0.0, 50.0, 0, 1, 10.0));   // minimum not reached
  EXPECT_TRUE(another_fits(0.0, 6.0, 3, 1, 8.0));     // 6 + 2 <= 8
  EXPECT_FALSE(another_fits(0.0, 6.0, 3, 1, 7.9));    // 6 + 2 > 7.9
  EXPECT_FALSE(another_fits(1.0, 9.0, 1, 1, 10.0));   // 8 + 8 > 10
}

TEST(ReportOutput, NonFiniteValuesFailTheRun) {
  Report report;
  report.end_to_end("round_s", std::numeric_limits<double>::quiet_NaN(), "s", 1);
  EXPECT_FALSE(report.correct());
}

}  // namespace
}  // namespace perfbench
