// Tests of the benchmark harness itself.
#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "harness.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

TEST(PercentileRule, HighestQuantileWithTenSamplesBeyond) {
  EXPECT_EQ(samples_beyond(1000, 0.99), 10u);
  EXPECT_EQ(samples_beyond(999, 0.99), 9u);
  EXPECT_DOUBLE_EQ(highest_supported_quantile(1000), 0.99);
  EXPECT_DOUBLE_EQ(highest_supported_quantile(999), 0.95);
  EXPECT_DOUBLE_EQ(highest_supported_quantile(100), 0.90);
  EXPECT_DOUBLE_EQ(highest_supported_quantile(40), 0.75);
  EXPECT_DOUBLE_EQ(highest_supported_quantile(20), 0.50);
  EXPECT_DOUBLE_EQ(highest_supported_quantile(19), 0.0);
  EXPECT_DOUBLE_EQ(highest_supported_quantile(10000), 0.999);
}

TEST(PercentileRule, NearestRankAndSummary) {
  std::vector<double> values;
  for (int i = 100; i >= 1; --i) values.push_back(i);  // unsorted input
  const Summary s = summarize(values, 0.90);
  EXPECT_EQ(s.n, 100u);
  EXPECT_DOUBLE_EQ(s.p50, 50.0);
  EXPECT_DOUBLE_EQ(s.tail, 90.0);
  EXPECT_TRUE(s.tail_supported);
  EXPECT_FALSE(summarize(values, 0.95).tail_supported);
  EXPECT_DOUBLE_EQ(median({3.0, 1.0, 2.0, 10.0}), 2.5);
}

constexpr std::int64_t kMs = 1'000'000;

PhaseResult one_lane_open_loop(std::int64_t stall_ms) {
  PhaseSpec spec;
  spec.open_loop = true;
  spec.lanes = 1;
  for (int i = 0; i < 6; ++i) spec.shared_keys.push_back(i * 5 * kMs);
  spec.shared_keys.push_back(200 * kMs);  // due well after the stall clears
  spec.deadline_ns = 10'000 * kMs;
  return run_phase(spec, [&](std::size_t, bool, std::size_t i) {
    if (i == 1) std::this_thread::sleep_for(std::chrono::milliseconds(stall_ms));
  });
}

TEST(OpenLoop, StallRaisesLatencyOfOpsScheduledAfterIt) {
  const PhaseResult calm = one_lane_open_loop(0);
  const PhaseResult stalled = one_lane_open_loop(60);
  ASSERT_EQ(stalled.completed(), 7u);
  // Op 1 itself and every op due before it finishes pay for the stall,
  // measured from their scheduled time, not from when they started.
  EXPECT_GE(stalled.shared[1].latency_us(), 60'000.0);
  EXPECT_GE(stalled.shared[2].latency_us(), 60'000.0 - 5'000.0);
  EXPECT_GE(stalled.shared[5].latency_us(), 60'000.0 - 20'000.0);
  EXPECT_GE(stalled.shared[5].wait_us(), 60'000.0 - 20'000.0);
  for (int i = 2; i < 6; ++i)
    EXPECT_GT(stalled.shared[i].latency_us(), calm.shared[i].latency_us());
  // An op due after the backlog drains is unaffected.
  EXPECT_LT(stalled.shared[6].latency_us(), 20'000.0);
}

TEST(OpenLoop, OpsUnstartedAtTheDeadlineAreCounted) {
  PhaseSpec spec;
  spec.open_loop = true;
  spec.lanes = 1;
  spec.shared_keys = {0, 1 * kMs, 2 * kMs};
  spec.deadline_ns = 20 * kMs;
  const PhaseResult r = run_phase(spec, [](std::size_t, bool, std::size_t i) {
    if (i == 0) std::this_thread::sleep_for(std::chrono::milliseconds(40));
  });
  EXPECT_EQ(r.completed(), 1u);
  EXPECT_EQ(r.unstarted(), 2u);
}

TEST(ClosedLoop, WriterLaneKeepsTracePositions) {
  PhaseSpec spec;
  spec.open_loop = false;
  spec.lanes = 1;
  spec.ordered_keys = {1, 3};
  spec.shared_keys = {0, 2, 4};
  spec.deadline_ns = 10'000 * kMs;
  std::vector<std::pair<bool, std::size_t>> order;
  const PhaseResult r = run_phase(spec, [&](std::size_t, bool ordered,
                                            std::size_t i) {
    order.emplace_back(ordered, i);
  });
  const std::vector<std::pair<bool, std::size_t>> want = {
      {false, 0}, {true, 0}, {false, 1}, {true, 1}, {false, 2}};
  EXPECT_EQ(order, want);
  // Closed loop: an op is due when it is claimed.
  for (const OpTiming& t : r.shared) EXPECT_EQ(t.due_ns, t.start_ns);
}

TEST(ClosedLoop, ManyLanesRunEveryOpOnce) {
  PhaseSpec spec;
  spec.open_loop = false;
  spec.lanes = 4;
  for (int i = 0; i < 1000; ++i) spec.shared_keys.push_back(i);
  for (int i = 0; i < 50; ++i) spec.ordered_keys.push_back(i * 20);
  spec.deadline_ns = 60'000 * kMs;
  std::mutex mu;
  std::vector<int> seen(1050, 0);
  std::vector<std::size_t> ordered_lanes;
  const PhaseResult r = run_phase(spec, [&](std::size_t lane, bool ordered,
                                            std::size_t i) {
    const std::lock_guard<std::mutex> lock(mu);
    ++seen[ordered ? 1000 + i : i];
    if (ordered) ordered_lanes.push_back(lane);
  });
  EXPECT_EQ(r.completed(), 1050u);
  for (const int count : seen) EXPECT_EQ(count, 1);
  for (const std::size_t lane : ordered_lanes) EXPECT_EQ(lane, 0u);
}

TEST(Spans, SelfTimeSubtractsTheUnionOfClippedChildren) {
  const std::vector<Span> spans = {
      {"root", 1, -1, 0, 100},  // 0
      {"a", 1, 0, 10, 30},      // 1
      {"b", 1, 0, 20, 50},      // 2: overlaps a
      {"c", 1, 0, 90, 120},     // 3: runs past its parent
      {"d", 1, 1, 12, 14},      // 4: grandchild, inside a
  };
  const std::vector<double> self = self_times_ns(spans);
  EXPECT_DOUBLE_EQ(self[0], 100.0 - 40.0 - 10.0);  // [10,50] + [90,100]
  EXPECT_DOUBLE_EQ(self[1], 18.0);
  EXPECT_DOUBLE_EQ(self[2], 30.0);
  EXPECT_DOUBLE_EQ(self[3], 30.0);
  EXPECT_DOUBLE_EQ(self[4], 2.0);

  const auto totals = span_totals({spans, {{"a", 2, -1, 0, 5}}});
  EXPECT_EQ(totals.at("a").calls, 2u);
  EXPECT_DOUBLE_EQ(totals.at("a").total_ns, 25.0);
  EXPECT_DOUBLE_EQ(totals.at("a").self_ns, 23.0);
}

TEST(Spans, DisabledTracerRecordsNothing) {
  Tracer off(false, 2);
  { const Scope s(off, 1, "x", 0); }
  EXPECT_TRUE(off.lanes()[1].empty());
  Tracer on(true, 2);
  {
    const Scope outer(on, 1, "outer", 7);
    const Scope inner(on, 1, "inner", 7, outer.index());
  }
  ASSERT_EQ(on.lanes()[1].size(), 2u);
  EXPECT_EQ(on.lanes()[1][1].parent, 0);
  EXPECT_LE(on.lanes()[1][0].start_ns, on.lanes()[1][1].start_ns);
  EXPECT_GE(on.lanes()[1][0].end_ns, on.lanes()[1][1].end_ns);
}

TEST(Inputs, SameSeedSameTrace) {
  for (const bool write_mix : {false, true}) {
    const ServeTraceDigest a = serve_trace_digest(7, write_mix, 4.0);
    const ServeTraceDigest b = serve_trace_digest(7, write_mix, 4.0);
    const ServeTraceDigest c = serve_trace_digest(8, write_mix, 4.0);
    EXPECT_EQ(a.hash, b.hash);
    EXPECT_EQ(a.ops, b.ops);
    EXPECT_EQ(a.open_ops, b.open_ops);
    EXPECT_GT(a.open_ops, 0u);
    EXPECT_NE(a.hash, c.hash);
  }
}

TEST(Metrics, JsonKeepsEveryDigit) {
  Metrics m;
  m.set("x", 0.1234567890123, "s");
  m.set("y", 3.0, "count");
  EXPECT_EQ(m.json(),
            "{\"x\": {\"value\": 0.1234567890123, \"unit\": \"s\"}, "
            "\"y\": {\"value\": 3, \"unit\": \"count\"}}");
  EXPECT_THROW(m.set("z", std::nan(""), "s"), std::runtime_error);
}

}  // namespace
}  // namespace perfbench
