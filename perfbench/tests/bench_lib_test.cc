#include "bench_lib.h"

#include <algorithm>
#include <set>
#include <vector>

#include <gtest/gtest.h>

#include "datasets/bibnet.h"
#include "graph/delta.h"

namespace perfbench {
namespace {

std::vector<double> Iota(int n) {
  std::vector<double> v(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) v[static_cast<size_t>(i)] = i + 1;
  return v;
}

TEST(PercentileTest, NearestRankOnSortedSamples) {
  const std::vector<double> v = Iota(100);  // 1..100
  EXPECT_EQ(PercentileSorted(v, 0.50), 50.0);
  EXPECT_EQ(PercentileSorted(v, 0.99), 99.0);
  EXPECT_EQ(PercentileSorted(v, 1.0), 100.0);
  EXPECT_EQ(PercentileSorted(v, 0.001), 1.0);
  EXPECT_EQ(PercentileSorted({}, 0.5), 0.0);
  EXPECT_EQ(PercentileSorted({7.0}, 0.99), 7.0);
}

TEST(PercentileTest, SamplesBeyondCountsStrictlyAbove) {
  EXPECT_EQ(SamplesBeyond(100, 0.99), 1u);
  EXPECT_EQ(SamplesBeyond(1000, 0.99), 10u);
  EXPECT_EQ(SamplesBeyond(20, 0.50), 10u);
  EXPECT_EQ(SamplesBeyond(0, 0.50), 0u);
}

TEST(PercentileTest, HighestSupportedNeedsTenBeyond) {
  EXPECT_EQ(HighestSupportedPercentile(19), 0.0);  // median has 9 beyond
  EXPECT_EQ(HighestSupportedPercentile(20), 0.50);
  EXPECT_EQ(HighestSupportedPercentile(99), 0.75);
  EXPECT_EQ(HighestSupportedPercentile(100), 0.90);
  EXPECT_EQ(HighestSupportedPercentile(999), 0.95);
  EXPECT_EQ(HighestSupportedPercentile(1000), 0.99);
  EXPECT_EQ(HighestSupportedPercentile(10000), 0.999);
  EXPECT_EQ(HighestSupportedPercentile(100000), 0.9999);
}

TEST(PercentileTest, SummarizeSortsItsInput) {
  std::vector<double> v = Iota(1000);
  std::reverse(v.begin(), v.end());
  const SampleSummary s = Summarize(v);
  EXPECT_EQ(s.count, 1000u);
  EXPECT_EQ(s.p50, 500.0);
  EXPECT_EQ(s.p99, 990.0);
  EXPECT_EQ(s.tail_q, 0.99);
  EXPECT_EQ(s.tail, 990.0);
}

rtr::Graph SmallBibNet(uint64_t seed) {
  rtr::datasets::BibNetConfig config;
  config.seed = seed;
  config.num_papers = 600;
  config.num_authors = 150;
  return rtr::datasets::BibNet::Generate(config).value().graph();
}

TEST(InputsTest, DistinctQueriesAreDeterministicAndDistinct) {
  const rtr::Graph g = SmallBibNet(3);
  const std::vector<rtr::NodeId> cand = NonDanglingNodes(g, g.num_nodes());
  ASSERT_GT(cand.size(), 100u);
  for (rtr::NodeId v : cand) EXPECT_GT(g.out_degree(v), 0u);
  const auto a = DistinctQueries(cand, 11, 100);
  const auto b = DistinctQueries(cand, 11, 100);
  const auto c = DistinctQueries(cand, 12, 100);
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
  EXPECT_EQ(std::set<rtr::NodeId>(a.begin(), a.end()).size(), a.size());
}

TEST(InputsTest, ZipfStreamIsSeededAndSkewed) {
  std::vector<rtr::NodeId> cand(5000);
  for (size_t i = 0; i < cand.size(); ++i) {
    cand[i] = static_cast<rtr::NodeId>(i);
  }
  const auto a = ZipfStream(cand, 1, 5, 2000, 1.1, 20000);
  EXPECT_EQ(a, ZipfStream(cand, 1, 5, 2000, 1.1, 20000));
  const auto b = ZipfStream(cand, 1, 6, 2000, 1.1, 20000);
  EXPECT_NE(a, b);
  const std::set<rtr::NodeId> distinct(a.begin(), a.end());
  EXPECT_LE(distinct.size(), 2000u);
  // Another stream seed draws over the same pool.
  const auto pool = DistinctQueries(cand, 1, 2000);
  const std::set<rtr::NodeId> pool_set(pool.begin(), pool.end());
  for (rtr::NodeId q : b) EXPECT_EQ(pool_set.count(q), 1u);
  // The most popular rank is the pool's first entry.
  EXPECT_GT(std::count(a.begin(), a.end(), pool[0]),
            std::count(a.begin(), a.end(), pool[1]));
  // Zipf(1.1) over 2000 ranks: most requests repeat an earlier query.
  EXPECT_GT(1.0 - static_cast<double>(distinct.size()) / a.size(), 0.8);
}

TEST(InputsTest, EvenDueTimesAreSliceMidpoints) {
  EXPECT_EQ(EvenDueTimes(4, 1000.0, 8000.0),
            (std::vector<double>{2000.0, 4000.0, 6000.0, 8000.0}));
}

TEST(InputsTest, GrowthPlanIsDeterministicAndRebuildsTheFullGraph) {
  const rtr::Graph full = SmallBibNet(4);
  const GrowthPlan a = MakeGrowthPlan(full, 0.9, 3);
  const GrowthPlan b = MakeGrowthPlan(full, 0.9, 3);
  ASSERT_EQ(a.deltas.size(), 3u);
  EXPECT_EQ(a.base.num_nodes(), static_cast<size_t>(0.9 * full.num_nodes()));
  rtr::Graph g = a.base;
  for (size_t i = 0; i < a.deltas.size(); ++i) {
    EXPECT_EQ(a.deltas[i].base_generation, i);
    EXPECT_GT(a.deltas[i].NumOps(), 0u);
    EXPECT_EQ(a.deltas[i].added_arcs.size(), b.deltas[i].added_arcs.size());
    EXPECT_EQ(a.deltas[i].added_node_types, b.deltas[i].added_node_types);
    g = rtr::ApplyDelta(g, a.deltas[i]).value();
  }
  ASSERT_EQ(g.num_nodes(), full.num_nodes());
  ASSERT_EQ(g.num_arcs(), full.num_arcs());
  EXPECT_TRUE(std::equal(g.out_targets().begin(), g.out_targets().end(),
                         full.out_targets().begin()));
  EXPECT_TRUE(std::equal(g.out_probs().begin(), g.out_probs().end(),
                         full.out_probs().begin()));
}

TEST(OpenLoopTest, LatencyRunsFromDueTimeSoStallsCount) {
  // The generator stalls 50 ms before sending request 1; request 2 is sent
  // on time. Request 1's latency includes the stall.
  const std::vector<OpenLoopRecord> r = {
      {0.0, 0.1, 5.0}, {10.0, 60.0, 65.0}, {20.0, 60.1, 66.0}};
  const OpenLoopAccount a = AccountOpenLoop(r, 0.0, 100.0, 20.0);
  EXPECT_EQ(a.sent, 3u);
  EXPECT_EQ(a.completed, 3u);
  EXPECT_EQ(a.latencies, (std::vector<double>{5.0, 55.0, 46.0}));
  EXPECT_DOUBLE_EQ(a.window_ms, 66.0);
  EXPECT_DOUBLE_EQ(a.lateness.p99, 50.0);
  EXPECT_TRUE(a.generator_behind);
}

TEST(OpenLoopTest, WindowSelectsByDueTimeAndSkipsUnfinished) {
  const std::vector<OpenLoopRecord> r = {{0.0, 0.0, 1.0},
                                         {10.0, 10.5, 12.0},
                                         {20.0, 20.2, -1.0},  // refused
                                         {30.0, -1.0, -1.0},  // never sent
                                         {40.0, 40.0, 41.0}};
  const OpenLoopAccount a = AccountOpenLoop(r, 10.0, 40.0, 20.0);
  EXPECT_EQ(a.sent, 2u);
  EXPECT_EQ(a.completed, 1u);
  EXPECT_EQ(a.latencies, (std::vector<double>{2.0}));
  EXPECT_DOUBLE_EQ(a.window_ms, 20.0);  // due 10 .. due 30
  EXPECT_FALSE(a.generator_behind);
}

}  // namespace
}  // namespace perfbench
