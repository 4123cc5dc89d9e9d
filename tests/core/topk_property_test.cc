// Property tests of the 2SBound engine across parameter configurations:
// the epsilon contract must hold regardless of expansion granularity, alpha
// or query multiplicity, and the returned bounds must always bracket the
// exact values. The oracle tests check certified answers against the kNaive
// exact ranking on BibNet and on a family of DAG fragments.
#include <set>
#include <string>

#include <gtest/gtest.h>

#include "core/twosbound.h"
#include "datasets/bibnet.h"
#include "graph/builder.h"
#include "util/random.h"

namespace rtr::core {
namespace {

Graph RandomGraph(uint64_t seed, size_t n = 80) {
  Rng rng(seed);
  GraphBuilder b;
  b.AddNodes(n);
  for (NodeId v = 1; v < n; ++v) {
    b.AddUndirectedEdge(v, static_cast<NodeId>(rng.NextUint64(v)),
                        0.5 + rng.NextDouble());
  }
  for (int extra = 0; extra < 120; ++extra) {
    NodeId u = static_cast<NodeId>(rng.NextUint64(n));
    NodeId v = static_cast<NodeId>(rng.NextUint64(n));
    if (u != v) b.AddDirectedEdge(u, v, 0.5 + rng.NextDouble());
  }
  return b.Build().value();
}

struct Config {
  int m_f;
  int m_t;
  double alpha;
  int query_size;
  std::string label;
};

class TopKConfigSweep : public ::testing::TestWithParam<Config> {};

TEST_P(TopKConfigSweep, EpsilonContractAndBracketing) {
  const Config& config = GetParam();
  Graph g = RandomGraph(314);
  Query query;
  for (int i = 0; i < config.query_size; ++i) {
    query.push_back(static_cast<NodeId>(i * 7));
  }
  TopKParams params;
  params.k = 6;
  params.epsilon = 0.003;
  params.m_f = config.m_f;
  params.m_t = config.m_t;
  params.alpha = config.alpha;
  TopKResult result = TopKRoundTripRank(g, query, params).value();
  ASSERT_TRUE(result.converged);
  ASSERT_EQ(result.entries.size(), 6u);

  std::vector<double> exact =
      ExactRoundTripRankScores(g, query, config.alpha);
  std::set<NodeId> returned;
  for (const TopKEntry& entry : result.entries) {
    returned.insert(entry.node);
    EXPECT_LE(entry.lower, exact[entry.node] + 1e-9);
    EXPECT_GE(entry.upper, exact[entry.node] - 1e-9);
  }
  double kth = exact[result.entries.back().node];
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    if (!returned.count(v)) {
      EXPECT_LT(exact[v], kth + params.epsilon) << "node " << v;
    }
  }
  for (size_t i = 0; i + 1 < result.entries.size(); ++i) {
    EXPECT_GT(exact[result.entries[i].node],
              exact[result.entries[i + 1].node] - params.epsilon);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Configs, TopKConfigSweep,
    ::testing::Values(Config{1, 1, 0.25, 1, "tiny_granularity"},
                      Config{100, 5, 0.25, 1, "paper_defaults"},
                      Config{500, 50, 0.25, 1, "coarse_granularity"},
                      Config{20, 3, 0.1, 1, "low_alpha"},
                      Config{20, 3, 0.5, 1, "high_alpha"},
                      Config{50, 5, 0.25, 2, "two_node_query"},
                      Config{50, 5, 0.25, 4, "four_node_query"}),
    [](const ::testing::TestParamInfo<Config>& info) {
      return info.param.label;
    });

TEST(TopKStressTest, ManyQueriesOnOneGraphAllSatisfyContract) {
  Graph g = RandomGraph(2718, 150);
  TopKParams params;
  params.k = 5;
  params.epsilon = 0.005;
  for (NodeId q = 0; q < 30; ++q) {
    TopKResult result = TopKRoundTripRank(g, {q}, params).value();
    ASSERT_TRUE(result.converged) << "query " << q;
    std::vector<double> exact = ExactRoundTripRankScores(g, {q});
    std::set<NodeId> returned;
    for (const TopKEntry& entry : result.entries) returned.insert(entry.node);
    double kth = exact[result.entries.back().node];
    for (NodeId v = 0; v < g.num_nodes(); ++v) {
      if (!returned.count(v)) {
        ASSERT_LT(exact[v], kth + params.epsilon)
            << "query " << q << " node " << v;
      }
    }
  }
}

TEST(TopKStressTest, DirectedAcyclicFragmentHandled) {
  // Mostly one-way structure: many nodes cannot complete round trips; the
  // engine must converge and only return nodes with r > 0 at the top.
  GraphBuilder b;
  b.AddNodes(40);
  for (NodeId v = 0; v + 1 < 40; ++v) b.AddDirectedEdge(v, v + 1, 1.0);
  b.AddDirectedEdge(5, 0, 1.0);  // small cycle at the head
  Graph g = b.Build().value();
  TopKParams params;
  params.k = 8;
  params.epsilon = 1e-5;
  TopKResult result = TopKRoundTripRank(g, {0}, params).value();
  ASSERT_TRUE(result.converged);
  std::vector<double> exact = ExactRoundTripRankScores(g, {0});
  // The cycle nodes 0..5 are the only ones with positive RoundTripRank.
  for (size_t i = 0; i < result.entries.size() && i < 6; ++i) {
    EXPECT_GT(exact[result.entries[i].node], 0.0);
    EXPECT_LE(result.entries[i].node, 5u);
  }
}

TEST(TopKStressTest, KLargerThanPositiveSupport) {
  GraphBuilder b;
  b.AddNodes(6);
  b.AddDirectedEdge(0, 1, 1.0);
  b.AddDirectedEdge(1, 0, 1.0);
  // nodes 2..5 disconnected
  Graph g = b.Build().value();
  TopKParams params;
  params.k = 5;
  params.epsilon = 1e-6;
  TopKResult result = TopKRoundTripRank(g, {0}, params).value();
  ASSERT_GE(result.entries.size(), 2u);
  EXPECT_EQ(result.entries[0].node, 0u);
  EXPECT_EQ(result.entries[1].node, 1u);
}

// Oracle: a certified 2SBound answer against the kNaive exact ranking. With
// valid bounds, Eq. 13, Eq. 14 and the lower-bound order imply that the
// i-th returned node's exact score lies within epsilon of the i-th exact
// score, for every i. An answer shorter than k (both neighbourhoods
// exhausted) leaves out only nodes the naive ranking scores within epsilon
// of zero.
void ExpectCertifiedWithinEpsilonOfNaive(const Graph& g, const Query& query,
                                         const TopKParams& params) {
  SCOPED_TRACE("query node " + std::to_string(query.front()));
  const TopKResult result = TopKRoundTripRank(g, query, params).value();
  ASSERT_TRUE(result.converged);
  TopKParams naive_params = params;
  naive_params.scheme = TopKScheme::kNaive;
  const TopKResult naive = TopKRoundTripRank(g, query, naive_params).value();
  const std::vector<double> exact =
      ExactRoundTripRankScores(g, query, params.alpha);
  ASSERT_LE(result.entries.size(), naive.entries.size());
  for (size_t i = 0; i < naive.entries.size(); ++i) {
    const double naive_score = naive.entries[i].lower;
    if (i >= result.entries.size()) {
      EXPECT_LE(naive_score, params.epsilon + 1e-9) << "rank " << i;
      continue;
    }
    const TopKEntry& entry = result.entries[i];
    EXPECT_LE(entry.lower, exact[entry.node] + 1e-9) << "rank " << i;
    EXPECT_GE(entry.upper, exact[entry.node] - 1e-9) << "rank " << i;
    EXPECT_NEAR(exact[entry.node], naive_score, params.epsilon + 1e-9)
        << "rank " << i << " node " << entry.node;
  }
}

TEST(TopKOracleTest, BibNetCertifiedAnswersMatchNaiveWithinEpsilon) {
  datasets::BibNetConfig config;
  config.num_areas = 2;
  config.topics_per_area = 3;
  config.num_authors = 300;
  config.num_papers = 1200;
  config.terms_per_topic = 20;
  config.shared_terms = 60;
  const datasets::BibNet net = datasets::BibNet::Generate(config).value();
  const Graph& g = net.graph();
  Rng rng(99);
  for (double epsilon : {0.01, 1e-3}) {
    TopKParams params;
    params.k = 10;
    params.epsilon = epsilon;
    for (int i = 0; i < 6; ++i) {
      NodeId q = 0;
      do {
        q = static_cast<NodeId>(rng.NextUint64(g.num_nodes()));
      } while (g.out_degree(q) == 0);
      ExpectCertifiedWithinEpsilonOfNaive(g, {q}, params);
    }
  }
}

// A DAG fragment: every arc points from a lower to a higher id except a
// few short back arcs, so most nodes cannot complete a round trip and many
// exact scores tie at zero.
Graph DagFragment(uint64_t seed, size_t n = 60) {
  Rng rng(seed);
  GraphBuilder b;
  b.AddNodes(n);
  for (NodeId v = 1; v < n; ++v) {
    b.AddDirectedEdge(static_cast<NodeId>(rng.NextUint64(v)), v,
                      0.5 + rng.NextDouble());
  }
  for (int extra = 0; extra < 40; ++extra) {
    NodeId u = static_cast<NodeId>(rng.NextUint64(n));
    NodeId v = static_cast<NodeId>(rng.NextUint64(n));
    if (u < v) b.AddDirectedEdge(u, v, 0.5 + rng.NextDouble());
  }
  for (int back = 0; back < 4; ++back) {
    NodeId v = static_cast<NodeId>(6 + rng.NextUint64(n - 6));
    NodeId u = v - static_cast<NodeId>(1 + rng.NextUint64(6));
    b.AddDirectedEdge(v, u, 0.5 + rng.NextDouble());
  }
  return b.Build().value();
}

TEST(TopKOracleTest, DagFragmentCertifiedAnswersMatchNaiveWithinEpsilon) {
  TopKParams params;
  params.k = 5;
  params.epsilon = 1e-4;
  for (uint64_t seed : {3, 5, 8, 13, 21}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    const Graph g = DagFragment(seed);
    for (NodeId q : {0u, 7u, 23u, 41u}) {
      ExpectCertifiedWithinEpsilonOfNaive(g, {q}, params);
    }
  }
}

}  // namespace
}  // namespace rtr::core
