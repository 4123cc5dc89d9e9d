#include "core/two_stage.h"

#include <gtest/gtest.h>

#include "datasets/bibnet.h"
#include "graph/builder.h"
#include "ranking/pagerank.h"
#include "util/random.h"

namespace rtr::core {
namespace {

Graph RandomGraph(uint64_t seed, size_t n = 50) {
  Rng rng(seed);
  GraphBuilder b;
  b.AddNodes(n);
  for (NodeId v = 1; v < n; ++v) {
    b.AddUndirectedEdge(v, static_cast<NodeId>(rng.NextUint64(v)),
                        0.5 + rng.NextDouble());
  }
  for (int extra = 0; extra < 60; ++extra) {
    NodeId u = static_cast<NodeId>(rng.NextUint64(n));
    NodeId v = static_cast<NodeId>(rng.NextUint64(n));
    if (u != v) b.AddDirectedEdge(u, v, 0.5 + rng.NextDouble());
  }
  return b.Build().value();
}

// Parameterized over random seeds: the sandwich property must hold at every
// expansion stage on arbitrary graphs.
class BounderSandwich : public ::testing::TestWithParam<uint64_t> {};

TEST_P(BounderSandwich, FRankBoundsSandwichTruth) {
  Graph g = RandomGraph(GetParam());
  ranking::WalkParams params;
  params.alpha = 0.25;
  std::vector<double> f = ranking::FRank(g, {0}, params);

  FBounderOptions options;
  options.pick_per_expansion = 3;
  FRankBounder bounder(g, {0}, options);
  for (int round = 0; round < 40; ++round) {
    if (!bounder.ExpandAndRefine()) break;
    for (NodeId v = 0; v < g.num_nodes(); ++v) {
      EXPECT_LE(bounder.Lower(v), f[v] + 1e-10)
          << "round " << round << " node " << v;
      EXPECT_GE(bounder.Upper(v), f[v] - 1e-10)
          << "round " << round << " node " << v;
    }
  }
}

TEST_P(BounderSandwich, TRankBoundsSandwichTruth) {
  Graph g = RandomGraph(GetParam() + 1000);
  ranking::WalkParams params;
  params.alpha = 0.25;
  std::vector<double> t = ranking::TRank(g, {0}, params);

  TBounderOptions options;
  options.pick_per_expansion = 2;
  TRankBounder bounder(g, {0}, options);
  for (int round = 0; round < 60; ++round) {
    for (NodeId v = 0; v < g.num_nodes(); ++v) {
      EXPECT_LE(bounder.Lower(v), t[v] + 1e-10)
          << "round " << round << " node " << v;
      EXPECT_GE(bounder.Upper(v), t[v] - 1e-10)
          << "round " << round << " node " << v;
    }
    if (!bounder.ExpandAndRefine()) break;
  }
}

TEST_P(BounderSandwich, GuptaSchemeBoundsAlsoValid) {
  Graph g = RandomGraph(GetParam() + 2000);
  ranking::WalkParams params;
  params.alpha = 0.25;
  std::vector<double> f = ranking::FRank(g, {1}, params);

  FBounderOptions options;
  options.pick_per_expansion = 3;
  options.paper_unseen_bound = false;
  options.stage2 = false;
  FRankBounder bounder(g, {1}, options);
  for (int round = 0; round < 40; ++round) {
    if (!bounder.ExpandAndRefine()) break;
    for (NodeId v = 0; v < g.num_nodes(); ++v) {
      EXPECT_LE(bounder.Lower(v), f[v] + 1e-10);
      EXPECT_GE(bounder.Upper(v), f[v] - 1e-10);
    }
  }
}

// A small BibNet (the dense_kernels_test shape). Venue and term hubs have
// rows whose arcs mostly leave the seen sets, so most of each Stage II
// upper sum comes from the unseen-mass term rather than seen neighbours.
const Graph& SmallBibNetGraph() {
  static const datasets::BibNet* net = [] {
    datasets::BibNetConfig config;
    config.num_areas = 2;
    config.topics_per_area = 3;
    config.num_authors = 300;
    config.num_papers = 1200;
    config.terms_per_topic = 20;
    config.shared_terms = 60;
    return new datasets::BibNet(datasets::BibNet::Generate(config).value());
  }();
  return net->graph();
}

TEST_P(BounderSandwich, BibNetBoundsSandwichTruthAfterEveryRefine) {
  const Graph& g = SmallBibNetGraph();
  Rng rng(GetParam());
  NodeId q = 0;
  do {
    q = static_cast<NodeId>(rng.NextUint64(g.num_nodes()));
  } while (g.out_degree(q) == 0 || g.in_degree(q) == 0);
  ranking::WalkParams params;
  params.alpha = 0.25;
  const std::vector<double> f = ranking::FRank(g, {q}, params);
  const std::vector<double> t = ranking::TRank(g, {q}, params);

  FBounderOptions f_options;
  f_options.pick_per_expansion = 20;
  FRankBounder f_bounder(g, {q}, f_options);
  TBounderOptions t_options;
  TRankBounder t_bounder(g, {q}, t_options);
  for (int round = 0; round < 30; ++round) {
    const bool f_progress = f_bounder.ExpandAndRefine();
    const bool t_progress = t_bounder.ExpandAndRefine();
    if (!f_progress && !t_progress) break;
    for (NodeId v = 0; v < g.num_nodes(); ++v) {
      ASSERT_LE(f_bounder.Lower(v), f[v] + 1e-10)
          << "query " << q << " round " << round << " node " << v;
      ASSERT_GE(f_bounder.Upper(v), f[v] - 1e-10)
          << "query " << q << " round " << round << " node " << v;
      ASSERT_LE(t_bounder.Lower(v), t[v] + 1e-10)
          << "query " << q << " round " << round << " node " << v;
      ASSERT_GE(t_bounder.Upper(v), t[v] - 1e-10)
          << "query " << q << " round " << round << " node " << v;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BounderSandwich,
                         ::testing::Values(11, 22, 33, 44, 55));

TEST(FRankBounderTest, BoundsTightenMonotonically) {
  Graph g = RandomGraph(7);
  FBounderOptions options;
  options.pick_per_expansion = 4;
  FRankBounder bounder(g, {0}, options);
  std::vector<double> prev_lower(g.num_nodes(), 0.0);
  std::vector<double> prev_upper(g.num_nodes(), 1.0);
  for (int round = 0; round < 30; ++round) {
    if (!bounder.ExpandAndRefine()) break;
    for (NodeId v = 0; v < g.num_nodes(); ++v) {
      EXPECT_GE(bounder.Lower(v), prev_lower[v] - 1e-14);
      EXPECT_LE(bounder.Upper(v), prev_upper[v] + 1e-14);
      prev_lower[v] = bounder.Lower(v);
      prev_upper[v] = bounder.Upper(v);
    }
  }
}

TEST(FRankBounderTest, ExhaustionMakesBoundsExact) {
  Graph g = RandomGraph(8, 20);
  ranking::WalkParams params;
  params.alpha = 0.25;
  std::vector<double> f = ranking::FRank(g, {0}, params);
  FBounderOptions options;
  options.pick_per_expansion = 50;
  FRankBounder bounder(g, {0}, options);
  for (int round = 0; round < 5000 && bounder.ExpandAndRefine(); ++round) {
  }
  EXPECT_TRUE(bounder.exhausted());
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    EXPECT_NEAR(bounder.Lower(v), f[v], 1e-8);
    EXPECT_NEAR(bounder.Upper(v), f[v], 1e-8);
  }
}

TEST(FRankBounderTest, Stage2TightensBounds) {
  // With identical expansion counts, Stage II bounds must be at least as
  // tight as Stage-I-only bounds.
  Graph g = RandomGraph(9);
  FBounderOptions with_stage2;
  with_stage2.pick_per_expansion = 3;
  FBounderOptions without_stage2 = with_stage2;
  without_stage2.stage2 = false;
  FRankBounder refined(g, {0}, with_stage2);
  FRankBounder unrefined(g, {0}, without_stage2);
  for (int round = 0; round < 10; ++round) {
    bool a = refined.ExpandAndRefine();
    bool b = unrefined.ExpandAndRefine();
    ASSERT_EQ(a, b);
    if (!a) break;
  }
  double refined_gap = 0.0, unrefined_gap = 0.0;
  for (NodeId v : refined.seen()) {
    refined_gap += refined.Upper(v) - refined.Lower(v);
    unrefined_gap += unrefined.Upper(v) - unrefined.Lower(v);
  }
  EXPECT_LE(refined_gap, unrefined_gap + 1e-12);
  EXPECT_LT(refined_gap, unrefined_gap);
}

TEST(TRankBounderTest, InitialStateMatchesPaper) {
  Graph g = RandomGraph(10);
  TBounderOptions options;
  TRankBounder bounder(g, {0}, options);
  // t-lower(q) = alpha, t-upper(q) = 1, unseen <= 1 - alpha (Eq. 22 may
  // already refine it further in construction).
  EXPECT_DOUBLE_EQ(bounder.Lower(0), 0.25);
  EXPECT_LE(bounder.UnseenUpper(), 0.75 + 1e-15);
  EXPECT_EQ(bounder.seen().size(), 1u);
}

TEST(TRankBounderTest, ClosesOnReachableSet) {
  // Directed chain 0 <- 1 <- 2: from 2 and 1 the walk reaches 0; expanding
  // S_t from q=0 pulls in 1, then 2, then closes.
  GraphBuilder b;
  b.AddNodes(4);
  b.AddDirectedEdge(1, 0, 1.0);
  b.AddDirectedEdge(2, 1, 1.0);
  // node 3 cannot reach 0.
  b.AddDirectedEdge(0, 3, 1.0);
  Graph g = b.Build().value();
  TBounderOptions options;
  TRankBounder bounder(g, {0}, options);
  int rounds = 0;
  while (bounder.ExpandAndRefine() && rounds < 100) ++rounds;
  EXPECT_TRUE(bounder.closed());
  EXPECT_EQ(bounder.UnseenUpper(), 0.0);
  EXPECT_TRUE(bounder.IsSeen(1));
  EXPECT_TRUE(bounder.IsSeen(2));
  EXPECT_FALSE(bounder.IsSeen(3));
  // Exact values: t(0,0)=0.25; t(0,1)=0.75*0.25; t(0,2)=0.75^2*0.25.
  EXPECT_NEAR(bounder.Lower(1), 0.75 * 0.25, 1e-9);
  EXPECT_NEAR(bounder.Upper(1), 0.75 * 0.25, 1e-9);
  EXPECT_NEAR(bounder.Lower(2), 0.75 * 0.75 * 0.25, 1e-9);
}

TEST(TRankBounderTest, UnseenUpperNonIncreasing) {
  Graph g = RandomGraph(12);
  TBounderOptions options;
  TRankBounder bounder(g, {0}, options);
  double prev = bounder.UnseenUpper();
  for (int round = 0; round < 50; ++round) {
    if (!bounder.ExpandAndRefine()) break;
    EXPECT_LE(bounder.UnseenUpper(), prev + 1e-15);
    prev = bounder.UnseenUpper();
  }
}

TEST(TRankBounderTest, FixpointTighterThanSingleSweep) {
  Graph g = RandomGraph(13);
  TBounderOptions fixpoint;
  TBounderOptions single = fixpoint;
  single.stage2_fixpoint = false;
  TRankBounder a(g, {0}, fixpoint);
  TRankBounder b(g, {0}, single);
  for (int round = 0; round < 8; ++round) {
    bool pa = a.ExpandAndRefine();
    bool pb = b.ExpandAndRefine();
    if (!pa || !pb) break;
  }
  double gap_fix = 0.0, gap_single = 0.0;
  for (NodeId v : a.seen()) gap_fix += a.Upper(v) - a.Lower(v);
  for (NodeId v : b.seen()) gap_single += b.Upper(v) - b.Lower(v);
  EXPECT_LT(gap_fix, gap_single);
}

TEST(TRankBounderTest, BorderFlagConsistent) {
  Graph g = RandomGraph(14);
  TBounderOptions options;
  TRankBounder bounder(g, {0}, options);
  for (int round = 0; round < 10; ++round) {
    if (!bounder.ExpandAndRefine()) break;
    for (NodeId v : bounder.seen()) {
      bool has_outside_in = false;
      for (NodeId source : g.in_sources(v)) {
        if (!bounder.IsSeen(source)) has_outside_in = true;
      }
      EXPECT_EQ(bounder.IsBorder(v), has_outside_in) << "node " << v;
    }
  }
}

}  // namespace
}  // namespace rtr::core
