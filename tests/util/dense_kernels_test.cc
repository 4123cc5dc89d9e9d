// The vectorized gather-multiply-accumulate kernel: the portable and AVX2
// bodies must be bit-identical (same fixed 4-lane association, no FMA) on
// every row the rankings gather, and GatherDotF64 must dispatch to the body
// DenseKernelIsa() names.
#include "util/dense_kernels.h"

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "datasets/bibnet.h"
#include "graph/graph.h"
#include "ranking/pagerank.h"
#include "util/random.h"

namespace rtr {
namespace {

// Reference implementation of the documented accumulation order: four
// independent lane accumulators over i+0..i+3, scalar tail into lane
// (i & 3), combined as (l0 + l1) + (l2 + l3). Both kernel bodies must
// reproduce these exact doubles.
double ReferenceGatherDot(const uint32_t* idx, const double* probs, size_t n,
                          const double* x) {
  double lanes[4] = {0.0, 0.0, 0.0, 0.0};
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    for (size_t j = 0; j < 4; ++j) {
      lanes[j] += probs[i + j] * x[idx[i + j]];
    }
  }
  for (; i < n; ++i) {
    lanes[i & 3] += probs[i] * x[idx[i]];
  }
  return (lanes[0] + lanes[1]) + (lanes[2] + lanes[3]);
}

struct GatherFixture {
  std::vector<uint32_t> idx;
  std::vector<double> probs;
  std::vector<double> x;
};

GatherFixture MakeFixture(uint64_t seed, size_t n, size_t num_nodes = 97) {
  Rng rng(seed);
  GatherFixture f;
  f.x.resize(num_nodes);
  for (double& v : f.x) v = rng.NextDouble() * 2.0 - 1.0;
  f.idx.resize(n);
  f.probs.resize(n);
  for (size_t i = 0; i < n; ++i) {
    f.idx[i] = static_cast<uint32_t>(rng.NextUint64(num_nodes));
    f.probs[i] = rng.NextDouble();
  }
  return f;
}

TEST(DenseKernelsTest, MatchesReferenceAtEveryLength) {
  // Lengths straddling the 4-wide main loop and its tail: the association
  // contract has to hold for every tail shape, in both bodies.
  std::vector<util::internal::GatherF64Fn> bodies = {
      util::internal::PortableKernel()};
  if (util::internal::Avx2Kernel() != nullptr) {
    bodies.push_back(util::internal::Avx2Kernel());
  }
  for (size_t n : {0u, 1u, 2u, 3u, 4u, 5u, 7u, 8u, 13u, 16u, 31u, 100u}) {
    GatherFixture f = MakeFixture(/*seed=*/n + 1, n);
    const double reference =
        ReferenceGatherDot(f.idx.data(), f.probs.data(), n, f.x.data());
    EXPECT_EQ(util::GatherDotF64(f.idx.data(), f.probs.data(), n, f.x.data()),
              reference)
        << "n=" << n;
    for (util::internal::GatherF64Fn body : bodies) {
      EXPECT_EQ(body(f.idx.data(), f.probs.data(), n, f.x.data()), reference)
          << "n=" << n;
    }
  }
}

TEST(DenseKernelsTest, DuplicateIndicesGatherCorrectly) {
  // Parallel arcs hit the same x[] slot repeatedly; the gather must read
  // it once per lane, not deduplicate.
  std::vector<uint32_t> idx = {3, 3, 3, 3, 3};
  std::vector<double> probs = {0.1, 0.2, 0.3, 0.4, 0.5};
  std::vector<double> x(8, 0.0);
  x[3] = 2.0;
  EXPECT_EQ(util::GatherDotF64(idx.data(), probs.data(), idx.size(), x.data()),
            ReferenceGatherDot(idx.data(), probs.data(), idx.size(), x.data()));
}

TEST(DenseKernelsTest, IsaReportsTheActiveDispatch) {
  // AVX2 whenever this host can run it, and GatherDotF64 returns what the
  // body the ISA string names returns.
  const std::string isa = util::DenseKernelIsa();
  EXPECT_EQ(isa, util::internal::Avx2Kernel() != nullptr ? "avx2"
                                                         : "portable");
  const util::internal::GatherF64Fn active =
      isa == "avx2" ? util::internal::Avx2Kernel()
                    : util::internal::PortableKernel();
  GatherFixture f = MakeFixture(/*seed=*/99, /*n=*/37);
  EXPECT_EQ(util::GatherDotF64(f.idx.data(), f.probs.data(), f.idx.size(),
                               f.x.data()),
            active(f.idx.data(), f.probs.data(), f.idx.size(), f.x.data()));
}

datasets::BibNetConfig SmallBibNetConfig() {
  datasets::BibNetConfig config;
  config.num_areas = 2;
  config.topics_per_area = 3;
  config.num_authors = 300;
  config.num_papers = 1200;
  config.terms_per_topic = 20;
  config.shared_terms = 60;
  return config;
}

// Every gather FRank and TRank make is one in-row (FRank) or out-row
// (TRank) of the graph against the current iterate. So the two bodies
// agree on every rank iff they agree bit for bit on every row of both
// directions. Checks `portable` against `other` on every row of g for x.
void ExpectRowsBitIdentical(const Graph& g,
                            util::internal::GatherF64Fn portable,
                            util::internal::GatherF64Fn other,
                            const std::vector<double>& x,
                            const std::string& label) {
  ASSERT_EQ(x.size(), g.num_nodes()) << label;
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    const std::span<const NodeId> in = g.in_sources(v);
    const std::span<const double> in_p = g.in_probs(v);
    EXPECT_EQ(portable(in.data(), in_p.data(), in.size(), x.data()),
              other(in.data(), in_p.data(), in.size(), x.data()))
        << label << " in-row " << v;
    const std::span<const NodeId> out = g.out_targets(v);
    const std::span<const double> out_p = g.out_probs(v);
    EXPECT_EQ(portable(out.data(), out_p.data(), out.size(), x.data()),
              other(out.data(), out_p.data(), out.size(), x.data()))
        << label << " out-row " << v;
  }
}

// The portable and AVX2 bodies side by side on every row of both
// directions, against a random iterate.
TEST(DenseKernelsTest, PortableAndSimdAreBitIdentical) {
  const util::internal::GatherF64Fn avx2 = util::internal::Avx2Kernel();
  if (avx2 == nullptr) GTEST_SKIP() << "this host has no AVX2 body";

  const datasets::BibNet net =
      datasets::BibNet::Generate(SmallBibNetConfig()).value();
  const Graph& g = net.graph();
  std::vector<double> random_x(g.num_nodes());
  Rng rng(17);
  for (double& v : random_x) v = rng.NextDouble() * 2.0 - 1.0;
  ExpectRowsBitIdentical(g, util::internal::PortableKernel(), avx2, random_x,
                         "random x");
}

// F-Rank and T-Rank do not depend on which body the dispatch picked: the
// portable body and the dispatched GatherDotF64 (AVX2 where this CPU has
// it) agree bit for bit on every row against the converged F-Rank and
// T-Rank vectors the power iterations actually feed them. On a host
// without AVX2 the dispatch is the portable body and this holds trivially.
TEST(DenseKernelsTest, FRankIsBitIdenticalAcrossSimdToggle) {
  const datasets::BibNet net =
      datasets::BibNet::Generate(SmallBibNetConfig()).value();
  const Graph& g = net.graph();
  const Query query = {0, 42};

  std::vector<double> f_rank, t_rank, scratch;
  ranking::FRankInto(g, query, {}, &f_rank, &scratch);
  ranking::TRankInto(g, query, {}, &t_rank, &scratch);
  ExpectRowsBitIdentical(g, util::internal::PortableKernel(),
                         &util::GatherDotF64, f_rank, "f-rank");
  ExpectRowsBitIdentical(g, util::internal::PortableKernel(),
                         &util::GatherDotF64, t_rank, "t-rank");
}

}  // namespace
}  // namespace rtr
