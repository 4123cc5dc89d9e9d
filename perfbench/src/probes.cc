// Per-layer probes of the traced pass: each times direct calls into one
// module's public functions on the workload's own graph and queries.
//
// This is the one translation unit of the benchmark binary that includes
// the operator-new interposer, so core.allocs_per_query counts every heap
// allocation in the process during the warm 2SBound pass.
#include "alloc_counter.h"

#include <algorithm>
#include <chrono>
#include <map>
#include <span>
#include <vector>

#include "bench_lib.h"
#include "core/bca.h"
#include "core/two_stage.h"
#include "core/twosbound.h"
#include "core/workspace.h"
#include "graph/snapshot.h"
#include "ranking/pagerank.h"
#include "util/dense_kernels.h"
#include "workloads.h"

namespace perfbench {
namespace {

using rtr::Graph;
using rtr::NodeId;
using rtr::Query;
using rtr::StatusOr;
using Clock = std::chrono::steady_clock;

double MicrosSince(Clock::time_point t0) {
  return std::chrono::duration<double, std::micro>(Clock::now() - t0).count();
}

double Median(std::vector<double> v) { return Summarize(std::move(v)).p50; }

double Mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double sum = 0.0;
  for (double x : v) sum += x;
  return sum / static_cast<double>(v.size());
}

// util: GatherDotF64 over every node's in-column, on the active dispatch.
void ProbeGather(const ProbeContext& ctx, Report* report) {
  const Graph& g = *ctx.graph;
  std::vector<double> x(g.num_nodes());
  for (size_t v = 0; v < x.size(); ++v) x[v] = 1.0 / static_cast<double>(v + 1);
  constexpr int kSweeps = 15;
  std::vector<double> ns_per_arc;
  double sink = 0.0;
  for (int s = 0; s < kSweeps; ++s) {
    const Clock::time_point t0 = Clock::now();
    Traced(*ctx.spans, "util.GatherDotF64", [&] {
      for (NodeId v = 0; v < g.num_nodes(); ++v) {
        std::span<const NodeId> idx = g.in_sources(v);
        std::span<const double> probs = g.in_probs(v);
        sink += rtr::util::GatherDotF64(idx.data(), probs.data(), idx.size(),
                                        x.data());
      }
    }, -1, 0, g.num_nodes());
    ns_per_arc.push_back(MicrosSince(t0) * 1000.0 /
                         static_cast<double>(g.num_arcs()));
  }
  report->Metric("util.gather_ns_per_arc", Median(ns_per_arc), "ns");
  report->Info("gather_checksum", sink);
}

// ranking: FRankInto / TRankInto per query (power iteration on the
// ParallelFor pool).
void ProbeRanking(const ProbeContext& ctx, Report* report) {
  constexpr size_t kQueries = 3;
  rtr::ranking::WalkParams walk;
  walk.alpha = ctx.params.alpha;
  std::vector<double> out, scratch, f_ms, t_ms;
  for (size_t i = 0; i < std::min(kQueries, ctx.queries.size()); ++i) {
    const Query q{ctx.queries[i]};
    Clock::time_point t0 = Clock::now();
    Traced(*ctx.spans, "ranking.FRankInto", [&] {
      rtr::ranking::FRankInto(*ctx.graph, q, walk, &out, &scratch);
    });
    f_ms.push_back(MicrosSince(t0) / 1000.0);
    t0 = Clock::now();
    Traced(*ctx.spans, "ranking.TRankInto", [&] {
      rtr::ranking::TRankInto(*ctx.graph, q, walk, &out, &scratch);
    });
    t_ms.push_back(MicrosSince(t0) / 1000.0);
  }
  report->Metric("ranking.frank_ms", Median(f_ms), "ms");
  report->Metric("ranking.trank_ms", Median(t_ms), "ms");
}

// core: 2SBound on a warm workspace (time, work counts, allocations), then
// the public BCA and bounder steps driven for as many rounds as 2SBound
// took on each query.
void ProbeCore(const ProbeContext& ctx, Report* report) {
  const Graph& g = *ctx.graph;
  rtr::core::TopKParams params = ctx.params;
  params.scheme = rtr::core::TopKScheme::k2SBound;
  rtr::core::QueryWorkspace ws;
  rtr::core::TopKResult result;
  std::map<NodeId, int> rounds;
  // Warm pass: grows every workspace and result buffer to its steady size.
  for (NodeId q : ctx.queries) {
    CHECK(rtr::core::TopKRoundTripRank(g, {q}, params, ws, &result).ok());
    rounds[q] = result.rounds;
  }
  std::vector<double> topk_ms, rounds_v, nodes_v, arcs_v;
  topk_ms.reserve(ctx.queries.size());
  rounds_v.reserve(ctx.queries.size());
  nodes_v.reserve(ctx.queries.size());
  arcs_v.reserve(ctx.queries.size());
  Query query(1);
  const uint64_t allocs_before = rtr::bench::AllocCount();
  for (NodeId q : ctx.queries) {
    query[0] = q;
    const Clock::time_point t0 = Clock::now();
    const rtr::Status s = Traced(*ctx.spans, "core.TopKRoundTripRank", [&] {
      return rtr::core::TopKRoundTripRank(g, query, params, ws, &result);
    });
    topk_ms.push_back(MicrosSince(t0) / 1000.0);
    CHECK(s.ok());
    rounds_v.push_back(result.rounds);
    nodes_v.push_back(static_cast<double>(result.active_nodes));
    arcs_v.push_back(static_cast<double>(result.active_arcs));
  }
  const uint64_t allocs = rtr::bench::AllocCount() - allocs_before;
  report->Metric("core.topk_ms", Median(topk_ms), "ms");
  report->Metric("core.rounds", Mean(rounds_v), "count");
  report->Metric("core.active_nodes", Mean(nodes_v), "count");
  report->Metric("core.active_arcs", Mean(arcs_v), "count");
  report->Metric("core.allocs_per_query",
                 static_cast<double>(allocs) /
                     static_cast<double>(ctx.queries.size()),
                 "count");

  std::vector<double> bca_us, fexp_us, fref_us, texp_us, tref_us;
  rtr::core::FBounderOptions fopt;
  fopt.alpha = params.alpha;
  fopt.pick_per_expansion = params.m_f;
  rtr::core::TBounderOptions topt;
  topt.alpha = params.alpha;
  topt.pick_per_expansion = params.m_t;
  auto timed = [&](std::vector<double>* out, const char* name, auto&& fn) {
    const Clock::time_point t0 = Clock::now();
    auto r = Traced(*ctx.spans, name, fn);
    out->push_back(MicrosSince(t0));
    return r;
  };
  for (NodeId q : ctx.queries) {
    const Query qv{q};
    const int n_rounds = std::max(rounds[q], 1);
    ws.BeginQuery(g.num_nodes());
    {
      rtr::core::Bca bca(g, qv, params.alpha, &ws);
      for (int r = 0; r < n_rounds; ++r) {
        if (timed(&bca_us, "core.Bca.ProcessBest",
                  [&] { return bca.ProcessBest(params.m_f); }) == 0) {
          break;
        }
      }
    }
    ws.BeginQuery(g.num_nodes());
    {
      rtr::core::FRankBounder f(g, qv, fopt, &ws);
      for (int r = 0; r < n_rounds; ++r) {
        if (!timed(&fexp_us, "core.FRankBounder.Expand",
                   [&] { return f.Expand(); })) {
          break;
        }
        timed(&fref_us, "core.FRankBounder.Refine", [&] {
          f.Refine();
          return 0;
        });
      }
    }
    ws.BeginQuery(g.num_nodes());
    {
      rtr::core::TRankBounder t(g, qv, topt, &ws);
      for (int r = 0; r < n_rounds; ++r) {
        if (!timed(&texp_us, "core.TRankBounder.Expand",
                   [&] { return t.Expand(); })) {
          break;
        }
        timed(&tref_us, "core.TRankBounder.Refine", [&] {
          t.Refine();
          return 0;
        });
      }
    }
  }
  report->Metric("core.bca_process_best_us", Median(bca_us), "us");
  report->Metric("core.fbound_expand_us", Median(fexp_us), "us");
  report->Metric("core.fbound_refine_us", Median(fref_us), "us");
  report->Metric("core.tbound_expand_us", Median(texp_us), "us");
  report->Metric("core.tbound_refine_us", Median(tref_us), "us");
}

// graph: snapshot loads (bulk and mapped), ApplyDelta with nothing else
// running, and GraphStore::Pin.
void ProbeGraph(const ProbeContext& ctx, Report* report) {
  std::vector<double> bulk_ms, mapped_ms, apply_ms;
  for (int i = 0; i < 3; ++i) {
    const Clock::time_point t0 = Clock::now();
    StatusOr<Graph> g = Traced(*ctx.spans, "graph.LoadGraphAuto", [&] {
      return rtr::LoadGraphAuto(ctx.snapshot, nullptr, rtr::MapMode::kNever);
    });
    bulk_ms.push_back(MicrosSince(t0) / 1000.0);
    CHECK(g.ok()) << g.status().ToString();
  }
  for (int i = 0; i < 5; ++i) {
    const Clock::time_point t0 = Clock::now();
    StatusOr<Graph> g = Traced(*ctx.spans, "graph.LoadGraphAuto", [&] {
      return rtr::LoadGraphAuto(ctx.snapshot, nullptr, rtr::MapMode::kRequire);
    });
    mapped_ms.push_back(MicrosSince(t0) / 1000.0);
    CHECK(g.ok()) << g.status().ToString();
  }
  report->Metric("graph.snapshot_load_bulk_ms", Median(bulk_ms), "ms");
  report->Metric("graph.snapshot_load_mapped_ms", Median(mapped_ms), "ms");

  StatusOr<Graph> base =
      rtr::LoadGraphAuto(ctx.inputs->base(), nullptr, rtr::MapMode::kNever);
  CHECK(base.ok()) << base.status().ToString();
  StatusOr<rtr::GraphDelta> delta =
      rtr::LoadGraphDeltaFromFile(ctx.inputs->delta(1));
  CHECK(delta.ok()) << delta.status().ToString();
  for (int i = 0; i < 3; ++i) {
    const Clock::time_point t0 = Clock::now();
    StatusOr<Graph> next = Traced(*ctx.spans, "graph.ApplyDelta", [&] {
      return rtr::ApplyDelta(*base, *delta);
    });
    apply_ms.push_back(MicrosSince(t0) / 1000.0);
    CHECK(next.ok()) << next.status().ToString();
  }
  report->Metric("graph.apply_delta_ms", Median(apply_ms), "ms");

  // Pin is a refcount bump under a mutex; many calls share one span.
  rtr::GraphStore store(std::move(base).value(), /*generation=*/1);
  constexpr int kPins = 20000;
  uint64_t gens = 0;
  const Clock::time_point t0 = Clock::now();
  Traced(*ctx.spans, "graph.GraphStore.Pin", [&] {
    for (int i = 0; i < kPins; ++i) gens += store.Pin().generation;
  }, -1, 0, kPins);
  report->Metric("graph.pin_us", MicrosSince(t0) / kPins, "us");
  report->Info("pin_checksum", static_cast<double>(gens));
}

}  // namespace

// dist/net: one Fetch call per owning shard and batch, as the AP issues them.
void RunFetchProbe(const ProbeContext& ctx, Report* report) {
  std::vector<double> per_query_ms, rtt_ms;
  if (ctx.remote != nullptr) {
    const rtr::dist::Cluster& cluster = *ctx.remote;
    rtr::core::QueryWorkspace ws;
    rtr::core::TopKResult result;
    std::vector<std::vector<NodeId>> by_owner(
        static_cast<size_t>(cluster.num_gps()));
    std::vector<rtr::dist::NodeRecord> records;
    for (NodeId q : ctx.queries) {
      CHECK(rtr::core::TopKRoundTripRank(*ctx.graph, {q}, ctx.params, ws,
                                         &result)
                .ok());
      for (auto& nodes : by_owner) nodes.clear();
      for (NodeId v : result.active_node_ids) {
        by_owner[static_cast<size_t>(cluster.OwnerOf(v))].push_back(v);
      }
      double total_ms = 0.0;
      for (int gp = 0; gp < cluster.num_gps(); ++gp) {
        const std::vector<NodeId>& nodes = by_owner[static_cast<size_t>(gp)];
        for (size_t at = 0; at < nodes.size();
             at += rtr::dist::kMaxRecordsPerRequest) {
          const std::vector<NodeId> batch(
              nodes.begin() + static_cast<long>(at),
              nodes.begin() + static_cast<long>(std::min(
                                  nodes.size(),
                                  at + rtr::dist::kMaxRecordsPerRequest)));
          records.clear();
          const Clock::time_point t0 = Clock::now();
          const rtr::Status s = Traced(
              *ctx.spans, "net.RemoteGraphProcessor.Fetch",
              [&] { return cluster.source(gp).Fetch(batch, &records); });
          const double ms = MicrosSince(t0) / 1000.0;
          CHECK(s.ok()) << s.ToString();
          rtt_ms.push_back(ms);
          total_ms += ms;
        }
      }
      per_query_ms.push_back(total_ms);
    }
  }
  const SampleSummary rtt = Summarize(rtt_ms);
  report->Metric("dist.fetch_ms_per_query", Median(per_query_ms), "ms");
  report->Metric("net.fetch_rtt_p50_ms", rtt.p50, "ms");
  report->Metric("net.fetch_rtt_p99_ms", rtt.p99, "ms");
}

void RunEngineProbes(const ProbeContext& ctx, Report* report) {
  ProbeGather(ctx, report);
  ProbeRanking(ctx, report);
  ProbeCore(ctx, report);
  ProbeGraph(ctx, report);
}

}  // namespace perfbench
