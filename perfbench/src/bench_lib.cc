#include "bench_lib.h"

#include <algorithm>
#include <cmath>
#include <span>
#include <utility>

#include "graph/builder.h"
#include "util/logging.h"
#include "util/random.h"

namespace perfbench {

using rtr::Graph;
using rtr::NodeId;

double PercentileSorted(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  const size_t n = sorted.size();
  size_t rank = static_cast<size_t>(std::ceil(q * static_cast<double>(n)));
  rank = std::clamp<size_t>(rank, 1, n);
  return sorted[rank - 1];
}

size_t SamplesBeyond(size_t n, double q) {
  if (n == 0) return 0;
  size_t rank = static_cast<size_t>(std::ceil(q * static_cast<double>(n)));
  rank = std::clamp<size_t>(rank, 1, n);
  return n - rank;
}

const std::vector<double>& PercentileLadder() {
  static const std::vector<double> ladder = {0.50, 0.75, 0.90,  0.95,
                                             0.99, 0.995, 0.999, 0.9999};
  return ladder;
}

double HighestSupportedPercentile(size_t n, size_t min_beyond) {
  double best = 0.0;
  for (double q : PercentileLadder()) {
    if (SamplesBeyond(n, q) >= min_beyond) best = q;
  }
  return best;
}

SampleSummary Summarize(std::vector<double> samples) {
  std::sort(samples.begin(), samples.end());
  SampleSummary s;
  s.count = samples.size();
  s.p50 = PercentileSorted(samples, 0.50);
  s.p99 = PercentileSorted(samples, 0.99);
  s.tail_q = HighestSupportedPercentile(samples.size());
  s.tail = s.tail_q > 0.0 ? PercentileSorted(samples, s.tail_q) : 0.0;
  return s;
}

std::vector<NodeId> NonDanglingNodes(const Graph& g, size_t limit) {
  std::vector<NodeId> nodes;
  const size_t n = std::min(limit, g.num_nodes());
  for (NodeId v = 0; v < n; ++v) {
    if (g.out_degree(v) > 0) nodes.push_back(v);
  }
  return nodes;
}

std::vector<NodeId> DistinctQueries(std::vector<NodeId> candidates,
                                    uint64_t seed, size_t count) {
  rtr::Rng rng(seed);
  rng.Shuffle(candidates);
  if (candidates.size() > count) candidates.resize(count);
  return candidates;
}

std::vector<NodeId> ZipfStream(std::vector<NodeId> candidates,
                               uint64_t pool_seed, uint64_t stream_seed,
                               size_t pool_size, double exponent,
                               size_t length) {
  std::vector<NodeId> pool =
      DistinctQueries(std::move(candidates), pool_seed, pool_size);
  CHECK(!pool.empty()) << "no query candidates";
  rtr::ZipfSampler zipf(pool.size(), exponent);
  rtr::Rng rng(stream_seed);
  std::vector<NodeId> stream(length);
  for (NodeId& q : stream) q = pool[zipf.Sample(rng)];
  return stream;
}

std::vector<double> EvenDueTimes(int count, double start_ms, double span_ms) {
  std::vector<double> due;
  for (int i = 0; i < count; ++i) {
    due.push_back(start_ms + (i + 0.5) * span_ms / count);
  }
  return due;
}

Graph PrefixGraph(const Graph& full, size_t n) {
  rtr::GraphBuilder b;
  // Type 0 ("untyped") is pre-registered by the builder.
  for (size_t t = 1; t < full.type_names().size(); ++t) {
    b.AddNodeType(full.type_names()[t]);
  }
  for (NodeId v = 0; v < n; ++v) b.AddNode(full.node_type(v));
  for (NodeId v = 0; v < n; ++v) {
    std::span<const NodeId> targets = full.out_targets(v);
    std::span<const double> weights = full.out_arc_weights(v);
    for (size_t i = 0; i < targets.size(); ++i) {
      if (targets[i] < n) b.AddDirectedEdge(v, targets[i], weights[i]);
    }
  }
  return b.Build().value();
}

GrowthPlan MakeGrowthPlan(const Graph& full, double base_fraction,
                          int num_deltas) {
  CHECK_GT(num_deltas, 0);
  const size_t n = full.num_nodes();
  auto prefix_size = [&](int i) {
    if (i == num_deltas) return n;
    const double f = base_fraction + (1.0 - base_fraction) * i / num_deltas;
    return static_cast<size_t>(f * static_cast<double>(n));
  };
  Graph prev = PrefixGraph(full, prefix_size(0));
  GrowthPlan plan{prev, {}};
  for (int i = 1; i <= num_deltas; ++i) {
    Graph next = PrefixGraph(full, prefix_size(i));
    rtr::StatusOr<rtr::GraphDelta> delta = rtr::DiffGraphs(prev, next);
    CHECK(delta.ok()) << delta.status().ToString();
    delta->base_generation = static_cast<uint64_t>(i - 1);
    plan.deltas.push_back(std::move(delta).value());
    prev = std::move(next);
  }
  return plan;
}

OpenLoopAccount AccountOpenLoop(const std::vector<OpenLoopRecord>& records,
                                double from_ms, double to_ms,
                                double max_lateness_p99_ms) {
  OpenLoopAccount a;
  std::vector<double> lateness;
  double first_due = -1.0;
  double end = 0.0;
  for (const OpenLoopRecord& r : records) {
    if (r.due < from_ms || r.due >= to_ms) continue;
    if (first_due < 0.0) first_due = r.due;
    end = std::max(end, r.due);
    if (r.send >= 0.0) {
      ++a.sent;
      lateness.push_back(r.send - r.due);
    }
    if (r.done >= 0.0) {
      ++a.completed;
      a.latencies.push_back(r.done - r.due);
      end = std::max(end, r.done);
    }
  }
  a.window_ms = first_due < 0.0 ? 0.0 : end - first_due;
  a.lateness = Summarize(std::move(lateness));
  a.generator_behind = a.lateness.p99 > max_lateness_p99_ms;
  return a;
}

}  // namespace perfbench
