#ifndef PERFBENCH_BENCH_LIB_H_
#define PERFBENCH_BENCH_LIB_H_

// The benchmark's own logic, kept apart from the workload code so it can
// be unit-tested (perfbench/tests/bench_lib_test.cc): percentiles over raw
// per-request samples, seeded request and delta generation, and open-loop
// due-time accounting.

#include <cstdint>
#include <vector>

#include "graph/delta.h"
#include "graph/graph.h"
#include "graph/types.h"

namespace perfbench {

// ---------------------------------------------------------------------------
// Percentiles over raw samples.
// ---------------------------------------------------------------------------

// Nearest-rank percentile: the smallest sample with at least q * n samples
// at or below it (q in (0, 1]). 0 for an empty input. `sorted` ascending.
double PercentileSorted(const std::vector<double>& sorted, double q);

// Number of samples strictly beyond the nearest-rank q-percentile.
size_t SamplesBeyond(size_t n, double q);

// The fixed ladder of reportable percentiles, as fractions.
const std::vector<double>& PercentileLadder();

// The highest ladder percentile with at least `min_beyond` samples beyond
// it, or 0 when even the median lacks them.
double HighestSupportedPercentile(size_t n, size_t min_beyond = 10);

struct SampleSummary {
  size_t count = 0;
  double p50 = 0.0;
  double p99 = 0.0;
  // Highest ladder percentile with >= 10 samples beyond it, and its value.
  double tail_q = 0.0;
  double tail = 0.0;
};

// Summarizes unsorted raw samples (copied and sorted internally).
SampleSummary Summarize(std::vector<double> samples);

// ---------------------------------------------------------------------------
// Seeded inputs. Every function is a pure function of its arguments.
// ---------------------------------------------------------------------------

// Nodes in [0, limit) with at least one out-arc (dangling nodes cannot anchor
// a walk), ascending.
std::vector<rtr::NodeId> NonDanglingNodes(const rtr::Graph& g, size_t limit);

// Up to `count` distinct query nodes, uniform over `candidates`, in a seeded
// random order.
std::vector<rtr::NodeId> DistinctQueries(std::vector<rtr::NodeId> candidates,
                                         uint64_t seed, size_t count);

// A Zipf(exponent) stream of `length` queries, drawn with `stream_seed`,
// over a pool of `pool_size` distinct candidates picked and ranked with
// `pool_seed` (pool rank r drawn with probability proportional to
// 1 / (r + 1)^exponent).
std::vector<rtr::NodeId> ZipfStream(std::vector<rtr::NodeId> candidates,
                                    uint64_t pool_seed, uint64_t stream_seed,
                                    size_t pool_size, double exponent,
                                    size_t length);

// `count` evenly spaced due times in [start_ms, start_ms + span_ms): the
// midpoints of `count` equal slices.
std::vector<double> EvenDueTimes(int count, double start_ms, double span_ms);

// The id-stable prefix of `full` induced by its first `n` nodes: same node
// ids and types, arcs with both endpoints below `n`.
rtr::Graph PrefixGraph(const rtr::Graph& full, size_t n);

// Prefix growth: the base is the first `base_fraction` of the node range,
// and delta i takes the (base_fraction + i * step)-prefix to the next one,
// ending at the full graph. Delta i has base_generation i.
struct GrowthPlan {
  rtr::Graph base;
  std::vector<rtr::GraphDelta> deltas;
};
GrowthPlan MakeGrowthPlan(const rtr::Graph& full, double base_fraction,
                          int num_deltas);

// ---------------------------------------------------------------------------
// Open-loop accounting.
// ---------------------------------------------------------------------------

// One open-loop request, all times in milliseconds on one clock. A request
// that was never sent or never completed has send or done < 0.
struct OpenLoopRecord {
  double due = 0.0;
  double send = -1.0;
  double done = -1.0;
};

struct OpenLoopAccount {
  // Latency from due time to completion, for completed requests.
  std::vector<double> latencies;
  // Send time minus due time, for sent requests.
  SampleSummary lateness;
  size_t sent = 0;
  size_t completed = 0;
  // Window from the first due time to the last due time or completion,
  // whichever is later.
  double window_ms = 0.0;
  // The generator fell behind its schedule: lateness p99 exceeded the limit.
  bool generator_behind = false;
};

// Accounts the records whose due time lies in [from_ms, to_ms).
OpenLoopAccount AccountOpenLoop(const std::vector<OpenLoopRecord>& records,
                                double from_ms, double to_ms,
                                double max_lateness_p99_ms);

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_LIB_H_
