#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "core/twosbound.h"
#include "dist/distributed_topk.h"
#include "graph/delta.h"
#include "graph/graph.h"
#include "graph/store.h"
#include "report.h"
#include "spans.h"

namespace perfbench {

// The generated graph inputs, as files: the full BibNet snapshot, the 95%
// prefix base and the prefix-growth deltas that take it to the full graph.
// They are the same for every workload seed; the seed draws the requests.
struct InputFiles {
  std::string dir;
  std::string graph() const { return dir + "/graph.rtrsnap"; }
  std::string base() const { return dir + "/base.rtrsnap"; }
  std::string delta(int i) const {
    return dir + "/delta-" + std::to_string(i) + ".rtrdelt";
  }
};

inline constexpr uint64_t kPapers = 40000;
inline constexpr double kBaseFraction = 0.95;
inline constexpr int kNumDeltas = 5;

// Generates the graph inputs into `dir` (which must exist).
int GenerateInputs(const std::string& dir);

struct RunOptions {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  InputFiles inputs;
  std::string spans_out;
};

// Names of the workloads, in a fixed order.
const std::vector<std::string>& WorkloadNames();

// Runs one workload and fills `report`. Returns 0, or 2 on a usage or
// set-up error (with a message on stderr).
int RunWorkload(const RunOptions& options, Report* report);

// Everything the per-layer probes (probes.cc) need from a workload.
struct ProbeContext {
  const rtr::Graph* graph = nullptr;
  std::vector<rtr::NodeId> queries;
  rtr::core::TopKParams params;
  // The remote cluster on dist-tcp; null elsewhere.
  const rtr::dist::Cluster* remote = nullptr;
  const InputFiles* inputs = nullptr;
  std::string snapshot;
  SpanLog* spans = nullptr;
};

// Direct calls into the public functions of util, ranking, core and graph
// on the workload's graph and queries.
void RunEngineProbes(const ProbeContext& ctx, Report* report);

// RecordSource::Fetch of each probe query's active set from the remote
// shards (dist-tcp); reports zeros where the workload has no cluster.
void RunFetchProbe(const ProbeContext& ctx, Report* report);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
