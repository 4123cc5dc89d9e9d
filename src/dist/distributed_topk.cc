#include "dist/distributed_topk.h"

#include <algorithm>
#include <iterator>
#include <memory>
#include <string>
#include <utility>

#include "graph/snapshot.h"
#include "util/logging.h"
#include "util/timer.h"

namespace rtr::dist {

GraphProcessor::GraphProcessor(const Graph& g, int id, int num_gps)
    : graph_(&g), id_(id), num_gps_(num_gps) {
  CHECK_GE(id, 0);
  CHECK_LT(id, num_gps);
  size_t arcs = 0;
  for (NodeId v = static_cast<NodeId>(id); v < g.num_nodes();
       v += static_cast<NodeId>(num_gps)) {
    owned_nodes_.push_back(v);
    arcs += g.out_degree(v) + g.in_degree(v);
  }
  stored_bytes_ =
      owned_nodes_.size() * (sizeof(NodeId) + 2 * sizeof(size_t)) +
      arcs * (sizeof(NodeId) + sizeof(double));
}

namespace {

// A fetch that finished inside Send: the in-process tier has no wire to
// wait on.
class ServedFetch : public PendingFetch {
 public:
  Status Collect(std::vector<NodeRecord>* out) override {
    RTR_RETURN_IF_ERROR(status);
    out->insert(out->end(), std::make_move_iterator(records.begin()),
                std::make_move_iterator(records.end()));
    return Status::OK();
  }

  Status status;
  std::vector<NodeRecord> records;
};

}  // namespace

std::unique_ptr<PendingFetch> GraphProcessor::Send(
    const std::vector<NodeId>& nodes) const {
  fetch_requests_.Add(1);
  auto served = std::make_unique<ServedFetch>();
  for (NodeId v : nodes) {
    if (!Owns(v)) {
      served->status = Status::InvalidArgument(
          "GP " + std::to_string(id_) + " does not own node " +
          std::to_string(v));
      return served;
    }
    if (v >= graph_->num_nodes()) {
      served->status = Status::OutOfRange("node " + std::to_string(v) +
                                          " beyond GP " +
                                          std::to_string(id_) + "'s stripe");
      return served;
    }
  }
  served->records.reserve(nodes.size());
  auto copy = [](auto* column, auto span) {
    column->assign(span.begin(), span.end());
  };
  for (NodeId v : nodes) {
    NodeRecord record;
    record.node = v;
    copy(&record.out_targets, graph_->out_targets(v));
    copy(&record.out_probs, graph_->out_probs(v));
    copy(&record.in_sources, graph_->in_sources(v));
    copy(&record.in_probs, graph_->in_probs(v));
    records_served_.Add(1);
    bytes_served_.Add(record.WireBytes());
    served->records.push_back(std::move(record));
  }
  return served;
}

Cluster::Cluster(std::shared_ptr<const Graph> graph, int num_gps,
                 uint64_t generation)
    : graph_(std::move(graph)), generation_(generation) {
  CHECK(graph_ != nullptr) << "a cluster needs a graph";
  CHECK_GE(num_gps, 1) << "a cluster needs at least one graph processor";
  gps_.reserve(static_cast<size_t>(num_gps));
  for (int id = 0; id < num_gps; ++id) {
    gps_.emplace_back(*graph_, id, num_gps);
    total_stored_bytes_ += gps_.back().stored_bytes();
  }
}

Cluster::Cluster(std::shared_ptr<const Graph> graph,
                 std::vector<std::unique_ptr<RecordSource>> sources,
                 uint64_t generation)
    : graph_(std::move(graph)),
      generation_(generation),
      sources_(std::move(sources)) {
  CHECK(graph_ != nullptr) << "a cluster needs a graph";
  CHECK_GE(sources_.size(), 1u) << "a remote cluster needs record sources";
  for (const std::unique_ptr<RecordSource>& source : sources_) {
    CHECK(source != nullptr) << "remote cluster sources must be non-null";
  }
}

const RecordSource& Cluster::source(int gp) const {
  CHECK_GE(gp, 0);
  CHECK_LT(gp, num_gps());
  if (remote()) return *sources_[static_cast<size_t>(gp)];
  return gps_[static_cast<size_t>(gp)];
}

uint64_t Cluster::total_fetch_requests() const {
  uint64_t total = 0;
  for (int gp = 0; gp < num_gps(); ++gp) total += fetch_requests(gp);
  return total;
}

uint64_t Cluster::total_records_served() const {
  uint64_t total = 0;
  for (int gp = 0; gp < num_gps(); ++gp) total += records_served(gp);
  return total;
}

uint64_t Cluster::total_bytes_served() const {
  uint64_t total = 0;
  for (int gp = 0; gp < num_gps(); ++gp) total += bytes_served(gp);
  return total;
}

WireTraffic Cluster::total_wire() const {
  WireTraffic total;
  for (int gp = 0; gp < num_gps(); ++gp) total += wire(gp);
  return total;
}

StatusOr<std::unique_ptr<Cluster>> Cluster::FromGraphFile(
    const std::string& path, int num_gps, MapMode map_mode) {
  uint64_t generation = 0;
  StatusOr<Graph> loaded = LoadGraphAuto(path, &generation, map_mode);
  RTR_RETURN_IF_ERROR(loaded.status());
  return std::make_unique<Cluster>(
      std::make_shared<const Graph>(std::move(loaded).value()), num_gps,
      generation);
}

namespace {

// Cross-checks one GP response record against the AP-side graph; any
// divergence means the shard storage or the fetch path is corrupt.
Status ValidateRecord(const Graph& g, const NodeRecord& record) {
  auto equal = [](const auto& got, auto want) {
    return std::equal(got.begin(), got.end(), want.begin(), want.end());
  };
  bool ok = equal(record.out_targets, g.out_targets(record.node)) &&
            equal(record.out_probs, g.out_probs(record.node)) &&
            equal(record.in_sources, g.in_sources(record.node)) &&
            equal(record.in_probs, g.in_probs(record.node));
  if (!ok) {
    return Status::Internal("GP record for node " +
                            std::to_string(record.node) +
                            " does not match the graph");
  }
  return Status::OK();
}

}  // namespace

StatusOr<DistributedTopKResult> DistributedTopK(
    const Cluster& cluster, const Query& query,
    const core::TopKParams& params, core::QueryWorkspace* workspace) {
  const Graph& g = cluster.graph();
  WallTimer timer;

  if (params.scheme == core::TopKScheme::kNaive) {
    // kNaive touches the whole graph and reports no active_node_ids, so an
    // active-set replay would claim zero traffic for a full-graph scan.
    return Status::InvalidArgument(
        "kNaive has no active-set replay; use a bounded top-K scheme");
  }

  // The AP runs 2SBound; every node id in active_node_ids is a record it had
  // to pull from the owning GP while expanding the two neighborhoods. The
  // caller's workspace (when provided) makes the run allocation-free.
  core::QueryWorkspace local_ws;
  StatusOr<core::TopKResult> local = core::TopKRoundTripRank(
      g, query, params, workspace != nullptr ? *workspace : local_ws);
  if (!local.ok()) return local.status();

  // Replay the active set as batched per-GP fetches.
  std::vector<std::vector<NodeId>> per_gp(
      static_cast<size_t>(cluster.num_gps()));
  for (NodeId v : local->active_node_ids) {
    per_gp[static_cast<size_t>(cluster.OwnerOf(v))].push_back(v);
  }

  // Send every batch before collecting any reply: each GP serves its
  // batches while the others serve theirs, and each remote peer's reader
  // thread verifies its replies in parallel. Replies are collected in send
  // order, so the assembled working set is the same as with one fetch at a
  // time.
  struct SentBatch {
    size_t gp;
    size_t begin;
    size_t end;
    std::unique_ptr<PendingFetch> fetch;
  };
  std::vector<SentBatch> sent;
  std::vector<NodeId> batch;
  for (size_t gp = 0; gp < per_gp.size(); ++gp) {
    const std::vector<NodeId>& wanted = per_gp[gp];
    for (size_t begin = 0; begin < wanted.size();
         begin += kMaxRecordsPerRequest) {
      size_t end = std::min(begin + kMaxRecordsPerRequest, wanted.size());
      batch.assign(wanted.begin() + begin, wanted.begin() + end);
      sent.push_back({gp, begin, end,
                      cluster.source(static_cast<int>(gp)).Send(batch)});
    }
  }

  DistributedTopKResult result;
  result.requests_sent = sent.size();
  std::vector<NodeRecord> active_records;  // the AP's assembled working set
  active_records.reserve(local->active_node_ids.size());
  for (SentBatch& s : sent) {
    const size_t before = active_records.size();
    RTR_RETURN_IF_ERROR(s.fetch->Collect(&active_records));
    const size_t requested = s.end - s.begin;
    if (active_records.size() - before != requested) {
      return Status::Internal("GP " + std::to_string(s.gp) + " served " +
                              std::to_string(active_records.size() -
                                             before) +
                              " records for a request of " +
                              std::to_string(requested));
    }
    for (size_t j = 0; j < requested; ++j) {
      const NodeRecord& record = active_records[before + j];
      const NodeId want = per_gp[s.gp][s.begin + j];
      if (record.node != want) {
        return Status::Internal("GP " + std::to_string(s.gp) +
                                " served node " +
                                std::to_string(record.node) + " where node " +
                                std::to_string(want) + " was requested");
      }
      ++result.active_nodes;
      result.active_set_bytes += record.WireBytes();
    }
  }

  if (result.active_nodes != local->active_node_ids.size()) {
    return Status::Internal("GP replay served " +
                            std::to_string(result.active_nodes) +
                            " records for an active set of " +
                            std::to_string(local->active_node_ids.size()));
  }
  // End of AP-visible work; the cross-check below exists only to keep the
  // simulation honest and stays outside the timed window.
  result.query_millis = timer.ElapsedMillis();

  for (const NodeRecord& record : active_records) {
    RTR_RETURN_IF_ERROR(ValidateRecord(g, record));
  }

  result.topk = std::move(*local);
  return result;
}

}  // namespace rtr::dist
