#include "core/two_stage.h"

#include <algorithm>
#include <cmath>

#include "util/dense_kernels.h"
#include "util/logging.h"

namespace rtr::core {
namespace {

// Prefetch distance of the compaction pass: the seen-node order is
// query-dependent (BCA discovery order), so the hardware prefetcher cannot
// predict the adjacency rows; software prefetch of the row ~8 nodes ahead
// hides the column-load latency. The offsets array itself is dense and
// hot, so reading offsets[w] up front costs nothing.
constexpr size_t kRefinePrefetchDistance = 8;

// Builds the workspace's compact Stage II rows for `nodes` from the
// adjacency columns (offsets, ends, probs) of the direction the sweeps
// read: row j keeps nodes[j]'s arcs to nodes with is_seen() in the
// original row order, and sums the probability of the others into
// refine_unseen_mass[j]. Valid for as long as the seen set is fixed, which
// holds for the whole of one Refine.
template <typename IsSeen>
void CompactSeenRows(const std::vector<NodeId>& nodes, const size_t* offsets,
                     const NodeId* ends, const double* probs, IsSeen is_seen,
                     QueryWorkspace* ws) {
  std::vector<size_t>& row_start = ws->refine_offsets;
  std::vector<NodeId>& neighbors = ws->refine_neighbors;
  std::vector<double>& arc_probs = ws->refine_probs;
  std::vector<double>& unseen_mass = ws->refine_unseen_mass;
  row_start.clear();
  neighbors.clear();
  arc_probs.clear();
  unseen_mass.clear();
  row_start.push_back(0);
  for (size_t j = 0; j < nodes.size(); ++j) {
    if (j + kRefinePrefetchDistance < nodes.size()) {
      const size_t row = offsets[nodes[j + kRefinePrefetchDistance]];
      util::PrefetchRead(ends + row);
      util::PrefetchRead(probs + row);
    }
    const NodeId v = nodes[j];
    double mass = 0.0;
    for (size_t i = offsets[v]; i < offsets[v + 1]; ++i) {
      if (is_seen(ends[i])) {
        neighbors.push_back(ends[i]);
        arc_probs.push_back(probs[i]);
      } else {
        mass += probs[i];
      }
    }
    row_start.push_back(neighbors.size());
    unseen_mass.push_back(mass);
  }
}

// One Gauss-Seidel Stage II sweep (Eqs. 17-18) over the compact rows of
// `nodes`: a node's bounds come from its seen neighbours' current bounds,
// and every unseen neighbour contributes `unseen_upper` to the upper sum
// only, so they enter as one term. Returns the summed bound movement.
double SweepCompactRows(const std::vector<NodeId>& nodes,
                        const QueryWorkspace& ws, double one_minus_alpha,
                        double unseen_upper, std::vector<double>& lower,
                        std::vector<double>& upper) {
  const size_t* row_start = ws.refine_offsets.data();
  const NodeId* neighbors = ws.refine_neighbors.data();
  const double* arc_probs = ws.refine_probs.data();
  const double* unseen_mass = ws.refine_unseen_mass.data();
  const double* teleport = ws.teleport.data();
  double change = 0.0;
  for (size_t j = 0; j < nodes.size(); ++j) {
    double lo_sum = 0.0;
    double up_sum = 0.0;
    for (size_t i = row_start[j]; i < row_start[j + 1]; ++i) {
      lo_sum += arc_probs[i] * lower[neighbors[i]];
      up_sum += arc_probs[i] * upper[neighbors[i]];
    }
    up_sum += unseen_mass[j] * unseen_upper;
    const NodeId v = nodes[j];
    const double lo = teleport[v] + one_minus_alpha * lo_sum;
    const double up = teleport[v] + one_minus_alpha * up_sum;
    if (lo > lower[v]) {
      change += lo - lower[v];
      lower[v] = lo;
    }
    if (up < upper[v]) {
      change += upper[v] - up;
      upper[v] = up;
    }
    if (upper[v] < lower[v]) upper[v] = lower[v];  // fp guard
  }
  return change;
}

}  // namespace

// ---------------------------------------------------------------------------
// FRankBounder
// ---------------------------------------------------------------------------

FRankBounder::FRankBounder(const Graph& g, const Query& query,
                           const FBounderOptions& options, QueryWorkspace* ws)
    : graph_(g),
      options_(options),
      owned_ws_(ws == nullptr ? std::make_unique<QueryWorkspace>() : nullptr),
      ws_([&]() -> QueryWorkspace* {
        if (owned_ws_ == nullptr) return ws;
        owned_ws_->BeginQuery(g.num_nodes());
        return owned_ws_.get();
      }()),
      bca_(g, query, options.alpha, ws_) {
  CHECK_GT(options.pick_per_expansion, 0);
  // Builds (or reuses, when the TRankBounder of the same query got there
  // first) the shared teleport vector alpha * I(q, v) of Eqs. 17-18.
  ws_->Teleport(query, options.alpha);
}

bool FRankBounder::Expand() {
  if (exhausted()) return false;
  return bca_.ProcessBest(options_.pick_per_expansion) > 0;
}

void FRankBounder::Refine() {
  InitializeBounds();
  if (options_.stage2) RefineStage2();
}

void FRankBounder::InitializeBounds() {
  // Nodes seen for the first time since the last refinement were covered by
  // the previous unseen upper bound; they inherit it so their individual
  // bound never exceeds the bound that already applied to them.
  const std::vector<NodeId>& seen = bca_.seen();
  std::vector<double>& lower = ws_->f_lower;
  std::vector<double>& upper = ws_->f_upper;
  for (size_t i = initialized_count_; i < seen.size(); ++i) {
    upper[seen[i]] = std::min(upper[seen[i]], unseen_upper_);
  }
  initialized_count_ = seen.size();

  double fresh = options_.paper_unseen_bound ? bca_.UnseenUpperBound()
                                             : bca_.GuptaUnseenUpperBound();
  unseen_upper_ = std::min(unseen_upper_, fresh);
  const std::vector<double>& rho = bca_.rho();
  for (NodeId v : seen) {
    lower[v] = std::max(lower[v], rho[v]);
    upper[v] = std::min(upper[v], rho[v] + unseen_upper_);
    // Bounds must stay consistent even under fp noise.
    upper[v] = std::max(upper[v], lower[v]);
  }
}

void FRankBounder::RefineStage2() {
  // After InitializeBounds, f_lower > 0 holds exactly for BCA-seen nodes,
  // and BCA does not run during refinement.
  const std::vector<NodeId>& nodes = bca_.seen();
  CompactSeenRows(nodes, graph_.in_offsets().data(),
                  graph_.in_sources().data(), graph_.in_probs().data(),
                  [this](NodeId u) { return IsSeen(u); }, ws_);
  for (int sweep = 0; sweep < options_.max_refine_sweeps; ++sweep) {
    const double change =
        SweepCompactRows(nodes, *ws_, 1.0 - options_.alpha, unseen_upper_,
                         ws_->f_lower, ws_->f_upper);
    if (change < options_.refine_tolerance) break;
  }
}

// ---------------------------------------------------------------------------
// TRankBounder
// ---------------------------------------------------------------------------

TRankBounder::TRankBounder(const Graph& g, const Query& query,
                           const TBounderOptions& options, QueryWorkspace* ws)
    : graph_(g),
      options_(options),
      owned_ws_(ws == nullptr ? std::make_unique<QueryWorkspace>() : nullptr),
      ws_([&]() -> QueryWorkspace* {
        if (owned_ws_ == nullptr) return ws;
        owned_ws_->BeginQuery(g.num_nodes());
        return owned_ws_.get();
      }()) {
  CHECK_GT(options.pick_per_expansion, 0);
  CHECK_EQ(ws_->num_nodes(), g.num_nodes());
  const std::vector<double>& teleport = ws_->Teleport(query, options.alpha);
  // Stage I, first expansion (Sect. V-A3): S_t = {q}, lower = alpha * I,
  // upper = 1, unseen upper via Eq. 22.
  for (NodeId q : query) {
    CHECK_LT(q, g.num_nodes());
    if (ws_->t_in_seen[q]) continue;
    ws_->t_in_seen[q] = 1;
    ws_->t_seen.push_back(q);
    ws_->t_lower[q] = teleport[q];
  }
  for (NodeId q : ws_->t_seen) {
    int outside = 0;
    for (NodeId source : graph_.in_sources(q)) {
      if (!ws_->t_in_seen[source]) ++outside;
    }
    ws_->t_unseen_in[q] = outside;
    if (outside > 0) {
      ++border_count_;
      ws_->t_border.push_back(q);
    }
  }
  RecomputeUnseenUpper();
}

void TRankBounder::AddNode(NodeId v, double upper_init) {
  DCHECK(!ws_->t_in_seen[v]);
  ws_->t_in_seen[v] = 1;
  ws_->t_seen.push_back(v);
  ws_->t_lower[v] = ws_->teleport[v] > 0.0 ? ws_->teleport[v] : 0.0;
  ws_->t_upper[v] = upper_init;
}

void TRankBounder::CompactBorderList() {
  // Border membership is monotone: once unseen_in_count hits zero it stays
  // zero, so stale entries can simply be dropped.
  std::vector<NodeId>& border = ws_->t_border;
  size_t keep = 0;
  for (NodeId v : border) {
    if (ws_->t_unseen_in[v] > 0) border[keep++] = v;
  }
  border.resize(keep);
}

bool TRankBounder::Expand() {
  if (border_count_ == 0) return false;
  CompactBorderList();
  std::vector<NodeId>& border = ws_->t_border;
  DCHECK_EQ(border.size(), border_count_);

  // Pick up to m border nodes with the largest upper bounds.
  const std::vector<double>& upper = ws_->t_upper;
  size_t count =
      std::min<size_t>(options_.pick_per_expansion, border.size());
  std::partial_sort(
      border.begin(), border.begin() + count, border.end(),
      [&upper](NodeId a, NodeId b) { return upper[a] > upper[b]; });
  std::vector<NodeId>& picked = ws_->t_picked;
  picked.assign(border.begin(), border.begin() + count);

  // Bring all in-neighbors of the picked border nodes into S_t. The
  // workspace's stamped flags dedup nodes reachable through several picked
  // borders (epoch bump instead of clearing a hash set).
  std::vector<NodeId>& fresh = ws_->t_fresh;
  fresh.clear();
  StampedFlags& pending = ws_->t_pending;
  pending.NewEpoch();
  for (NodeId b : picked) {
    for (NodeId source : graph_.in_sources(b)) {
      if (!ws_->t_in_seen[source] && !pending.Test(source)) {
        pending.Set(source);
        fresh.push_back(source);
      }
    }
  }
  // Decrement the unseen-in counters of previously seen nodes that gain a
  // newly seen in-neighbor.
  for (NodeId u : fresh) {
    for (NodeId target : graph_.out_targets(u)) {
      if (ws_->t_in_seen[target]) {
        if (--ws_->t_unseen_in[target] == 0) --border_count_;
      }
    }
  }
  double upper_init = unseen_upper_;  // valid: these nodes were unseen
  for (NodeId u : fresh) AddNode(u, upper_init);
  for (NodeId u : fresh) {
    int outside = 0;
    for (NodeId source : graph_.in_sources(u)) {
      if (!ws_->t_in_seen[source]) ++outside;
    }
    ws_->t_unseen_in[u] = outside;
    if (outside > 0) {
      ++border_count_;
      border.push_back(u);
    }
  }
  return true;
}

void TRankBounder::Refine() {
  RecomputeUnseenUpper();
  RefineSweeps(options_.stage2_fixpoint ? options_.max_refine_sweeps : 1);
}

void TRankBounder::RefineSweeps(int sweeps) {
  // t_in_seen changes only in Expand, so S_t is fixed for every sweep.
  const std::vector<NodeId>& nodes = ws_->t_seen;
  const std::vector<uint8_t>& in_seen = ws_->t_in_seen;
  CompactSeenRows(nodes, graph_.out_offsets().data(),
                  graph_.out_targets().data(), graph_.out_probs().data(),
                  [&in_seen](NodeId u) { return in_seen[u] != 0; }, ws_);
  for (int sweep = 0; sweep < sweeps; ++sweep) {
    const double change =
        SweepCompactRows(nodes, *ws_, 1.0 - options_.alpha, unseen_upper_,
                         ws_->t_lower, ws_->t_upper);
    RecomputeUnseenUpper();
    if (change < options_.refine_tolerance) break;
  }
}

void TRankBounder::RecomputeUnseenUpper() {
  // Eq. 22: reaching q from outside must first enter through a border node,
  // costing at least one non-teleporting step.
  if (border_count_ == 0) {
    unseen_upper_ = 0.0;
    return;
  }
  double best = 0.0;
  for (NodeId v : ws_->t_border) {
    if (ws_->t_unseen_in[v] > 0) best = std::max(best, ws_->t_upper[v]);
  }
  double fresh = (1.0 - options_.alpha) * best;
  unseen_upper_ = std::min(unseen_upper_, fresh);
}

}  // namespace rtr::core
