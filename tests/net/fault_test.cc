// Scripted fault-injection suite for the RPC layer (the headline harness of
// the networked tier). Each test scripts a precise per-connection,
// per-frame fault on the server side (net/fault.h) and asserts the CLIENT's
// deterministic recovery: recoverable faults end in a retry with
// bit-identical records, a dead shard ends in a clean typed error, and
// nothing ever hangs — every wait in the client is bounded, so the whole
// suite runs under tight timeouts. Suite names match the CI TSan filter
// (Rpc|Transport|RemoteGraphProcessor).

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/twosbound.h"
#include "dist/distributed_topk.h"
#include "graph/builder.h"
#include "net/fault.h"
#include "net/gp_server.h"
#include "net/remote_gp.h"
#include "net/rpc_client.h"
#include "util/timer.h"

namespace rtr {
namespace {

Graph SmallRandomishGraph() {
  GraphBuilder b;
  NodeTypeId t = b.AddNodeType("n");
  const NodeId n = 60;
  b.AddNodes(n, t);
  for (NodeId u = 0; u < n; ++u) {
    for (int j = 1; j <= 3; ++j) {
      NodeId v = (u * 7 + static_cast<NodeId>(j) * 11) % n;
      if (v != u) b.AddUndirectedEdge(u, v, 1.0 + (u + j) % 5);
    }
  }
  return b.Build().value();
}

net::HelloPayload IdentityFor(const Graph& g, int shard, int num_gps,
                              uint64_t generation) {
  net::HelloPayload hello;
  hello.shard = static_cast<uint32_t>(shard);
  hello.num_gps = static_cast<uint32_t>(num_gps);
  hello.num_nodes = g.num_nodes();
  hello.generation = generation;
  return hello;
}

// Tight budgets so fault paths resolve in milliseconds, not the production
// defaults' seconds; every test asserts its own wall-clock ceiling.
net::RpcClientOptions FastOptions() {
  net::RpcClientOptions options;
  options.connect_timeout_ms = 1000;
  options.call_timeout_ms = 400;
  options.max_attempts = 3;
  options.backoff_initial_ms = 1;
  options.backoff_max_ms = 5;
  return options;
}

// One-shard fixture: a GpServer over the whole graph with a FaultInjector
// the test scripts, plus local ground truth for bit-identity checks.
class RpcFaultTest : public ::testing::Test {
 protected:
  void SetUp() override {
    graph_ = std::make_shared<const Graph>(SmallRandomishGraph());
    net::GpServerOptions options;
    options.fault_injector = &injector_;
    auto server = net::GpServer::Start(graph_, /*shard=*/0, /*num_gps=*/1,
                                       /*generation=*/0, options);
    ASSERT_TRUE(server.ok()) << server.status().ToString();
    server_ = std::move(*server);
  }

  // Fetches `wanted` through a fresh client and requires records
  // bit-identical to the loopback GraphProcessor's.
  void ExpectFetchMatchesLocal(net::RpcClient& client,
                               const std::vector<NodeId>& wanted) {
    std::vector<dist::NodeRecord> got;
    ASSERT_TRUE(client.Fetch(wanted, &got).ok());
    dist::GraphProcessor local(*graph_, 0, 1);
    std::vector<dist::NodeRecord> want;
    ASSERT_TRUE(local.Fetch(wanted, &want).ok());
    ASSERT_EQ(got.size(), want.size());
    for (size_t i = 0; i < want.size(); ++i) {
      EXPECT_EQ(got[i].node, want[i].node);
      EXPECT_EQ(got[i].out_targets, want[i].out_targets);
      EXPECT_EQ(got[i].out_probs, want[i].out_probs);
      EXPECT_EQ(got[i].in_sources, want[i].in_sources);
      EXPECT_EQ(got[i].in_probs, want[i].in_probs);
    }
  }

  std::shared_ptr<const Graph> graph_;
  net::FaultInjector injector_;
  std::unique_ptr<net::GpServer> server_;
  const std::vector<NodeId> wanted_ = {0, 5, 10, 15};
};

TEST_F(RpcFaultTest, SlowGpUnderTimeoutSucceedsWithoutRetry) {
  // Reply #1 (after the hello ack) delayed, but well under the 400ms call
  // budget: the client just waits it out.
  net::ConnectionScript script;
  script.write_faults = {{net::FaultOp::kNone, 0},
                         {net::FaultOp::kDelayWrite, 50}};
  injector_.Enqueue(std::move(script));

  net::RpcClient client("127.0.0.1", server_->port(),
                        IdentityFor(*graph_, 0, 1, 0), FastOptions());
  ExpectFetchMatchesLocal(client, wanted_);
  dist::WireTraffic w = client.wire();
  EXPECT_EQ(w.retries, 0u);
  EXPECT_EQ(w.timeouts, 0u);
  EXPECT_EQ(w.reconnects, 0u);
}

TEST_F(RpcFaultTest, SlowGpOverTimeoutRetriesOnFreshConnection) {
  // The first fetch reply is swallowed outright — from the client's side a
  // GP that stopped answering. The per-call deadline must fire, poison the
  // connection, and the retry on a fresh connection must succeed.
  net::ConnectionScript script;
  script.write_faults = {{net::FaultOp::kNone, 0},
                         {net::FaultOp::kDropWrite, 0}};
  injector_.Enqueue(std::move(script));

  net::RpcClient client("127.0.0.1", server_->port(),
                        IdentityFor(*graph_, 0, 1, 0), FastOptions());
  WallTimer timer;
  ExpectFetchMatchesLocal(client, wanted_);
  EXPECT_LT(timer.ElapsedMillis(), 5000.0);
  dist::WireTraffic w = client.wire();
  EXPECT_EQ(w.timeouts, 1u);
  EXPECT_EQ(w.retries, 1u);
  EXPECT_EQ(w.reconnects, 1u);
}

TEST_F(RpcFaultTest, CorruptChecksumRetriesAndStaysBitIdentical) {
  // The first fetch reply arrives with a flipped checksum byte. The client
  // must reject the frame (poisoned stream — nothing after it can be
  // trusted), reconnect, and serve the records bit-identically.
  net::ConnectionScript script;
  script.write_faults = {{net::FaultOp::kNone, 0},
                         {net::FaultOp::kCorruptChecksum, 0}};
  injector_.Enqueue(std::move(script));

  net::RpcClient client("127.0.0.1", server_->port(),
                        IdentityFor(*graph_, 0, 1, 0), FastOptions());
  ExpectFetchMatchesLocal(client, wanted_);
  dist::WireTraffic w = client.wire();
  EXPECT_EQ(w.retries, 1u);
  EXPECT_EQ(w.reconnects, 1u);
  EXPECT_EQ(w.timeouts, 0u);  // detected by checksum, not by deadline
}

TEST_F(RpcFaultTest, MidFrameDisconnectRetries) {
  // The connection dies half-way through the reply frame.
  net::ConnectionScript script;
  script.write_faults = {{net::FaultOp::kNone, 0},
                         {net::FaultOp::kShortWriteClose, 0}};
  injector_.Enqueue(std::move(script));

  net::RpcClient client("127.0.0.1", server_->port(),
                        IdentityFor(*graph_, 0, 1, 0), FastOptions());
  ExpectFetchMatchesLocal(client, wanted_);
  EXPECT_EQ(client.wire().retries, 1u);
}

TEST_F(RpcFaultTest, DisconnectBeforeReplyRetries) {
  // The connection dies between request and reply (no partial frame).
  net::ConnectionScript script;
  script.write_faults = {{net::FaultOp::kNone, 0},
                         {net::FaultOp::kCloseBeforeWrite, 0}};
  injector_.Enqueue(std::move(script));

  net::RpcClient client("127.0.0.1", server_->port(),
                        IdentityFor(*graph_, 0, 1, 0), FastOptions());
  ExpectFetchMatchesLocal(client, wanted_);
  EXPECT_EQ(client.wire().retries, 1u);
}

TEST_F(RpcFaultTest, RefusedConnectionReconnects) {
  // The first connection is cut at accept (handshake never answered); the
  // client must fail that dial with a retryable error and succeed on the
  // second connection.
  net::ConnectionScript refused;
  refused.refuse = true;
  injector_.Enqueue(std::move(refused));

  net::RpcClient client("127.0.0.1", server_->port(),
                        IdentityFor(*graph_, 0, 1, 0), FastOptions());
  ExpectFetchMatchesLocal(client, wanted_);
  EXPECT_GE(client.wire().retries, 1u);
}

TEST_F(RpcFaultTest, DeadGpIsACleanTypedErrorNotAHang) {
  injector_.set_dead(true);

  net::RpcClient client("127.0.0.1", server_->port(),
                        IdentityFor(*graph_, 0, 1, 0), FastOptions());
  std::vector<dist::NodeRecord> out;
  WallTimer timer;
  Status status = client.Fetch(wanted_, &out);
  // Typed, bounded, and empty-handed — never a hang, never partial data.
  EXPECT_EQ(status.code(), StatusCode::kUnavailable);
  EXPECT_LT(timer.ElapsedMillis(), 10000.0);
  EXPECT_TRUE(out.empty());
  EXPECT_EQ(client.wire().retries, 2u);  // max_attempts - 1

  // The shard comes back: the same client recovers on its own.
  injector_.set_dead(false);
  ExpectFetchMatchesLocal(client, wanted_);
}

TEST_F(RpcFaultTest, BackpressureShedsWithUnavailable) {
  net::RpcClientOptions options = FastOptions();
  // A cap below one request frame: admission must shed locally without
  // touching the wire and without retrying (retrying a shed is pointless).
  options.max_outstanding_bytes = 8;
  net::RpcClient client("127.0.0.1", server_->port(),
                        IdentityFor(*graph_, 0, 1, 0), options);
  std::vector<dist::NodeRecord> out;
  Status status = client.Fetch(wanted_, &out);
  EXPECT_EQ(status.code(), StatusCode::kUnavailable);
  EXPECT_NE(status.message().find("backpressure"), std::string::npos);
  dist::WireTraffic w = client.wire();
  EXPECT_EQ(w.sheds, 1u);
  EXPECT_EQ(w.retries, 0u);
  EXPECT_EQ(w.frames_sent, 0u);  // shed before any wire traffic
}

TEST_F(RpcFaultTest, FaultsExhaustOnlyAfterMaxAttempts) {
  // Every connection kills the first fetch reply: attempt 1, 2, and 3 all
  // fail, so the call must surface kUnavailable after exactly
  // max_attempts tries — bounded, not infinite, retrying.
  for (int i = 0; i < 3; ++i) {
    net::ConnectionScript script;
    script.write_faults = {{net::FaultOp::kNone, 0},
                           {net::FaultOp::kCloseBeforeWrite, 0}};
    injector_.Enqueue(std::move(script));
  }

  net::RpcClient client("127.0.0.1", server_->port(),
                        IdentityFor(*graph_, 0, 1, 0), FastOptions());
  std::vector<dist::NodeRecord> out;
  Status status = client.Fetch(wanted_, &out);
  EXPECT_EQ(status.code(), StatusCode::kUnavailable);
  EXPECT_EQ(client.wire().retries, 2u);
  EXPECT_TRUE(out.empty());
}

// Whole-stack check: DistributedTopK over a remote cluster whose shards
// misbehave per script must return rankings bit-identical to the loopback
// cluster (recoverable faults), or a clean typed error once a shard is
// truly dead — never a hang, never a wrong ranking.
TEST(RemoteGraphProcessorClusterTest, DegradedClusterStaysBitIdentical) {
  auto graph = std::make_shared<const Graph>(SmallRandomishGraph());
  constexpr int kNumGps = 3;

  std::vector<net::FaultInjector> injectors(kNumGps);
  std::vector<std::unique_ptr<net::GpServer>> servers;
  std::vector<std::string> endpoints;
  for (int shard = 0; shard < kNumGps; ++shard) {
    net::GpServerOptions options;
    options.fault_injector = &injectors[static_cast<size_t>(shard)];
    auto server = net::GpServer::Start(graph, shard, kNumGps, 0, options);
    ASSERT_TRUE(server.ok()) << server.status().ToString();
    endpoints.push_back("127.0.0.1:" + std::to_string((*server)->port()));
    servers.push_back(std::move(*server));
  }
  // Shard 0 corrupts its first post-handshake reply; shard 2 cuts its
  // connection before the first reply. Shard 1 behaves.
  {
    net::ConnectionScript corrupt;
    corrupt.write_faults = {{net::FaultOp::kNone, 0},
                            {net::FaultOp::kCorruptChecksum, 0}};
    injectors[0].Enqueue(std::move(corrupt));
    net::ConnectionScript cut;
    cut.write_faults = {{net::FaultOp::kNone, 0},
                        {net::FaultOp::kCloseBeforeWrite, 0}};
    injectors[2].Enqueue(std::move(cut));
  }

  auto remote =
      net::ConnectRemoteCluster(graph, 0, endpoints, FastOptions());
  ASSERT_TRUE(remote.ok()) << remote.status().ToString();
  dist::Cluster loopback(graph, kNumGps);

  core::TopKParams params;
  params.k = 5;
  const Query query = {3};
  auto remote_result = dist::DistributedTopK(**remote, query, params);
  auto loopback_result = dist::DistributedTopK(loopback, query, params);
  ASSERT_TRUE(remote_result.ok()) << remote_result.status().ToString();
  ASSERT_TRUE(loopback_result.ok()) << loopback_result.status().ToString();

  ASSERT_EQ(remote_result->topk.entries.size(),
            loopback_result->topk.entries.size());
  for (size_t i = 0; i < loopback_result->topk.entries.size(); ++i) {
    EXPECT_EQ(remote_result->topk.entries[i].node,
              loopback_result->topk.entries[i].node);
    EXPECT_DOUBLE_EQ(remote_result->topk.entries[i].lower,
                     loopback_result->topk.entries[i].lower);
    EXPECT_DOUBLE_EQ(remote_result->topk.entries[i].upper,
                     loopback_result->topk.entries[i].upper);
  }
  // Same record-level traffic as the simulation; real wire traffic and the
  // scripted recoveries on top.
  EXPECT_EQ(remote_result->active_set_bytes,
            loopback_result->active_set_bytes);
  dist::WireTraffic w = (*remote)->total_wire();
  EXPECT_GT(w.bytes_received, 0u);
  EXPECT_GE(w.retries, 2u);  // one per faulted shard

  // Now shard 1 dies for good: the same query must become a clean typed
  // error (assuming its stripe is touched), not a hang or a wrong answer.
  injectors[1].set_dead(true);
  for (std::unique_ptr<net::GpServer>& s : servers) {
    if (s->shard() == 1) s->Stop();
  }
  auto dead_result = dist::DistributedTopK(**remote, query, params);
  ASSERT_FALSE(dead_result.ok());
  EXPECT_EQ(dead_result.status().code(), StatusCode::kUnavailable);
}

// Split-phase fan-out under faults: DistributedTopK sends every per-GP
// batch before collecting any reply, so while one shard misbehaves the
// other shards' requests are already in flight. A scripted fault on one of
// three shards must end the query within max_attempts x call_timeout_ms,
// with either the bit-identical answer or a typed error. No call may stay
// registered and no backpressure byte may stay counted, and the next query
// must match the local engine bit for bit.
class RemoteGraphProcessorFanOutTest : public ::testing::Test {
 protected:
  static constexpr int kNumGps = 3;

  void SetUp() override {
    graph_ = std::make_shared<const Graph>(FanOutGraph());
    for (int shard = 0; shard < kNumGps; ++shard) {
      net::GpServerOptions options;
      options.fault_injector = &injectors_[shard];
      auto server = net::GpServer::Start(graph_, shard, kNumGps, 0, options);
      ASSERT_TRUE(server.ok()) << server.status().ToString();
      endpoints_.push_back("127.0.0.1:" + std::to_string((*server)->port()));
      servers_.push_back(std::move(*server));
    }
    options_ = FastOptions();
    options_.call_timeout_ms = 500;
    params_.k = 8;
    // A tight epsilon grows the active set to well over a thousand nodes,
    // so every shard gets several batches and a shard's connection carries
    // several calls at once.
    params_.epsilon = 1e-4;
  }

  // Dials every shard. Scripts enqueued before this apply to the
  // connections it opens (write #0 is the handshake ack).
  void ConnectCluster() {
    auto remote = net::ConnectRemoteCluster(graph_, 0, endpoints_, options_);
    ASSERT_TRUE(remote.ok()) << remote.status().ToString();
    remote_ = std::move(*remote);
  }

  static Graph FanOutGraph() {
    GraphBuilder b;
    NodeTypeId t = b.AddNodeType("n");
    const NodeId n = 3000;
    b.AddNodes(n, t);
    for (NodeId u = 0; u < n; ++u) {
      for (NodeId j = 1; j <= 4; ++j) {
        NodeId v = (u * 31 + j * 977) % n;
        if (v != u) b.AddUndirectedEdge(u, v, 1.0 + (u + j) % 7);
      }
    }
    return b.Build().value();
  }

  const net::RemoteGraphProcessor& Source(int gp) const {
    return dynamic_cast<const net::RemoteGraphProcessor&>(
        remote_->source(gp));
  }

  void ExpectNothingInFlight() const {
    for (int gp = 0; gp < kNumGps; ++gp) {
      EXPECT_EQ(Source(gp).calls_in_flight(), 0u) << "shard " << gp;
      EXPECT_EQ(Source(gp).outstanding_bytes(), 0u) << "shard " << gp;
    }
  }

  double BoundMillis() const {
    return static_cast<double>(options_.max_attempts) *
           options_.call_timeout_ms;
  }

  static void ExpectSameAnswer(const dist::DistributedTopKResult& got,
                               const core::TopKResult& want) {
    ASSERT_EQ(got.topk.entries.size(), want.entries.size());
    for (size_t i = 0; i < want.entries.size(); ++i) {
      EXPECT_EQ(got.topk.entries[i].node, want.entries[i].node);
      EXPECT_DOUBLE_EQ(got.topk.entries[i].lower, want.entries[i].lower);
      EXPECT_DOUBLE_EQ(got.topk.entries[i].upper, want.entries[i].upper);
    }
    EXPECT_EQ(got.topk.active_node_ids, want.active_node_ids);
    EXPECT_EQ(got.active_set_bytes, want.active_set_bytes);
  }

  // Runs `query` with the scripted faults in place, then a clean follow-up.
  void RunFaultedThenClean(const Query& query, bool expect_ok) {
    // The local engine run is both the ground truth and the AP's own share
    // of the query time; only the fetch phase must fit the retry budget.
    WallTimer engine_timer;
    const core::TopKResult want =
        core::TopKRoundTripRank(*graph_, query, params_).value();
    const double engine_ms = engine_timer.ElapsedMillis();

    WallTimer timer;
    auto faulted = dist::DistributedTopK(*remote_, query, params_);
    EXPECT_LT(timer.ElapsedMillis() - engine_ms, BoundMillis());
    if (expect_ok) {
      ASSERT_TRUE(faulted.ok()) << faulted.status().ToString();
      ExpectSameAnswer(*faulted, want);
      EXPECT_GT(faulted->requests_sent, static_cast<size_t>(kNumGps));
    } else {
      ASSERT_FALSE(faulted.ok());
      EXPECT_EQ(faulted.status().code(), StatusCode::kUnavailable);
    }
    ExpectNothingInFlight();

    // Scripts the faulted query did not use must not fault the clean one.
    for (net::FaultInjector& injector : injectors_) injector.Clear();
    auto clean = dist::DistributedTopK(*remote_, query, params_);
    ASSERT_TRUE(clean.ok()) << clean.status().ToString();
    ExpectSameAnswer(*clean, want);
    ExpectNothingInFlight();
  }

  std::shared_ptr<const Graph> graph_;
  net::FaultInjector injectors_[kNumGps];
  std::vector<std::unique_ptr<net::GpServer>> servers_;
  std::vector<std::string> endpoints_;
  net::RpcClientOptions options_;
  std::unique_ptr<dist::Cluster> remote_;
  core::TopKParams params_;
};

TEST_F(RemoteGraphProcessorFanOutTest, DelayedShardTimesOutAndRetries) {
  // Shard 1 holds its first fetch reply past the call timeout while shards
  // 0 and 2 answer. The late shard's calls (the timed-out one and the one
  // queued behind it on the same connection) are re-sent on a fresh
  // connection; the others are not touched.
  net::ConnectionScript slow;
  slow.write_faults = {
      {net::FaultOp::kNone, 0},
      {net::FaultOp::kDelayWrite, 2 * options_.call_timeout_ms}};
  injectors_[1].Enqueue(std::move(slow));
  ConnectCluster();

  RunFaultedThenClean({17}, /*expect_ok=*/true);
  EXPECT_EQ(Source(1).wire().timeouts, 1u);
  EXPECT_GE(Source(1).wire().retries, 1u);
  EXPECT_EQ(Source(1).wire().reconnects, 1u);
  for (int gp : {0, 2}) {
    EXPECT_EQ(Source(gp).wire().retries, 0u) << "shard " << gp;
    EXPECT_EQ(Source(gp).wire().reconnects, 0u) << "shard " << gp;
  }
}

TEST_F(RemoteGraphProcessorFanOutTest, ShardCutMidReplyRetries) {
  // Shard 2 dies half-way through its first fetch reply: every call
  // waiting on that connection fails at once and is re-sent.
  net::ConnectionScript cut;
  cut.write_faults = {{net::FaultOp::kNone, 0},
                      {net::FaultOp::kShortWriteClose, 0}};
  injectors_[2].Enqueue(std::move(cut));
  ConnectCluster();

  RunFaultedThenClean({17}, /*expect_ok=*/true);
  EXPECT_GE(Source(2).wire().retries, 1u);
  EXPECT_EQ(Source(2).wire().timeouts, 0u);
  for (int gp : {0, 1}) {
    EXPECT_EQ(Source(gp).wire().retries, 0u) << "shard " << gp;
  }
}

TEST_F(RemoteGraphProcessorFanOutTest, ExhaustedShardAbandonsTheOthers) {
  // Shard 0 cuts the first fetch reply on every connection the query
  // opens, so its first batch fails after max_attempts tries. The query
  // ends with a typed error; the batches still in flight on shards 0, 1
  // and 2 are abandoned without leaking a registration or a window byte,
  // and their late replies do not disturb the next query.
  //
  // Connections the query can open on shard 0: the first one, one redial
  // per later batch whose Send finds it already cut, and one per retry of
  // the first batch. The active set bounds shard 0's batch count.
  const size_t active_nodes =
      core::TopKRoundTripRank(*graph_, {17}, params_)
          .value()
          .active_node_ids.size();
  const size_t max_batches =
      (active_nodes + dist::kMaxRecordsPerRequest - 1) /
      dist::kMaxRecordsPerRequest;
  const size_t max_connections =
      max_batches + static_cast<size_t>(options_.max_attempts) - 1;
  for (size_t i = 0; i < max_connections; ++i) {
    net::ConnectionScript cut;
    cut.write_faults = {{net::FaultOp::kNone, 0},
                        {net::FaultOp::kCloseBeforeWrite, 0}};
    injectors_[0].Enqueue(std::move(cut));
  }
  ConnectCluster();

  RunFaultedThenClean({17}, /*expect_ok=*/false);
  EXPECT_EQ(Source(0).wire().retries,
            static_cast<uint64_t>(options_.max_attempts - 1));
  for (int gp : {1, 2}) {
    EXPECT_EQ(Source(gp).wire().retries, 0u) << "shard " << gp;
    EXPECT_EQ(Source(gp).wire().reconnects, 0u) << "shard " << gp;
  }
}

}  // namespace
}  // namespace rtr
