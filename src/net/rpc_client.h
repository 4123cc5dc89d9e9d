#ifndef RTR_NET_RPC_CLIENT_H_
#define RTR_NET_RPC_CLIENT_H_

// AP-side RPC endpoint for one GP peer (DESIGN.md §12).
//
// One RpcClient per (host, port) peer. Calls from any number of AP worker
// threads are multiplexed over a single connection: each in-flight request
// carries a unique request id, a dedicated reader thread dispatches reply
// frames to the waiting callers by that id, and a caller only ever blocks
// on its own bounded condition wait — so a slow reply for one query never
// serializes the others, and nothing waits without a deadline.
//
// A fetch runs in two phases so one AP thread can keep a request in flight
// on every peer at once (dist::DistributedTopK does): Send admits the
// request, dials if needed and writes the request frame; Collect waits for
// the reply and decodes it. Fetch is simply Send followed by Collect. The
// first attempt starts in Send; when it fails, Collect runs the remaining
// attempts itself, so the policy below lives in one place.
//
// Failure policy (exercised fault-by-fault in tests/net/fault_test.cc):
//  * per-attempt timeout — a reply not arriving in call_timeout_ms poisons
//    the connection (late replies must not be mis-matched to a retry) and
//    counts a timeout;
//  * bounded retry — transport loss, timeouts, and refused connections
//    (kIoError / kDeadlineExceeded / kUnavailable) are retried up to
//    max_attempts with doubling backoff on a fresh connection; anything
//    else (a remote kInvalidArgument, a handshake kFailedPrecondition, a
//    reply over the frame cap) is returned immediately — re-sending cannot
//    fix it;
//  * reconnect — connections are dialed lazily and redialed after poison;
//    the Hello/HelloAck handshake re-verifies the peer's shard identity
//    every time, so a restarted peer serving the wrong stripe is caught
//    before any record is trusted;
//  * backpressure — when the peer already holds max_outstanding_bytes of
//    un-replied request bytes, new fetches are shed locally with
//    kUnavailable (not retried: retrying a shed would defeat its purpose).

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "dist/distributed_topk.h"
#include "graph/types.h"
#include "net/frame.h"
#include "net/transport.h"
#include "util/status.h"

namespace rtr::net {

struct RpcClientOptions {
  int connect_timeout_ms = 2000;
  // Per-attempt budget for one request/reply exchange.
  int call_timeout_ms = 5000;
  // Total tries per Fetch (first attempt + retries).
  int max_attempts = 4;
  // Doubling backoff between attempts, capped.
  int backoff_initial_ms = 5;
  int backoff_max_ms = 100;
  // Per-peer backpressure: un-replied request bytes beyond this are shed.
  size_t max_outstanding_bytes = 8u << 20;
};

class RpcClient {
  struct Connection;

 public:
  // `expected` is the shard identity this peer must prove in its HelloAck.
  // Does not dial; the first call (or an explicit Connect) does.
  RpcClient(std::string host, uint16_t port, HelloPayload expected,
            RpcClientOptions options = {});

  // Requires no fetch in flight and no uncollected Call.
  ~RpcClient();

  RpcClient(const RpcClient&) = delete;
  RpcClient& operator=(const RpcClient&) = delete;

  // Eagerly dials and verifies the handshake (kFailedPrecondition on a
  // shard-identity mismatch). Fetch does this lazily; cluster bring-up
  // calls it to fail fast on misconfiguration.
  Status Connect();

  // One fetch in flight: filled in by Send, completed by Collect. It is
  // neither copyable nor movable, because the reader thread writes the
  // reply into it by address. Destroying a call that was sent but not
  // collected abandons it: its reply is dropped on arrival and its
  // backpressure bytes are released. A call must not outlive its client.
  class Call {
   public:
    Call() = default;
    ~Call();
    Call(const Call&) = delete;
    Call& operator=(const Call&) = delete;

   private:
    friend class RpcClient;
    RpcClient* client = nullptr;  // set by Send
    std::vector<uint8_t> request;
    size_t num_nodes = 0;
    size_t request_wire_bytes = 0;
    // Counted in outstanding_bytes_; false after Send means it was shed.
    bool holds_window = false;
    Status started;  // the shed, or the outcome of the attempt Send began
    // The current attempt. Registered in pending_ while id != 0; the reader
    // thread fills done/reply_* under mu_.
    uint64_t id = 0;
    std::shared_ptr<Connection> conn;
    std::chrono::steady_clock::time_point deadline;
    bool done = false;
    Status reply_status;
    FrameHeader reply_header;
    std::vector<uint8_t> reply_payload;
  };

  // Starts one batched record fetch: backpressure admission, then the
  // first attempt's request frame. Never blocks on the reply. `call` must
  // be freshly constructed.
  void Send(const std::vector<NodeId>& nodes, Call* call);

  // Completes a sent fetch with the full retry/reconnect policy above.
  // Appends one record per node to `out` on success; on failure `out` is
  // untouched.
  Status Collect(Call* call, std::vector<dist::NodeRecord>* out);

  // Send then Collect. Thread-safe, like Send and Collect.
  Status Fetch(const std::vector<NodeId>& nodes,
               std::vector<dist::NodeRecord>* out) {
    Call call;
    Send(nodes, &call);
    return Collect(&call, out);
  }

  // Calls currently registered for a reply, and request bytes admitted but
  // not yet answered. Both return to zero when no fetch is in flight.
  size_t calls_in_flight() const;
  size_t outstanding_bytes() const {
    return outstanding_bytes_.load(std::memory_order_acquire);
  }

  // Cumulative wire traffic (frames/bytes both ways, retries, reconnects,
  // timeouts, sheds) since construction.
  dist::WireTraffic wire() const;

  const std::string& endpoint() const { return endpoint_; }

 private:
  struct Connection {
    std::unique_ptr<Transport> transport;
    std::thread reader;
    std::atomic<bool> broken{false};
    std::mutex write_mu;  // frame writes on one connection are atomic
  };

  // Returns the healthy current connection, dialing (and handshaking) a
  // fresh one if needed. Serialized so concurrent callers share one dial.
  StatusOr<std::shared_ptr<Connection>> EnsureConnected();
  Status Handshake(Transport& transport);
  // One attempt in two halves: StartAttempt dials if needed, registers the
  // call and writes its request; FinishAttempt waits for the reply until
  // the attempt's deadline and decodes it.
  Status StartAttempt(Call* call);
  Status FinishAttempt(Call* call, std::vector<dist::NodeRecord>* out);
  // Unregisters the call and returns its backpressure bytes (idempotent).
  void Release(Call* call);
  void ReaderLoop(Connection* conn);
  // Closes and joins retired connections (never called from a reader).
  void ReapGraveyard();

  const std::string host_;
  const uint16_t port_;
  const std::string endpoint_;
  const HelloPayload expected_;
  const RpcClientOptions options_;

  mutable std::mutex mu_;  // pending_, conn_, graveyard_, Call reply fields
  std::condition_variable cv_;
  std::unordered_map<uint64_t, Call*> pending_;
  std::shared_ptr<Connection> conn_;
  std::vector<std::shared_ptr<Connection>> graveyard_;
  std::mutex connect_mu_;  // serializes dial attempts
  std::atomic<uint64_t> next_request_id_{1};  // 0 is the handshake
  std::atomic<bool> stopping_{false};

  std::atomic<size_t> outstanding_bytes_{0};
  std::atomic<uint64_t> frames_sent_{0};
  std::atomic<uint64_t> frames_received_{0};
  std::atomic<uint64_t> bytes_sent_{0};
  std::atomic<uint64_t> bytes_received_{0};
  std::atomic<uint64_t> retries_{0};
  std::atomic<uint64_t> reconnects_{0};
  std::atomic<uint64_t> timeouts_{0};
  std::atomic<uint64_t> sheds_{0};
};

}  // namespace rtr::net

#endif  // RTR_NET_RPC_CLIENT_H_
