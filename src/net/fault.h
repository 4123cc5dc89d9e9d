#ifndef RTR_NET_FAULT_H_
#define RTR_NET_FAULT_H_

// Deterministic fault injection for the RPC layer (tests/net/).
//
// The injection point is the server side of each accepted connection: the
// GpServer wraps every transport it accepts in a FaultyTransport when its
// options carry a FaultInjector, and the injector hands out one
// ConnectionScript per accepted connection, FIFO. Because every frame
// crosses Transport::WriteAll as one call (net/transport.h), a script can
// target individual reply frames — delay them past the client's timeout,
// flip the checksum byte, cut the connection mid-frame, or swallow the
// reply outright — and the tests then assert the CLIENT's recovery
// behavior: retry on a fresh connection with a bit-identical result for
// recoverable faults, a clean typed error for a dead shard, and never a
// hang or a wrong answer.

#include <atomic>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <span>
#include <vector>

#include "net/transport.h"
#include "util/status.h"

namespace rtr::net {

enum class FaultOp : uint8_t {
  kNone = 0,
  // Sleep delay_ms, then write the frame normally (slow GP).
  kDelayWrite,
  // Flip one byte of the frame's checksum field before writing; the client
  // must reject the reply and re-fetch on a fresh connection.
  kCorruptChecksum,
  // Write only the first half of the frame, then cut the connection
  // (mid-frame disconnect as seen by the client).
  kShortWriteClose,
  // Cut the connection instead of writing (death between request and reply).
  kCloseBeforeWrite,
  // Report success without writing anything; the client's per-request
  // timeout is the only thing that can save it.
  kDropWrite,
};

struct WriteFault {
  FaultOp op = FaultOp::kNone;
  int delay_ms = 0;  // used by kDelayWrite
};

// What happens to one accepted connection. Writes are faulted in order:
// the i-th WriteAll on the connection consults write_faults[i] (off-script
// writes behave normally). The handshake ack is write #0.
struct ConnectionScript {
  // Close the connection immediately after accept, before any exchange.
  bool refuse = false;
  std::vector<WriteFault> write_faults;
};

// Thread-safe FIFO of per-connection scripts, consumed by the server's
// accept loop. An empty injector (or one that has run out of scripts)
// yields default scripts — connections behave normally, so a test can
// script fault connection #1 and let the recovery connection #2 run clean.
class FaultInjector {
 public:
  // Script for the next accepted connection.
  void Enqueue(ConnectionScript script);
  // Drops every script not yet handed out; later connections run clean.
  void Clear();

  // Permanent death: every subsequent accept is refused regardless of
  // queued scripts (the "GP crashed and is not coming back" scenario).
  void set_dead(bool dead) { dead_.store(dead, std::memory_order_release); }
  bool dead() const { return dead_.load(std::memory_order_acquire); }

  // Pops the next script (default if none). Called once per accept.
  ConnectionScript Next();

  // Accepted connections so far (scripted or not).
  uint64_t connections() const {
    return connections_.load(std::memory_order_acquire);
  }

 private:
  std::mutex mu_;
  std::deque<ConnectionScript> scripts_;
  std::atomic<bool> dead_{false};
  std::atomic<uint64_t> connections_{0};
};

// Transport wrapper executing one ConnectionScript. Reads pass through
// untouched; the i-th write consults the script as described above.
class FaultyTransport : public Transport {
 public:
  FaultyTransport(std::unique_ptr<Transport> inner, ConnectionScript script);

  StatusOr<size_t> ReadSome(uint8_t* buf, size_t n, int timeout_ms) override;
  Status WriteAll(std::span<const uint8_t> frame, int timeout_ms) override;
  void Close() override;
  bool closed() const override { return inner_->closed(); }
  const std::string& peer() const override { return inner_->peer(); }

 private:
  std::unique_ptr<Transport> inner_;
  ConnectionScript script_;
  size_t write_index_ = 0;
};

}  // namespace rtr::net

#endif  // RTR_NET_FAULT_H_
