#include "net/fault.h"

#include <chrono>
#include <thread>
#include <utility>

namespace rtr::net {

void FaultInjector::Enqueue(ConnectionScript script) {
  std::lock_guard<std::mutex> lock(mu_);
  scripts_.push_back(std::move(script));
}

void FaultInjector::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  scripts_.clear();
}

ConnectionScript FaultInjector::Next() {
  connections_.fetch_add(1, std::memory_order_acq_rel);
  std::lock_guard<std::mutex> lock(mu_);
  if (scripts_.empty()) return ConnectionScript{};
  ConnectionScript script = std::move(scripts_.front());
  scripts_.pop_front();
  return script;
}

FaultyTransport::FaultyTransport(std::unique_ptr<Transport> inner,
                                 ConnectionScript script)
    : inner_(std::move(inner)), script_(std::move(script)) {}

StatusOr<size_t> FaultyTransport::ReadSome(uint8_t* buf, size_t n,
                                           int timeout_ms) {
  return inner_->ReadSome(buf, n, timeout_ms);
}

Status FaultyTransport::WriteAll(std::span<const uint8_t> frame,
                                 int timeout_ms) {
  WriteFault fault;
  if (write_index_ < script_.write_faults.size()) {
    fault = script_.write_faults[write_index_];
  }
  ++write_index_;
  switch (fault.op) {
    case FaultOp::kNone:
      return inner_->WriteAll(frame, timeout_ms);
    case FaultOp::kDelayWrite:
      std::this_thread::sleep_for(std::chrono::milliseconds(fault.delay_ms));
      return inner_->WriteAll(frame, timeout_ms);
    case FaultOp::kCorruptChecksum: {
      std::vector<uint8_t> corrupted(frame.begin(), frame.end());
      if (corrupted.size() > kChecksumOffset) {
        corrupted[kChecksumOffset] ^= 0xFF;
      }
      return inner_->WriteAll(corrupted, timeout_ms);
    }
    case FaultOp::kShortWriteClose: {
      Status s = inner_->WriteAll(frame.subspan(0, frame.size() / 2),
                                  timeout_ms);
      inner_->Close();
      if (!s.ok()) return s;
      return Status::IoError("fault: connection cut mid-frame");
    }
    case FaultOp::kCloseBeforeWrite:
      inner_->Close();
      return Status::IoError("fault: connection cut before reply");
    case FaultOp::kDropWrite:
      // Pretend the write happened; the peer never sees the frame.
      return Status::OK();
  }
  return inner_->WriteAll(frame, timeout_ms);
}

void FaultyTransport::Close() { inner_->Close(); }

}  // namespace rtr::net
