#include "net/frame.h"

#include <cstring>
#include <string>

#include "util/checksum.h"

namespace rtr::net {

namespace {

// Append/read primitives. All integers little-endian host order; the reader
// side is bounds-checked so a truncated or hostile payload yields kIoError,
// never an out-of-bounds read.
template <typename T>
void Append(std::vector<uint8_t>* out, T value) {
  static_assert(std::is_trivially_copyable_v<T>);
  const size_t at = out->size();
  out->resize(at + sizeof(T));
  std::memcpy(out->data() + at, &value, sizeof(T));
}

template <typename T>
void AppendArray(std::vector<uint8_t>* out, const T* data, size_t count) {
  static_assert(std::is_trivially_copyable_v<T>);
  const size_t at = out->size();
  out->resize(at + count * sizeof(T));
  std::memcpy(out->data() + at, data, count * sizeof(T));
}

class Reader {
 public:
  explicit Reader(std::span<const uint8_t> bytes) : bytes_(bytes) {}

  template <typename T>
  bool Read(T* value) {
    static_assert(std::is_trivially_copyable_v<T>);
    if (bytes_.size() - at_ < sizeof(T)) return false;
    std::memcpy(value, bytes_.data() + at_, sizeof(T));
    at_ += sizeof(T);
    return true;
  }

  template <typename T>
  bool ReadArray(std::vector<T>* out, size_t count) {
    static_assert(std::is_trivially_copyable_v<T>);
    if (count > (bytes_.size() - at_) / sizeof(T)) return false;
    out->resize(count);
    std::memcpy(out->data(), bytes_.data() + at_, count * sizeof(T));
    at_ += count * sizeof(T);
    return true;
  }

  bool exhausted() const { return at_ == bytes_.size(); }

 private:
  std::span<const uint8_t> bytes_;
  size_t at_ = 0;
};

Status Truncated(const char* what) {
  return Status::IoError(std::string("truncated ") + what + " payload");
}

}  // namespace

void EncodeFrame(FrameType type, uint64_t request_id,
                 std::span<const uint8_t> payload, std::vector<uint8_t>* out) {
  out->clear();
  out->reserve(kFrameHeaderBytes + payload.size());
  Append<uint32_t>(out, kFrameMagic);
  Append<uint8_t>(out, kProtocolVersion);
  Append<uint8_t>(out, static_cast<uint8_t>(type));
  Append<uint16_t>(out, 0);
  Append<uint64_t>(out, request_id);
  Append<uint32_t>(out, static_cast<uint32_t>(payload.size()));
  Append<uint32_t>(out, 0);
  Append<uint64_t>(out, util::Fnv1a64Words(payload.data(), payload.size()));
  AppendArray(out, payload.data(), payload.size());
}

Status DecodeFrameHeader(const uint8_t* buf, FrameHeader* header) {
  uint32_t magic = 0;
  std::memcpy(&magic, buf, sizeof(magic));
  if (magic != kFrameMagic) {
    return Status::IoError("bad frame magic (stream desynchronized)");
  }
  header->version = buf[4];
  if (header->version != kProtocolVersion) {
    return Status::IoError("unsupported protocol version " +
                           std::to_string(header->version));
  }
  const uint8_t type = buf[5];
  if (type < static_cast<uint8_t>(FrameType::kHello) ||
      type > static_cast<uint8_t>(FrameType::kErrorReply)) {
    return Status::IoError("unknown frame type " + std::to_string(type));
  }
  header->type = static_cast<FrameType>(type);
  std::memcpy(&header->request_id, buf + 8, sizeof(uint64_t));
  std::memcpy(&header->payload_len, buf + 16, sizeof(uint32_t));
  if (header->payload_len > kMaxPayloadBytes) {
    return Status::IoError("frame payload of " +
                           std::to_string(header->payload_len) +
                           " bytes exceeds the protocol cap");
  }
  std::memcpy(&header->checksum, buf + kChecksumOffset, sizeof(uint64_t));
  return Status::OK();
}

Status VerifyFramePayload(const FrameHeader& header,
                          std::span<const uint8_t> payload) {
  const uint64_t got = util::Fnv1a64Words(payload.data(), payload.size());
  if (got != header.checksum) {
    return Status::IoError("frame payload checksum mismatch");
  }
  return Status::OK();
}

void EncodeHello(const HelloPayload& hello, std::vector<uint8_t>* out) {
  out->clear();
  Append(out, hello.shard);
  Append(out, hello.num_gps);
  Append(out, hello.num_nodes);
  Append(out, hello.generation);
}

Status DecodeHello(std::span<const uint8_t> payload, HelloPayload* hello) {
  Reader reader(payload);
  if (!reader.Read(&hello->shard) || !reader.Read(&hello->num_gps) ||
      !reader.Read(&hello->num_nodes) || !reader.Read(&hello->generation) ||
      !reader.exhausted()) {
    return Truncated("hello");
  }
  return Status::OK();
}

void EncodeFetchRequest(const std::vector<NodeId>& nodes,
                        std::vector<uint8_t>* out) {
  out->clear();
  Append<uint32_t>(out, static_cast<uint32_t>(nodes.size()));
  AppendArray(out, nodes.data(), nodes.size());
}

Status DecodeFetchRequest(std::span<const uint8_t> payload,
                          std::vector<NodeId>* nodes) {
  Reader reader(payload);
  uint32_t count = 0;
  if (!reader.Read(&count) || !reader.ReadArray(nodes, count) ||
      !reader.exhausted()) {
    return Truncated("fetch request");
  }
  return Status::OK();
}

void EncodeFetchReply(std::span<const dist::NodeRecord> records,
                      std::vector<uint8_t>* out) {
  out->clear();
  Append<uint32_t>(out, static_cast<uint32_t>(records.size()));
  for (const dist::NodeRecord& record : records) {
    Append<uint32_t>(out, record.node);
    Append<uint32_t>(out, static_cast<uint32_t>(record.num_out_arcs()));
    Append<uint32_t>(out, static_cast<uint32_t>(record.num_in_arcs()));
    AppendArray(out, record.out_targets.data(), record.out_targets.size());
    AppendArray(out, record.out_probs.data(), record.out_probs.size());
    AppendArray(out, record.in_sources.data(), record.in_sources.size());
    AppendArray(out, record.in_probs.data(), record.in_probs.size());
  }
}

Status DecodeFetchReply(std::span<const uint8_t> payload,
                        std::vector<dist::NodeRecord>* out) {
  Reader reader(payload);
  uint32_t count = 0;
  if (!reader.Read(&count)) return Truncated("fetch reply");
  out->reserve(out->size() + count);
  for (uint32_t i = 0; i < count; ++i) {
    dist::NodeRecord record;
    uint32_t n_out = 0;
    uint32_t n_in = 0;
    if (!reader.Read(&record.node) || !reader.Read(&n_out) ||
        !reader.Read(&n_in) ||
        !reader.ReadArray(&record.out_targets, n_out) ||
        !reader.ReadArray(&record.out_probs, n_out) ||
        !reader.ReadArray(&record.in_sources, n_in) ||
        !reader.ReadArray(&record.in_probs, n_in)) {
      return Truncated("fetch reply");
    }
    out->push_back(std::move(record));
  }
  if (!reader.exhausted()) {
    return Status::IoError("trailing bytes after fetch reply payload");
  }
  return Status::OK();
}

void EncodeErrorReply(const Status& status, std::vector<uint8_t>* out) {
  out->clear();
  Append<uint32_t>(out, static_cast<uint32_t>(status.code()));
  Append<uint32_t>(out, static_cast<uint32_t>(status.message().size()));
  AppendArray(out, status.message().data(), status.message().size());
}

Status DecodeErrorReply(std::span<const uint8_t> payload,
                        Status* remote_status) {
  Reader reader(payload);
  uint32_t code = 0;
  uint32_t length = 0;
  if (!reader.Read(&code) || !reader.Read(&length)) {
    return Truncated("error reply");
  }
  std::vector<char> message;
  if (!reader.ReadArray(&message, length) || !reader.exhausted()) {
    return Truncated("error reply");
  }
  if (code == 0 || code > static_cast<uint32_t>(StatusCode::kDeadlineExceeded)) {
    return Status::IoError("error reply carries invalid status code " +
                           std::to_string(code));
  }
  *remote_status = Status(static_cast<StatusCode>(code),
                          std::string(message.begin(), message.end()));
  return Status::OK();
}

}  // namespace rtr::net
