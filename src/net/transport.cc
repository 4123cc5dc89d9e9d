#include "net/transport.h"

#include <arpa/inet.h>
#include <errno.h>
#include <fcntl.h>
#include <netdb.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <string.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdlib>

#include "util/logging.h"

namespace rtr::net {

namespace {

using Clock = std::chrono::steady_clock;

int64_t MillisLeft(Clock::time_point deadline) {
  return std::chrono::duration_cast<std::chrono::milliseconds>(deadline -
                                                               Clock::now())
      .count();
}

Status SetNonBlocking(int fd) {
  int flags = fcntl(fd, F_GETFL, 0);
  if (flags < 0 || fcntl(fd, F_SETFL, flags | O_NONBLOCK) < 0) {
    return Status::IoError(std::string("fcntl(O_NONBLOCK): ") +
                           strerror(errno));
  }
  return Status::OK();
}

// Waits for `events` on `fd`. Returns 1 when ready, 0 on timeout, kIoError
// on poll failure or socket error/hangup without readable data.
StatusOr<int> PollFor(int fd, short events, int timeout_ms) {
  struct pollfd pfd;
  pfd.fd = fd;
  pfd.events = events;
  pfd.revents = 0;
  int rc = poll(&pfd, 1, timeout_ms);
  if (rc < 0) {
    if (errno == EINTR) return 0;  // treat as a timeout slice; callers loop
    return Status::IoError(std::string("poll: ") + strerror(errno));
  }
  if (rc == 0) return 0;
  if ((pfd.revents & POLLNVAL) != 0) {
    return Status::IoError("poll: fd closed under the connection");
  }
  // POLLERR/POLLHUP still allow a final read to drain buffered bytes or
  // observe EOF, so report "ready" and let recv/send surface the error.
  return 1;
}

std::string DescribeSockaddr(const struct sockaddr_in& addr) {
  char host[INET_ADDRSTRLEN] = {0};
  inet_ntop(AF_INET, &addr.sin_addr, host, sizeof(host));
  return std::string(host) + ":" + std::to_string(ntohs(addr.sin_port));
}

}  // namespace

SocketTransport::SocketTransport(int fd, std::string peer)
    : fd_(fd), peer_(std::move(peer)) {
  CHECK_GE(fd, 0);
  Status s = SetNonBlocking(fd_);
  if (!s.ok()) LOG(WARNING) << "transport to " << peer_ << ": " << s.ToString();
  // Frames are small and latency-sensitive; don't let Nagle batch them.
  int one = 1;
  (void)setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

SocketTransport::~SocketTransport() {
  Close();
  ::close(fd_);
}

void SocketTransport::Close() {
  bool was_closed = closed_.exchange(true, std::memory_order_acq_rel);
  if (!was_closed) ::shutdown(fd_, SHUT_RDWR);
}

StatusOr<size_t> SocketTransport::ReadSome(uint8_t* buf, size_t n,
                                           int timeout_ms) {
  if (closed()) return Status::IoError("read on closed connection");
  Clock::time_point deadline =
      Clock::now() + std::chrono::milliseconds(timeout_ms);
  while (true) {
    ssize_t got = recv(fd_, buf, n, 0);
    if (got > 0) return static_cast<size_t>(got);
    if (got == 0) return size_t{0};  // clean peer close
    if (errno != EAGAIN && errno != EWOULDBLOCK && errno != EINTR) {
      return Status::IoError("read from " + peer_ + ": " + strerror(errno));
    }
    int64_t left = MillisLeft(deadline);
    if (left <= 0) {
      return Status::DeadlineExceeded("no data from " + peer_ + " within " +
                                      std::to_string(timeout_ms) + "ms");
    }
    StatusOr<int> ready = PollFor(fd_, POLLIN, static_cast<int>(left));
    RTR_RETURN_IF_ERROR(ready.status());
    if (closed()) return Status::IoError("connection to " + peer_ + " closed");
  }
}

Status SocketTransport::WriteAll(std::span<const uint8_t> frame,
                                 int timeout_ms) {
  if (closed()) return Status::IoError("write on closed connection");
  Clock::time_point deadline =
      Clock::now() + std::chrono::milliseconds(timeout_ms);
  size_t sent = 0;
  while (sent < frame.size()) {
    // MSG_NOSIGNAL: a peer reset must surface as EPIPE, not kill the
    // process with SIGPIPE.
    ssize_t put = send(fd_, frame.data() + sent, frame.size() - sent,
                       MSG_NOSIGNAL);
    if (put > 0) {
      sent += static_cast<size_t>(put);
      continue;
    }
    if (put < 0 && errno != EAGAIN && errno != EWOULDBLOCK &&
        errno != EINTR) {
      return Status::IoError("write to " + peer_ + ": " + strerror(errno));
    }
    int64_t left = MillisLeft(deadline);
    if (left <= 0) {
      return Status::DeadlineExceeded(
          peer_ + " stopped draining; wrote " + std::to_string(sent) + "/" +
          std::to_string(frame.size()) + " bytes in " +
          std::to_string(timeout_ms) + "ms");
    }
    StatusOr<int> ready = PollFor(fd_, POLLOUT, static_cast<int>(left));
    RTR_RETURN_IF_ERROR(ready.status());
    if (closed()) return Status::IoError("connection to " + peer_ + " closed");
  }
  return Status::OK();
}

Status ParseEndpoint(const std::string& endpoint, std::string* host,
                     uint16_t* port) {
  size_t colon = endpoint.rfind(':');
  if (colon == std::string::npos || colon == 0 ||
      colon + 1 == endpoint.size()) {
    return Status::InvalidArgument("endpoint '" + endpoint +
                                   "' is not host:port");
  }
  char* end = nullptr;
  long parsed = strtol(endpoint.c_str() + colon + 1, &end, 10);
  if (*end != '\0' || parsed < 1 || parsed > 65535) {
    return Status::InvalidArgument("endpoint '" + endpoint +
                                   "' has an invalid port");
  }
  *host = endpoint.substr(0, colon);
  *port = static_cast<uint16_t>(parsed);
  return Status::OK();
}

StatusOr<int> ListenOn(uint16_t port) {
  int fd = socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    return Status::IoError(std::string("socket: ") + strerror(errno));
  }
  int one = 1;
  (void)setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  struct sockaddr_in addr;
  memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_ANY);
  addr.sin_port = htons(port);
  if (bind(fd, reinterpret_cast<struct sockaddr*>(&addr), sizeof(addr)) < 0) {
    Status s = Status::IoError("bind port " + std::to_string(port) + ": " +
                               strerror(errno));
    ::close(fd);
    return s;
  }
  if (listen(fd, 64) < 0) {
    Status s = Status::IoError(std::string("listen: ") + strerror(errno));
    ::close(fd);
    return s;
  }
  Status nb = SetNonBlocking(fd);
  if (!nb.ok()) {
    ::close(fd);
    return nb;
  }
  return fd;
}

StatusOr<uint16_t> ListenerPort(int listen_fd) {
  struct sockaddr_in addr;
  socklen_t len = sizeof(addr);
  if (getsockname(listen_fd, reinterpret_cast<struct sockaddr*>(&addr),
                  &len) < 0) {
    return Status::IoError(std::string("getsockname: ") + strerror(errno));
  }
  return ntohs(addr.sin_port);
}

StatusOr<std::unique_ptr<Transport>> AcceptConnection(int listen_fd,
                                                      int timeout_ms) {
  StatusOr<int> ready = PollFor(listen_fd, POLLIN, timeout_ms);
  RTR_RETURN_IF_ERROR(ready.status());
  if (*ready == 0) {
    return Status::DeadlineExceeded("no pending connection");
  }
  struct sockaddr_in addr;
  socklen_t len = sizeof(addr);
  int fd = accept(listen_fd, reinterpret_cast<struct sockaddr*>(&addr), &len);
  if (fd < 0) {
    if (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR ||
        errno == ECONNABORTED) {
      return Status::DeadlineExceeded("connection vanished before accept");
    }
    return Status::IoError(std::string("accept: ") + strerror(errno));
  }
  return std::unique_ptr<Transport>(
      std::make_unique<SocketTransport>(fd, DescribeSockaddr(addr)));
}

StatusOr<std::unique_ptr<Transport>> ConnectTo(const std::string& host,
                                               uint16_t port,
                                               int timeout_ms) {
  struct addrinfo hints;
  memset(&hints, 0, sizeof(hints));
  hints.ai_family = AF_INET;
  hints.ai_socktype = SOCK_STREAM;
  struct addrinfo* result = nullptr;
  int rc = getaddrinfo(host.c_str(), std::to_string(port).c_str(), &hints,
                       &result);
  if (rc != 0) {
    return Status::Unavailable("resolve " + host + ": " + gai_strerror(rc));
  }
  const std::string peer = host + ":" + std::to_string(port);
  Status last = Status::Unavailable("no address for " + host);
  for (struct addrinfo* ai = result; ai != nullptr; ai = ai->ai_next) {
    int fd = socket(ai->ai_family, ai->ai_socktype, ai->ai_protocol);
    if (fd < 0) {
      last = Status::IoError(std::string("socket: ") + strerror(errno));
      continue;
    }
    Status nb = SetNonBlocking(fd);
    if (!nb.ok()) {
      ::close(fd);
      last = nb;
      continue;
    }
    if (connect(fd, ai->ai_addr, ai->ai_addrlen) < 0 &&
        errno != EINPROGRESS) {
      last = Status::Unavailable("connect " + peer + ": " + strerror(errno));
      ::close(fd);
      continue;
    }
    StatusOr<int> ready = PollFor(fd, POLLOUT, timeout_ms);
    if (!ready.ok() || *ready == 0) {
      last = ready.ok() ? Status::Unavailable("connect " + peer +
                                              " timed out after " +
                                              std::to_string(timeout_ms) +
                                              "ms")
                        : ready.status();
      ::close(fd);
      continue;
    }
    int err = 0;
    socklen_t err_len = sizeof(err);
    if (getsockopt(fd, SOL_SOCKET, SO_ERROR, &err, &err_len) < 0 ||
        err != 0) {
      last = Status::Unavailable("connect " + peer + ": " +
                                 strerror(err != 0 ? err : errno));
      ::close(fd);
      continue;
    }
    freeaddrinfo(result);
    return std::unique_ptr<Transport>(
        std::make_unique<SocketTransport>(fd, peer));
  }
  freeaddrinfo(result);
  return last;
}

namespace {

// Reads exactly `n` bytes before `deadline`; kIoError if the peer closes or
// stalls mid-way (`n` > 0 bytes already expected).
Status ReadExactly(Transport& transport, uint8_t* buf, size_t n,
                   Clock::time_point deadline) {
  size_t got = 0;
  while (got < n) {
    int64_t left = MillisLeft(deadline);
    if (left <= 0) {
      return Status::IoError(transport.peer() + " stalled mid-frame (" +
                             std::to_string(got) + "/" + std::to_string(n) +
                             " bytes)");
    }
    StatusOr<size_t> chunk =
        transport.ReadSome(buf + got, n - got, static_cast<int>(left));
    if (!chunk.ok()) {
      if (chunk.status().code() == StatusCode::kDeadlineExceeded) {
        return Status::IoError(transport.peer() + " stalled mid-frame (" +
                               std::to_string(got) + "/" + std::to_string(n) +
                               " bytes)");
      }
      return chunk.status();
    }
    if (*chunk == 0) {
      return Status::IoError(transport.peer() + " disconnected mid-frame (" +
                             std::to_string(got) + "/" + std::to_string(n) +
                             " bytes)");
    }
    got += *chunk;
  }
  return Status::OK();
}

}  // namespace

Status ReadFrame(Transport& transport, int idle_timeout_ms,
                 int frame_timeout_ms, FrameHeader* header,
                 std::vector<uint8_t>* payload) {
  uint8_t head[kFrameHeaderBytes];
  // First byte: an idle wait, not an error condition.
  StatusOr<size_t> first = transport.ReadSome(head, sizeof(head),
                                              idle_timeout_ms);
  RTR_RETURN_IF_ERROR(first.status());
  if (*first == 0) {
    return Status::Unavailable("connection closed by " + transport.peer());
  }
  // A frame has started: the rest must arrive within the frame budget.
  Clock::time_point deadline =
      Clock::now() + std::chrono::milliseconds(frame_timeout_ms);
  RTR_RETURN_IF_ERROR(ReadExactly(transport, head + *first,
                                  sizeof(head) - *first, deadline));
  RTR_RETURN_IF_ERROR(DecodeFrameHeader(head, header));
  payload->resize(header->payload_len);
  RTR_RETURN_IF_ERROR(
      ReadExactly(transport, payload->data(), payload->size(), deadline));
  return VerifyFramePayload(*header, *payload);
}

Status WriteFrame(Transport& transport, FrameType type, uint64_t request_id,
                  std::span<const uint8_t> payload, int timeout_ms,
                  std::vector<uint8_t>* scratch, size_t* wire_bytes) {
  if (payload.size() > kMaxPayloadBytes) {
    return Status::OutOfRange("frame payload of " +
                              std::to_string(payload.size()) +
                              " bytes exceeds the frame cap of " +
                              std::to_string(kMaxPayloadBytes));
  }
  EncodeFrame(type, request_id, payload, scratch);
  RTR_RETURN_IF_ERROR(transport.WriteAll(*scratch, timeout_ms));
  if (wire_bytes != nullptr) *wire_bytes = scratch->size();
  return Status::OK();
}

}  // namespace rtr::net
