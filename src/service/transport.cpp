#include "service/transport.hpp"

#include <cerrno>
#include <chrono>
#include <condition_variable>
#include <cstring>
#include <deque>
#include <mutex>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include "common/byte_codec.hpp"
#include "common/fault_injection.hpp"

namespace gapart {

// ---------------------------------------------------------------------------
// LoopbackTransport
// ---------------------------------------------------------------------------

struct LoopbackTransport::Shared {
  std::mutex mu;
  std::condition_variable cv;
  // queues[i] holds frames travelling TOWARD endpoint i.
  std::deque<std::string> queues[2];
  bool closed[2] = {false, false};  ///< endpoint i called close()
  bool link_down = false;
  std::size_t max_queued = 1024;
};

LoopbackTransport::LoopbackTransport() = default;

std::pair<std::unique_ptr<LoopbackTransport>,
          std::unique_ptr<LoopbackTransport>>
LoopbackTransport::create_pair(std::size_t max_queued_frames) {
  auto shared = std::make_shared<Shared>();
  shared->max_queued = max_queued_frames == 0 ? 1 : max_queued_frames;
  auto a = std::unique_ptr<LoopbackTransport>(new LoopbackTransport());
  auto b = std::unique_ptr<LoopbackTransport>(new LoopbackTransport());
  a->shared_ = shared;
  a->side_ = 0;
  b->shared_ = shared;
  b->side_ = 1;
  return {std::move(a), std::move(b)};
}

LoopbackTransport::~LoopbackTransport() { close(); }

void LoopbackTransport::send(const std::string& frame) {
  // The fault matrix lives here, BEFORE the queue, so the receiver observes
  // exactly what a lossy/duplicating/reordering network would deliver.
  if (GAPART_FAULT_POINT(FaultSite::kTransportSend)) {
    throw TransportError("injected fault: replication link send failed");
  }
  const bool drop = GAPART_FAULT_POINT(FaultSite::kTransportDrop);
  const bool dup = GAPART_FAULT_POINT(FaultSite::kTransportDup);
  const bool reorder = GAPART_FAULT_POINT(FaultSite::kTransportReorder);
  const bool truncate = GAPART_FAULT_POINT(FaultSite::kTransportTruncate);

  std::unique_lock<std::mutex> lock(shared_->mu);
  if (shared_->link_down) {
    throw TransportError("replication link is partitioned");
  }
  auto& queue = shared_->queues[1 - side_];
  if (shared_->closed[1 - side_] || shared_->closed[side_]) {
    throw TransportError("replication link is closed");
  }
  if (drop) return;  // the network ate it; CRC/seq layers must recover
  std::string wire = frame;
  if (truncate && wire.size() > 1) {
    wire.resize(wire.size() * 2 / 3);  // cut mid-frame; CRC must reject
  }
  const std::size_t copies = dup ? 2u : 1u;
  for (std::size_t c = 0; c < copies; ++c) {
    if (queue.size() >= shared_->max_queued) {
      throw TransportError("replication link backpressure: " +
                           std::to_string(queue.size()) + " frames queued");
    }
    if (reorder && !queue.empty()) {
      queue.insert(queue.end() - 1, wire);  // arrives before its predecessor
    } else {
      queue.push_back(wire);
    }
  }
  lock.unlock();
  shared_->cv.notify_all();
}

std::optional<std::string> LoopbackTransport::receive(double timeout_seconds) {
  std::unique_lock<std::mutex> lock(shared_->mu);
  auto& queue = shared_->queues[side_];
  const auto ready = [&] {
    return !queue.empty() || shared_->closed[1 - side_] ||
           shared_->closed[side_];
  };
  if (timeout_seconds > 0.0 && !ready()) {
    shared_->cv.wait_for(
        lock, std::chrono::duration<double>(timeout_seconds), ready);
  }
  if (queue.empty()) return std::nullopt;
  std::string frame = std::move(queue.front());
  queue.pop_front();
  return frame;
}

bool LoopbackTransport::peer_closed() const {
  std::lock_guard<std::mutex> lock(shared_->mu);
  return shared_->closed[1 - side_] && shared_->queues[side_].empty();
}

void LoopbackTransport::close() {
  if (shared_ == nullptr) return;
  {
    std::lock_guard<std::mutex> lock(shared_->mu);
    shared_->closed[side_] = true;
  }
  shared_->cv.notify_all();
}

void LoopbackTransport::set_link_down(bool down) {
  {
    std::lock_guard<std::mutex> lock(shared_->mu);
    shared_->link_down = down;
  }
  shared_->cv.notify_all();
}

std::size_t LoopbackTransport::pending() const {
  std::lock_guard<std::mutex> lock(shared_->mu);
  return shared_->queues[side_].size();
}

// ---------------------------------------------------------------------------
// SocketTransport
// ---------------------------------------------------------------------------

namespace {

[[noreturn]] void throw_errno(const std::string& what) {
  throw TransportError(what + ": " + std::strerror(errno));
}

int accept_one(int listen_fd, const std::string& what) {
  const int fd = ::accept(listen_fd, nullptr, nullptr);
  const int saved = errno;
  ::close(listen_fd);
  if (fd < 0) {
    errno = saved;
    throw_errno(what);
  }
  return fd;
}

}  // namespace

SocketTransport::SocketTransport(int fd) : fd_(fd) {}

SocketTransport::~SocketTransport() { close(); }

std::unique_ptr<SocketTransport> SocketTransport::listen_unix(
    const std::string& path) {
  const int lfd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (lfd < 0) throw_errno("socket(AF_UNIX)");
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path.size() >= sizeof(addr.sun_path)) {
    ::close(lfd);
    throw TransportError("unix socket path too long: " + path);
  }
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  ::unlink(path.c_str());
  if (::bind(lfd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0 ||
      ::listen(lfd, 1) != 0) {
    const int saved = errno;
    ::close(lfd);
    errno = saved;
    throw_errno("bind/listen(" + path + ")");
  }
  return std::unique_ptr<SocketTransport>(
      new SocketTransport(accept_one(lfd, "accept(" + path + ")")));
}

std::unique_ptr<SocketTransport> SocketTransport::connect_unix(
    const std::string& path) {
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) throw_errno("socket(AF_UNIX)");
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path.size() >= sizeof(addr.sun_path)) {
    ::close(fd);
    throw TransportError("unix socket path too long: " + path);
  }
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    const int saved = errno;
    ::close(fd);
    errno = saved;
    throw_errno("connect(" + path + ")");
  }
  return std::unique_ptr<SocketTransport>(new SocketTransport(fd));
}

std::unique_ptr<SocketTransport> SocketTransport::listen_tcp(int port) {
  const int lfd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (lfd < 0) throw_errno("socket(AF_INET)");
  const int one = 1;
  ::setsockopt(lfd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  if (::bind(lfd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0 ||
      ::listen(lfd, 1) != 0) {
    const int saved = errno;
    ::close(lfd);
    errno = saved;
    throw_errno("bind/listen(tcp:" + std::to_string(port) + ")");
  }
  return std::unique_ptr<SocketTransport>(
      new SocketTransport(accept_one(lfd, "accept(tcp)")));
}

std::unique_ptr<SocketTransport> SocketTransport::connect_tcp(
    const std::string& host, int port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) throw_errno("socket(AF_INET)");
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    ::close(fd);
    throw TransportError("bad IPv4 address: " + host);
  }
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    const int saved = errno;
    ::close(fd);
    errno = saved;
    throw_errno("connect(" + host + ":" + std::to_string(port) + ")");
  }
  return std::unique_ptr<SocketTransport>(new SocketTransport(fd));
}

void SocketTransport::send(const std::string& frame) {
  if (GAPART_FAULT_POINT(FaultSite::kTransportSend)) {
    throw TransportError("injected fault: replication link send failed");
  }
  if (fd_ < 0) throw TransportError("socket transport is closed");
  std::string prefix;
  ByteWriter(prefix).put<std::uint32_t>(
      static_cast<std::uint32_t>(frame.size()));
  const char* bufs[2] = {prefix.data(), frame.data()};
  const std::size_t sizes[2] = {prefix.size(), frame.size()};
  for (int part = 0; part < 2; ++part) {
    std::size_t off = 0;
    while (off < sizes[part]) {
      // MSG_NOSIGNAL: a dead peer surfaces as EPIPE, not a process signal.
      const ssize_t n = ::send(fd_, bufs[part] + off, sizes[part] - off,
                               MSG_NOSIGNAL);
      if (n < 0) {
        if (errno == EINTR) continue;
        throw_errno("send");
      }
      off += static_cast<std::size_t>(n);
    }
  }
}

std::optional<std::string> SocketTransport::receive(double timeout_seconds) {
  const auto deadline =
      std::chrono::steady_clock::now() +
      std::chrono::duration_cast<std::chrono::steady_clock::duration>(
          std::chrono::duration<double>(timeout_seconds < 0 ? 0
                                                            : timeout_seconds));
  for (;;) {
    // A complete frame may already be buffered from a previous partial read.
    if (carry_.size() >= 4) {
      const auto len = ByteReader(carry_).get<std::uint32_t>();
      if (carry_.size() >= 4 + static_cast<std::size_t>(len)) {
        std::string frame = carry_.substr(4, len);
        carry_.erase(0, 4 + static_cast<std::size_t>(len));
        return frame;
      }
    }
    if (fd_ < 0 || peer_closed_) return std::nullopt;

    const auto now = std::chrono::steady_clock::now();
    const int wait_ms =
        now >= deadline
            ? 0
            : static_cast<int>(
                  std::chrono::duration_cast<std::chrono::milliseconds>(
                      deadline - now)
                      .count());
    pollfd pfd{fd_, POLLIN, 0};
    const int pr = ::poll(&pfd, 1, wait_ms);
    if (pr < 0) {
      if (errno == EINTR) continue;
      throw_errno("poll");
    }
    if (pr == 0) return std::nullopt;  // timed out; carry_ keeps partials

    char buf[65536];
    const ssize_t n = ::read(fd_, buf, sizeof(buf));
    if (n < 0 && errno == EINTR) continue;
    // A reset is the peer going away too: a process killed with unread
    // bytes in its receive buffer closes with RST, not FIN.
    if (n == 0 || (n < 0 && errno == ECONNRESET)) {
      peer_closed_ = true;  // a torn carry_ tail was never a full frame
      return std::nullopt;
    }
    if (n < 0) throw_errno("read");
    carry_.append(buf, static_cast<std::size_t>(n));
  }
}

bool SocketTransport::peer_closed() const { return peer_closed_; }

void SocketTransport::close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

}  // namespace gapart
