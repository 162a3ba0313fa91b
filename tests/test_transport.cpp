// Transport seam: loopback pair semantics (ordering, bounded-queue
// backpressure, link partitions, close/EOF), the seeded transport fault
// matrix (drop/dup/reorder/truncate at the send side), and socket framing
// over Unix-domain and TCP links.  Companion: test_replication.cpp drives
// the replication protocol through the same seam.
#include "service/transport.hpp"

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "common/fault_injection.hpp"

namespace gapart {
namespace {

TEST(TransportLoopback, DeliversFramesInOrder) {
  auto [leader, follower] = LoopbackTransport::create_pair();
  leader->send("alpha");
  leader->send("beta");
  leader->send("gamma");
  EXPECT_EQ(follower->pending(), 3u);
  EXPECT_EQ(follower->receive(0.0), "alpha");
  EXPECT_EQ(follower->receive(0.0), "beta");
  EXPECT_EQ(follower->receive(0.0), "gamma");
  EXPECT_FALSE(follower->receive(0.0).has_value());

  // Both directions are independent.
  follower->send("ack");
  EXPECT_EQ(leader->receive(0.0), "ack");
}

TEST(TransportLoopback, BoundedQueueBackpressures) {
  auto [a, b] = LoopbackTransport::create_pair(/*max_queued_frames=*/2);
  a->send("one");
  a->send("two");
  EXPECT_THROW(a->send("three"), TransportError);
  // Draining makes room again: backpressure, not frame loss.
  EXPECT_EQ(b->receive(0.0), "one");
  a->send("three");
  EXPECT_EQ(b->receive(0.0), "two");
  EXPECT_EQ(b->receive(0.0), "three");
}

TEST(TransportLoopback, LinkPartitionCutsBothDirectionsButKeepsQueue) {
  auto [a, b] = LoopbackTransport::create_pair();
  a->send("before");
  a->set_link_down(true);
  EXPECT_THROW(a->send("during"), TransportError);
  EXPECT_THROW(b->send("during"), TransportError);
  // A partition cuts the link; it does not eat what was already in flight.
  EXPECT_EQ(b->receive(0.0), "before");
  a->set_link_down(false);
  a->send("after");
  EXPECT_EQ(b->receive(0.0), "after");
}

TEST(TransportLoopback, CloseSurfacesAsPeerClosedAfterDrain) {
  auto [a, b] = LoopbackTransport::create_pair();
  a->send("last");
  a->close();
  EXPECT_FALSE(b->peer_closed());  // one frame still queued
  EXPECT_EQ(b->receive(0.0), "last");
  EXPECT_TRUE(b->peer_closed());
  EXPECT_FALSE(b->receive(0.0).has_value());
  EXPECT_THROW(b->send("into the void"), TransportError);
}

TEST(TransportLoopback, ReceiveTimeoutReturnsEmpty) {
  auto [a, b] = LoopbackTransport::create_pair();
  (void)a;
  EXPECT_FALSE(b->receive(0.01).has_value());
}

// ---------------------------------------------------------------------------
// The fault matrix: every network pathology, surgically injectable.

TEST(TransportFaults, SendFaultThrowsAndLosesNothingQueued) {
  auto [a, b] = LoopbackTransport::create_pair();
  a->send("first");
  {
    ScopedFaultInjection scope(FaultSite::kTransportSend, 1);
    EXPECT_THROW(a->send("second"), TransportError);
  }
  a->send("third");
  EXPECT_EQ(b->receive(0.0), "first");
  EXPECT_EQ(b->receive(0.0), "third");
  EXPECT_FALSE(b->receive(0.0).has_value());
}

TEST(TransportFaults, DropLosesExactlyTheFaultedFrame) {
  auto [a, b] = LoopbackTransport::create_pair();
  {
    ScopedFaultInjection scope(FaultSite::kTransportDrop, 2);
    a->send("kept");
    a->send("dropped");
    a->send("also kept");
  }
  EXPECT_EQ(b->receive(0.0), "kept");
  EXPECT_EQ(b->receive(0.0), "also kept");
  EXPECT_FALSE(b->receive(0.0).has_value());
}

TEST(TransportFaults, DupDeliversTheFrameTwice) {
  auto [a, b] = LoopbackTransport::create_pair();
  {
    ScopedFaultInjection scope(FaultSite::kTransportDup, 1);
    a->send("echo");
  }
  EXPECT_EQ(b->receive(0.0), "echo");
  EXPECT_EQ(b->receive(0.0), "echo");
  EXPECT_FALSE(b->receive(0.0).has_value());
}

TEST(TransportFaults, ReorderOvertakesThePredecessor) {
  auto [a, b] = LoopbackTransport::create_pair();
  {
    ScopedFaultInjection scope(FaultSite::kTransportReorder, 2);
    a->send("first");
    a->send("second");  // injected: arrives before "first"
  }
  EXPECT_EQ(b->receive(0.0), "second");
  EXPECT_EQ(b->receive(0.0), "first");
}

TEST(TransportFaults, TruncateCutsTheFrameShort) {
  auto [a, b] = LoopbackTransport::create_pair();
  const std::string frame(90, 'x');
  {
    ScopedFaultInjection scope(FaultSite::kTransportTruncate, 1);
    a->send(frame);
  }
  const auto got = b->receive(0.0);
  ASSERT_TRUE(got.has_value());
  EXPECT_LT(got->size(), frame.size());
  EXPECT_EQ(*got, frame.substr(0, got->size()));
}

// ---------------------------------------------------------------------------
// Sockets: real byte streams with u32 length-prefix framing.

void exercise_stream_pair(Transport& client, Transport& server) {
  client.send("ping");
  EXPECT_EQ(server.receive(5.0), "ping");
  server.send("pong");
  EXPECT_EQ(client.receive(5.0), "pong");

  // A frame larger than one read() buffer exercises reassembly, and an
  // empty frame exercises the zero-length edge.  The frame must still fit
  // the kernel socket buffer: this test is single-threaded, so a blocking
  // send with no concurrent reader would deadlock.
  const std::string big(100000, 'z');
  client.send(big);
  client.send("");
  client.send("tail");
  EXPECT_EQ(server.receive(5.0), big);
  EXPECT_EQ(server.receive(5.0), "");
  EXPECT_EQ(server.receive(5.0), "tail");

  client.close();
  EXPECT_FALSE(server.receive(5.0).has_value());
  EXPECT_TRUE(server.peer_closed());
}

TEST(TransportSocket, UnixRoundTripAndEof) {
  const std::string path =
      std::string(::testing::TempDir()) + "/gapart_transport.sock";
  std::unique_ptr<SocketTransport> server;
  std::thread accepter(
      [&] { server = SocketTransport::listen_unix(path); });
  std::unique_ptr<SocketTransport> client;
  for (int attempt = 0; attempt < 200 && client == nullptr; ++attempt) {
    try {
      client = SocketTransport::connect_unix(path);
    } catch (const TransportError&) {
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
  }
  accepter.join();
  ASSERT_NE(client, nullptr);
  ASSERT_NE(server, nullptr);
  exercise_stream_pair(*client, *server);
}

TEST(TransportSocket, TcpRoundTripAndEof) {
  const int port = 38417;  // fixed loopback port; retried below if busy
  std::unique_ptr<SocketTransport> server;
  std::thread accepter([&] {
    try {
      server = SocketTransport::listen_tcp(port);
    } catch (const TransportError&) {
      // bind failed (port in use); the client loop below will give up too
    }
  });
  std::unique_ptr<SocketTransport> client;
  for (int attempt = 0; attempt < 200 && client == nullptr; ++attempt) {
    try {
      client = SocketTransport::connect_tcp("127.0.0.1", port);
    } catch (const TransportError&) {
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
  }
  accepter.join();
  if (client == nullptr || server == nullptr) {
    GTEST_SKIP() << "loopback port " << port << " unavailable";
  }
  exercise_stream_pair(*client, *server);
}

TEST(TransportSocket, TcpResetReadsAsPeerClosed) {
  // A peer killed with unread bytes in its receive buffer closes with RST,
  // not FIN.  An abortive close (SO_LINGER {1, 0}) sends that RST on
  // purpose: the reader must see the peer gone, not an error.
  const int port = 38418;  // fixed loopback port; skipped below if busy
  std::unique_ptr<SocketTransport> server;
  std::thread accepter([&] {
    try {
      server = SocketTransport::listen_tcp(port);
    } catch (const TransportError&) {
      // bind failed (port in use); the client loop below will give up too
    }
  });
  int fd = -1;
  for (int attempt = 0; attempt < 200 && fd < 0; ++attempt) {
    fd = ::socket(AF_INET, SOCK_STREAM, 0);
    ASSERT_GE(fd, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<std::uint16_t>(port));
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
      ::close(fd);
      fd = -1;
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
  }
  accepter.join();
  if (fd < 0 || server == nullptr) {
    if (fd >= 0) ::close(fd);
    GTEST_SKIP() << "loopback port " << port << " unavailable";
  }
  const linger abort_close{1, 0};
  ASSERT_EQ(::setsockopt(fd, SOL_SOCKET, SO_LINGER, &abort_close,
                         sizeof(abort_close)),
            0);
  ::close(fd);

  std::optional<std::string> got;
  EXPECT_NO_THROW(got = server->receive(5.0));
  EXPECT_FALSE(got.has_value());
  EXPECT_TRUE(server->peer_closed());
  EXPECT_NO_THROW(got = server->receive(0.0));
  EXPECT_FALSE(got.has_value());
}

}  // namespace
}  // namespace gapart
