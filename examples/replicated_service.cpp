// Replicated leader/follower pair over a Unix socket, built to be killed.
//
// Three modes, wired together by scripts/chaos_kill_recover.sh:
//
//   --follow   binds the socket, accepts the leader, and tail-replays its
//              stream (continuous recovery).  When the leader dies — EOF
//              or a reset on the socket, e.g. kill -9 — it drains whatever
//              was already shipped, promotes itself (fencing generation
//              bump), and prints one "PROMOTED session=<id> epoch=<e>
//              digest=<d> generation=<g>" line per session.  Exits 3 on
//              divergence.
//
//   --lead     connects, opens a durable session, and streams the same
//              deterministic churn trace durable_service uses.  "ACK <e>"
//              is printed only after the FOLLOWER acknowledged epoch e, so
//              any ACK this process managed to print must survive failover
//              no matter when the process dies.
//
//   --reference  replays the trace in-process (no service, no I/O) and
//              prints "REFERENCE <epoch> <digest>" for every epoch: the
//              never-crashed digest the promoted follower must match.
//
//   ./examples/example_replicated_service --follow --socket=/tmp/rep.sock \
//       --dir=/tmp/follower
//   ./examples/example_replicated_service --lead --socket=/tmp/rep.sock \
//       --dir=/tmp/leader [--updates=1000] [--interval-ms=2]
//   ./examples/example_replicated_service --reference [--updates=1000]
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>

#include "common/cli.hpp"
#include "common/rng.hpp"
#include "core/graph_delta.hpp"
#include "graph/graph.hpp"
#include "graph/partition.hpp"
#include "service/replication.hpp"
#include "service/service.hpp"
#include "service/transport.hpp"

namespace {

using namespace gapart;

/// Deterministic churn trace (same shape as example_durable_service): the
/// graph at epoch e is a pure function of (n, e), so leader, follower, and
/// reference replays see bit-identical inputs.
Graph trace_graph(VertexId n, int phase) {
  GraphBuilder b(n * n);
  const auto at = [n](VertexId r, VertexId c) { return r * n + c; };
  for (VertexId r = 0; r < n; ++r) {
    for (VertexId c = 0; c < n; ++c) {
      if (c + 1 < n) b.add_edge(at(r, c), at(r, c + 1));
      if (r + 1 < n) b.add_edge(at(r, c), at(r + 1, c));
    }
  }
  if (phase % 2 == 1) {
    Rng rng(0x51feULL ^ static_cast<std::uint64_t>(phase) * 0x9e37ULL);
    const VertexId window = 5;
    const VertexId span = std::max<VertexId>(1, n - window - 1);
    const auto r0 = static_cast<VertexId>(rng.uniform_int(span));
    const auto c0 = static_cast<VertexId>(rng.uniform_int(span));
    for (VertexId r = r0; r < r0 + window && r + 1 < n; ++r) {
      for (VertexId c = c0; c < c0 + window && c + 1 < n; ++c) {
        b.add_edge(at(r, c), at(r + 1, c + 1));
      }
    }
  }
  return b.build();
}

Assignment bands(VertexId n, PartId k) {
  Assignment a(static_cast<std::size_t>(n) * n);
  for (VertexId v = 0; v < n * n; ++v) {
    a[static_cast<std::size_t>(v)] =
        static_cast<PartId>((v % n) * static_cast<VertexId>(k) / n);
  }
  return a;
}

/// Both replicas and the reference must make identical repair decisions: a
/// budget far above any single repair makes the admitted verification
/// rounds a pure function of the trace.
SessionConfig replica_session_config(PartId k) {
  SessionConfig cfg;
  cfg.num_parts = k;
  cfg.repair_budget_seconds = 60.0;
  return cfg;
}

int run_reference(int updates, VertexId n, PartId k) {
  auto prev = std::make_shared<const Graph>(trace_graph(n, 0));
  PartitionSession session(prev, bands(n, k), replica_session_config(k));
  std::printf("REFERENCE 0 %llu\n",
              static_cast<unsigned long long>(session.state_digest()));
  for (int u = 1; u <= updates; ++u) {
    auto next = std::make_shared<const Graph>(trace_graph(n, u));
    session.apply_update(next, diff_graphs(*prev, *next));
    std::printf("REFERENCE %d %llu\n", u,
                static_cast<unsigned long long>(session.state_digest()));
    prev = std::move(next);
  }
  std::fflush(stdout);
  return 0;
}

int run_leader(const std::string& socket_path, const std::string& dir,
               int updates, int interval_ms, VertexId n, PartId k) {
  // The follower may still be binding: retry the connect briefly.
  std::unique_ptr<SocketTransport> link;
  for (int attempt = 0; attempt < 100; ++attempt) {
    try {
      link = SocketTransport::connect_unix(socket_path);
      break;
    } catch (const TransportError&) {
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }
  }
  if (link == nullptr) {
    std::fprintf(stderr, "leader: cannot reach follower at %s\n",
                 socket_path.c_str());
    return 2;
  }

  ServiceConfig sc;
  sc.num_threads = 2;
  sc.background_refinement = false;  // replicas replay decisions, not races
  sc.durability.dir = dir;
  sc.durability.ship_retain_bytes = 0;  // lockstep compaction with the peer

  PartitionService service(sc);
  // Restarting after a demotion must not reuse a fenced term.
  ShipperConfig ship_cfg;
  ship_cfg.generation = read_generation_file(dir) + 1;
  ReplicationShipper shipper(service, *link, ship_cfg);

  auto g0 = std::make_shared<const Graph>(trace_graph(n, 0));
  const SessionId id =
      service.open_session(g0, bands(n, k), replica_session_config(k));
  shipper.pump();  // bootstrap the follower at epoch 0
  std::printf("OPENED session=%llu generation=%llu\n",
              static_cast<unsigned long long>(id),
              static_cast<unsigned long long>(ship_cfg.generation));
  std::fflush(stdout);

  auto prev = std::move(g0);
  for (int u = 1; u <= updates; ++u) {
    auto next = std::make_shared<const Graph>(trace_graph(n, u));
    const RepairReport rep =
        service.submit_update(id, next, diff_graphs(*prev, *next));
    prev = std::move(next);
    // Ship until the follower acknowledged this epoch; only then print.
    // "printed implies it survives failover" is the line the chaos script
    // holds us to.
    for (int pump = 0; pump < 20000; ++pump) {
      shipper.pump();
      if (shipper.acked_epoch(id) >= rep.update_epoch) break;
      if (shipper.stats().deposed) {
        std::fprintf(stderr, "leader: deposed at epoch %llu\n",
                     static_cast<unsigned long long>(rep.update_epoch));
        return 4;
      }
      std::this_thread::sleep_for(std::chrono::microseconds(500));
    }
    if (shipper.acked_epoch(id) < rep.update_epoch) {
      std::fprintf(stderr, "leader: follower never acked epoch %llu\n",
                   static_cast<unsigned long long>(rep.update_epoch));
      return 5;
    }
    std::printf("ACK %llu\n",
                static_cast<unsigned long long>(rep.update_epoch));
    std::fflush(stdout);
    if (interval_ms > 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(interval_ms));
    }
  }
  link->close();
  return 0;
}

int run_follower(const std::string& socket_path, const std::string& dir,
                 PartId k) {
  auto link = SocketTransport::listen_unix(socket_path);

  ServiceConfig sc;
  sc.num_threads = 2;
  sc.background_refinement = false;
  sc.durability.dir = dir;
  sc.durability.compaction.damage_threshold = 0;  // lockstep with the leader
  sc.durability.compaction.bytes_threshold = 0;

  PartitionService service(sc);
  FollowerConfig fcfg;
  fcfg.base = replica_session_config(k);
  ReplicationFollower follower(service, *link, fcfg);
  const auto resumed = follower.start_follower();
  std::printf("FOLLOWING resumed_sessions=%zu\n", resumed.size());
  std::fflush(stdout);

  try {
    // Tail until the leader goes away (an orderly close ends in EOF; kill -9
    // ends in EOF, or in a reset when acks sat unread in the leader's
    // buffer — the transport reports both as peer_closed), then keep
    // pumping until the drained queue is empty.
    while (!link->peer_closed()) follower.pump(0.2);
    while (follower.pump(0.0) > 0) {
    }
    const PromotionReport report = follower.promote();
    for (const PromotedSession& s : report.sessions) {
      std::printf(
          "PROMOTED session=%llu epoch=%llu digest=%llu generation=%llu\n",
          static_cast<unsigned long long>(s.id),
          static_cast<unsigned long long>(s.epoch),
          static_cast<unsigned long long>(s.digest),
          static_cast<unsigned long long>(report.generation));
    }
    std::fflush(stdout);
  } catch (const ReplicationDivergedError& e) {
    std::fprintf(stderr, "DIVERGED: %s\n", e.what());
    return 3;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  CliArgs args(argc, argv);
  const bool lead = args.flag("lead");
  const bool follow = args.flag("follow");
  const bool reference = args.flag("reference");
  const std::string socket_path = args.str("socket", "");
  const std::string dir = args.str("dir", "");
  const int updates = args.integer("updates", 1000);
  const int interval_ms = args.integer("interval-ms", 2);
  const auto n = static_cast<VertexId>(args.integer("n", 12));
  const auto k = static_cast<PartId>(args.integer("k", 3));

  if (static_cast<int>(lead) + static_cast<int>(follow) +
          static_cast<int>(reference) != 1 ||
      (!reference && (socket_path.empty() || dir.empty()))) {
    std::fprintf(stderr,
                 "usage: %s --lead|--follow --socket=<path> --dir=<wal_dir>\n"
                 "       %s --reference [--updates=N] [--n=12] [--k=3]\n",
                 args.program().c_str(), args.program().c_str());
    return 2;
  }

  try {
    if (reference) return run_reference(updates, n, k);
    if (lead) return run_leader(socket_path, dir, updates, interval_ms, n, k);
    return run_follower(socket_path, dir, k);
  } catch (const Error& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
