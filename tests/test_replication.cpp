// Replication end-to-end over the loopback transport: bit-identical
// convergence, lockstep compaction with digest exchange, resume after link
// partitions, slow-follower backpressure and snapshot resync, the seeded
// transport fault matrix ("converges or fail-stops, never silently
// diverges"), fencing/split-brain prevention, divergence fail-stop, follower
// restart, and the kill-point-fuzzed failover sweep against a never-crashed
// reference.  Companions: test_transport.cpp (the seam itself),
// test_durability.cpp (single-node recovery).
#include "service/replication.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <new>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "common/assert.hpp"
#include "common/fault_injection.hpp"
#include "core/graph_delta.hpp"
#include "graph/generators.hpp"
#include "graph/partition.hpp"
#include "service/transport.hpp"

namespace gapart {
namespace {

namespace fs = std::filesystem;
using bench::column_bands;

std::string fresh_dir(const std::string& name) {
  const std::string dir =
      std::string(::testing::TempDir()) + "/gapart_rep_" + name;
  fs::remove_all(dir);
  return dir;
}

std::shared_ptr<const Graph> shared_grid(VertexId rows, VertexId cols) {
  return std::make_shared<const Graph>(make_grid(rows, cols));
}

/// Deterministic-replay session knobs (see test_durability.cpp): a huge
/// budget makes the admitted verification rounds a pure function of the
/// delta stream, so leader, follower, and reference replays are bit-equal.
SessionConfig session_config(PartId k) {
  SessionConfig cfg;
  cfg.num_parts = k;
  cfg.repair_budget_seconds = 60.0;
  return cfg;
}

ServiceConfig leader_config(const std::string& dir) {
  ServiceConfig sc;
  sc.num_threads = 2;
  sc.background_refinement = false;  // determinism: deltas only
  sc.durability.dir = dir;
  sc.durability.ship_retain_bytes = 0;  // wait for the shipper by default
  return sc;
}

ServiceConfig follower_config(const std::string& dir) {
  ServiceConfig sc = leader_config(dir);
  // The follower compacts in lockstep with the leader, never by local
  // policy: zero thresholds disable decide_compaction entirely.
  sc.durability.compaction.damage_threshold = 0;
  sc.durability.compaction.bytes_threshold = 0;
  // Fast retries so the fault-storm tests ride out injected I/O failures
  // without slowing the clean tests down.
  sc.durability.io_retry.max_attempts = 12;
  sc.durability.io_retry.initial_seconds = 1e-6;
  sc.durability.io_retry.max_seconds = 1e-5;
  return sc;
}

/// One full replication rig over a loopback link.
struct Rig {
  std::unique_ptr<LoopbackTransport> leader_end;
  std::unique_ptr<LoopbackTransport> follower_end;
  std::unique_ptr<PartitionService> leader;
  std::unique_ptr<PartitionService> follower_service;
  std::unique_ptr<ReplicationShipper> shipper;
  std::unique_ptr<ReplicationFollower> follower;

  Rig(const std::string& name, ShipperConfig ship = {},
      ServiceConfig (*leader_cfg)(const std::string&) = leader_config) {
    auto pair = LoopbackTransport::create_pair();
    leader_end = std::move(pair.first);
    follower_end = std::move(pair.second);
    leader = std::make_unique<PartitionService>(
        leader_cfg(fresh_dir(name + "_leader")));
    follower_service = std::make_unique<PartitionService>(
        follower_config(fresh_dir(name + "_follower")));
    shipper =
        std::make_unique<ReplicationShipper>(*leader, *leader_end, ship);
    FollowerConfig fcfg;
    fcfg.base = session_config(3);
    follower = std::make_unique<ReplicationFollower>(*follower_service,
                                                     *follower_end, fcfg);
    follower->start_follower();
  }

  /// Pumps both ends until the shipper reports drained (or `rounds` runs
  /// out — callers assert on drained()).
  void settle(int rounds = 200) {
    for (int i = 0; i < rounds; ++i) {
      shipper->pump();
      follower->pump();
      if (shipper->drained()) break;
    }
  }
};

void expect_converged(Rig& rig, SessionId id) {
  ASSERT_TRUE(rig.shipper->drained());
  const auto leader_session = rig.leader->session_handle(id);
  const auto follower_session = rig.follower_service->session_handle(id);
  const auto lsnap = leader_session->snapshot();
  const auto fsnap = follower_session->snapshot();
  EXPECT_EQ(fsnap->update_epoch, lsnap->update_epoch);
  EXPECT_EQ(fsnap->assignment, lsnap->assignment);
  EXPECT_EQ(follower_session->state_digest(), leader_session->state_digest());
  EXPECT_EQ(rig.follower->applied_epoch(id), lsnap->update_epoch);
}

// ---------------------------------------------------------------------------

TEST(Replication, FollowerConvergesBitIdentically) {
  const PartId k = 3;
  Rig rig("converge");
  auto prev = shared_grid(12, 12);
  const SessionId id = rig.leader->open_session(
      prev, column_bands(12, 12, k), session_config(k));
  rig.shipper->pump();  // attach at epoch 0, before the first update
  for (VertexId rows = 13; rows <= 18; ++rows) {
    auto next = shared_grid(rows, 12);
    rig.leader->submit_update(id, next, diff_graphs(*prev, *next));
    prev = next;
    rig.shipper->pump();
    rig.follower->pump();
  }
  rig.settle();
  expect_converged(rig, id);

  const ShipperStats ss = rig.shipper->stats();
  EXPECT_EQ(ss.opens_shipped, 1u);
  EXPECT_EQ(ss.records_shipped, 6u);
  EXPECT_FALSE(ss.deposed);
  const FollowerStats fs_ = rig.follower->stats();
  EXPECT_EQ(fs_.opens_applied, 1u);
  EXPECT_EQ(fs_.records_applied, 6u);
  EXPECT_GE(fs_.digests_verified, 1u);  // the open's digest checked
  EXPECT_FALSE(fs_.diverged);

  // The follower logged everything to its OWN wal: a restarted follower
  // replays to the same state (checked end-to-end in FollowerRestart).
  EXPECT_TRUE(rig.follower_service->session_stats(id).durable);
  EXPECT_EQ(rig.follower_service->session_stats(id).wal.appends, 6u);
}

TEST(Replication, MultiSessionShippingKeepsSessionsIndependent) {
  const PartId k = 3;
  Rig rig("multi");
  auto prev_a = shared_grid(12, 12);
  auto prev_b = shared_grid(10, 10);
  const SessionId a = rig.leader->open_session(
      prev_a, column_bands(12, 12, k), session_config(k));
  const SessionId b = rig.leader->open_session(
      prev_b, column_bands(10, 10, k), session_config(k));
  for (VertexId step = 1; step <= 4; ++step) {
    auto next_a = shared_grid(12 + step, 12);
    rig.leader->submit_update(a, next_a, diff_graphs(*prev_a, *next_a));
    prev_a = next_a;
    if (step % 2 == 0) {
      auto next_b = shared_grid(10 + step / 2, 10);
      rig.leader->submit_update(b, next_b, diff_graphs(*prev_b, *next_b));
      prev_b = next_b;
    }
    rig.shipper->pump();
    rig.follower->pump();
  }
  rig.settle();
  expect_converged(rig, a);
  expect_converged(rig, b);
  EXPECT_EQ(rig.shipper->stats().sessions_attached, 2);
}

TEST(Replication, LockstepCompactionVerifiesDigests) {
  const PartId k = 3;
  ShipperConfig ship;
  Rig rig("compact", ship, [](const std::string& dir) {
    ServiceConfig sc = leader_config(dir);
    sc.durability.compaction.damage_threshold = 1;  // every delta is damage
    sc.durability.compaction.min_records = 2;       // ... compact every 2
    return sc;
  });
  auto prev = shared_grid(12, 12);
  const SessionId id = rig.leader->open_session(
      prev, column_bands(12, 12, k), session_config(k));
  for (VertexId rows = 13; rows <= 20; ++rows) {
    auto next = shared_grid(rows, 12);
    rig.leader->submit_update(id, next, diff_graphs(*prev, *next));
    prev = next;
    // Pump INSIDE the stream: ship_retain_bytes=0 defers leader compaction
    // until the shipper consumed the log, so compactions land mid-stream.
    rig.shipper->pump();
    rig.follower->pump();
    rig.shipper->pump();
  }
  rig.settle();
  expect_converged(rig, id);

  // The leader compacted, the compaction was shipped, the follower verified
  // the digest and folded its own log in lockstep.
  EXPECT_GE(rig.leader->session_stats(id).wal.compactions, 2u);
  EXPECT_GE(rig.shipper->stats().compacts_shipped, 2u);
  const FollowerStats fs_ = rig.follower->stats();
  EXPECT_GE(fs_.compacts_applied, 2u);
  EXPECT_GE(fs_.digests_verified, fs_.compacts_applied);
  EXPECT_FALSE(fs_.diverged);
  EXPECT_GE(rig.follower_service->session_stats(id).wal.compactions, 1u);
  // Both snapshots agree on the digest at the last common boundary.
  EXPECT_EQ(rig.follower_service->session_stats(id).wal.snapshot_epoch,
            rig.leader->session_stats(id).wal.snapshot_epoch);
  EXPECT_EQ(rig.follower_service->session_stats(id).wal.snapshot_digest,
            rig.leader->session_stats(id).wal.snapshot_digest);
}

TEST(Replication, ResumesAfterLinkPartition) {
  const PartId k = 3;
  ShipperConfig ship;
  ship.resume_after_stalled_pumps = 2;
  Rig rig("partition", ship);
  auto prev = shared_grid(12, 12);
  const SessionId id = rig.leader->open_session(
      prev, column_bands(12, 12, k), session_config(k));
  rig.settle();

  // Partition the link, stream through it: every send fails.
  rig.leader_end->set_link_down(true);
  for (VertexId rows = 13; rows <= 16; ++rows) {
    auto next = shared_grid(rows, 12);
    rig.leader->submit_update(id, next, diff_graphs(*prev, *next));
    prev = next;
    rig.shipper->pump();
  }
  EXPECT_GT(rig.shipper->stats().send_failures, 0u);
  EXPECT_GT(rig.shipper->stats().frames_unacked, 0u);
  EXPECT_EQ(rig.follower->applied_epoch(id), 0u);

  // Heal: the shipper resumes from the acked offset and converges.
  rig.leader_end->set_link_down(false);
  rig.settle();
  expect_converged(rig, id);
}

TEST(Replication, SlowFollowerHitsBackpressureThenCatchesUp) {
  const PartId k = 3;
  ShipperConfig ship;
  ship.max_unacked_frames = 2;  // tiny ship queue
  Rig rig("slow", ship);
  auto prev = shared_grid(12, 12);
  const SessionId id = rig.leader->open_session(
      prev, column_bands(12, 12, k), session_config(k));
  // Stream without ever letting the follower run: the queue fills, the
  // shipper stalls at the bound instead of buffering unboundedly.
  for (VertexId rows = 13; rows <= 20; ++rows) {
    auto next = shared_grid(rows, 12);
    rig.leader->submit_update(id, next, diff_graphs(*prev, *next));
    prev = next;
    rig.shipper->pump();
  }
  const ShipperStats mid = rig.shipper->stats();
  EXPECT_GT(mid.backpressure_stalls, 0u);
  EXPECT_LE(mid.frames_unacked, 2u);
  EXPECT_GT(mid.lag_epochs_p99, 0.0);

  rig.settle();
  expect_converged(rig, id);
}

TEST(Replication, SnapshotResyncWhenCompactionOutranTheShipper) {
  const PartId k = 3;
  Rig rig("resync", {}, [](const std::string& dir) {
    ServiceConfig sc = leader_config(dir);
    sc.durability.compaction.damage_threshold = 1;
    sc.durability.compaction.min_records = 2;
    sc.durability.ship_retain_bytes = 1;  // give up on the shipper instantly
    return sc;
  });
  auto prev = shared_grid(12, 12);
  const SessionId id = rig.leader->open_session(
      prev, column_bands(12, 12, k), session_config(k));
  rig.settle();
  // Stream WITHOUT pumping: the leader compacts past the shipper's read
  // position (retain bound = 1 byte), so the records it never read are gone
  // from the log.
  for (VertexId rows = 13; rows <= 20; ++rows) {
    auto next = shared_grid(rows, 12);
    rig.leader->submit_update(id, next, diff_graphs(*prev, *next));
    prev = next;
  }
  EXPECT_GE(rig.leader->session_stats(id).wal.compactions, 1u);
  rig.settle();
  // The shipper re-bootstrapped the follower from the live state instead of
  // silently skipping the folded records.
  EXPECT_GE(rig.shipper->stats().snapshot_resyncs, 1u);
  expect_converged(rig, id);
}

TEST(Replication, TransportFaultMatrixNeverSilentlyDiverges) {
  const PartId k = 3;
  // Multiple seeded 10% fault schedules over every site (drop, dup,
  // reorder, truncate, send failure, plus the WAL/alloc sites).  Contract:
  // the follower converges bit-identically or fail-stops with a typed
  // error — it never silently diverges.
  for (const std::uint64_t seed : {11u, 22u, 33u, 44u, 55u}) {
    ShipperConfig ship;
    ship.resume_after_stalled_pumps = 2;
    Rig rig("faults" + std::to_string(seed), ship,
            [](const std::string& dir) {
              ServiceConfig sc = leader_config(dir);
              sc.durability.io_retry.max_attempts = 12;
              sc.durability.io_retry.initial_seconds = 1e-6;
              sc.durability.io_retry.max_seconds = 1e-5;
              return sc;
            });
    auto prev = shared_grid(12, 12);
    const SessionId id = rig.leader->open_session(
        prev, column_bands(12, 12, k), session_config(k));
    {
      ScopedFaultInjection scope(seed, 0.10);
      for (VertexId rows = 13; rows <= 20; ++rows) {
        auto next = shared_grid(rows, 12);
        const GraphDelta delta = diff_graphs(*prev, *next);
        for (;;) {
          try {
            rig.leader->submit_update(id, next, delta);
            break;
          } catch (const std::bad_alloc&) {
            // injected pre-mutation: resubmit, exactly like a real client
          }
        }
        prev = next;
        try {
          rig.shipper->pump();
          rig.follower->pump();
        } catch (const ReplicationDivergedError& e) {
          FAIL() << "seed " << seed << " diverged: " << e.what();
        }
      }
      EXPECT_GT(FaultInjector::instance().total_injected(), 0u);
    }  // disarm, then settle cleanly
    rig.settle(500);
    expect_converged(rig, id);
    EXPECT_FALSE(rig.follower->stats().diverged);
  }
}

TEST(Replication, PromotionFencesTheDeposedLeader) {
  const PartId k = 3;
  Rig rig("fence");
  auto prev = shared_grid(12, 12);
  const SessionId id = rig.leader->open_session(
      prev, column_bands(12, 12, k), session_config(k));
  for (VertexId rows = 13; rows <= 15; ++rows) {
    auto next = shared_grid(rows, 12);
    rig.leader->submit_update(id, next, diff_graphs(*prev, *next));
    prev = next;
  }
  rig.settle();
  expect_converged(rig, id);

  // Failover: promote the follower.  Generation bumps past the leader's.
  const PromotionReport report = rig.follower->promote();
  EXPECT_EQ(report.generation, 2u);
  ASSERT_EQ(report.sessions.size(), 1u);
  EXPECT_EQ(report.sessions[0].epoch, 3u);
  EXPECT_EQ(report.sessions[0].digest,
            rig.leader->session_handle(id)->state_digest());
  EXPECT_GE(report.seconds, 0.0);
  // The fence is durable: the follower dir's GENERATION outlives it.
  EXPECT_EQ(read_generation_file(
                rig.follower_service->config().durability.dir),
            2u);

  // Split brain: the deposed leader keeps writing and shipping.  Every one
  // of its post-fencing frames must be rejected.
  const std::uint64_t epoch_before = rig.follower->applied_epoch(id);
  const std::uint64_t digest_before =
      rig.follower_service->session_handle(id)->state_digest();
  auto next = shared_grid(16, 12);
  rig.leader->submit_update(id, next, diff_graphs(*prev, *next));
  rig.shipper->pump();
  rig.follower->pump();
  const FollowerStats fs_ = rig.follower->stats();
  EXPECT_GT(fs_.fenced_rejected, 0u);
  EXPECT_EQ(rig.follower->applied_epoch(id), epoch_before);
  EXPECT_EQ(rig.follower_service->session_handle(id)->state_digest(),
            digest_before);

  // ... and the deposed leader learns of its demotion from the fence ack.
  rig.shipper->pump();
  EXPECT_TRUE(rig.shipper->stats().deposed);

  // A deposed leader cannot come back with a stale term: the GENERATION
  // file fences its own directory too.
  write_generation_file(rig.leader->config().durability.dir, 9);
  ShipperConfig stale;
  stale.generation = 3;
  EXPECT_THROW(
      ReplicationShipper(*rig.leader, *rig.leader_end, stale),
      ReplicationError);
}

TEST(Replication, GenerationFileIsFsyncedBeforeItReplacesTheOldTerm) {
  const std::string dir = fresh_dir("generation_fsync");
  write_generation_file(dir, 4);
  {
    // A term that cannot be made durable must not replace the old one.
    ScopedFaultInjection scope(FaultSite::kWalFsync, 1);
    EXPECT_THROW(write_generation_file(dir, 5), IoError);
  }
  EXPECT_EQ(read_generation_file(dir), 4u);
  write_generation_file(dir, 5);
  EXPECT_EQ(read_generation_file(dir), 5u);
}

TEST(Replication, GenerationFileReadsZeroOnlyWhenAbsent) {
  const std::string dir = fresh_dir("generation_parse");
  fs::create_directories(dir);
  EXPECT_EQ(read_generation_file(dir), 0u);  // absent: never fenced
  const std::string path = dir + "/GENERATION";
  const auto put = [&path](const std::string& text) {
    std::ofstream(path, std::ios::binary | std::ios::trunc) << text;
  };
  put("7\n");
  EXPECT_EQ(read_generation_file(dir), 7u);
  put("18446744073709551615");
  EXPECT_EQ(read_generation_file(dir), 18446744073709551615u);
  for (const std::string bad :
       {"", "\n", "abc", "7x", "x7", " 7", "7 ", "-1", "+7", "7\n\n",
        "18446744073709551616"}) {
    put(bad);
    EXPECT_THROW(read_generation_file(dir), ReplicationError)
        << "contents \"" << bad << "\"";
  }
  // A GENERATION that exists but cannot be read as a file.
  fs::remove(path);
  fs::create_directory(path);
  EXPECT_THROW(read_generation_file(dir), ReplicationError);
}

TEST(Replication, UnreadableTermStopsShipperAndFollower) {
  Rig rig("unreadable_term");
  const std::string leader_dir = rig.leader->config().durability.dir;
  const std::string follower_dir =
      rig.follower_service->config().durability.dir;
  std::ofstream(leader_dir + "/GENERATION", std::ios::trunc) << "garbage";
  ShipperConfig sc;
  sc.generation = 5;
  EXPECT_THROW(ReplicationShipper(*rig.leader, *rig.leader_end, sc),
               ReplicationError);
  // The refused shipper left the unreadable term in place.
  EXPECT_THROW(read_generation_file(leader_dir), ReplicationError);

  fs::create_directories(follower_dir);
  std::ofstream(follower_dir + "/GENERATION", std::ios::trunc) << "3x";
  EXPECT_THROW(
      ReplicationFollower(*rig.follower_service, *rig.follower_end, {}),
      ReplicationError);
}

TEST(Replication, UnpersistedTermIsNeverAdopted) {
  const PartId k = 3;
  Rig rig("unpersisted_term");
  const std::string follower_dir =
      rig.follower_service->config().durability.dir;
  auto prev = shared_grid(12, 12);
  const SessionId id = rig.leader->open_session(prev, column_bands(12, 12, k),
                                                session_config(k));
  rig.shipper->pump();  // the open frame, under the leader's term 1
  {
    // The follower's first sight of term 1 cannot be persisted: the frame
    // counts as an apply failure, pump() does not throw, and neither the
    // in-memory nor the on-disk term moves.
    ScopedFaultInjection scope(FaultSite::kWalFsync, 1);
    EXPECT_NO_THROW(rig.follower->pump());
  }
  EXPECT_EQ(rig.follower->stats().apply_failures, 1u);
  EXPECT_EQ(rig.follower->stats().generation, 0u);
  EXPECT_EQ(rig.follower->stats().opens_applied, 0u);
  EXPECT_EQ(read_generation_file(follower_dir), 0u);

  // The leader redelivers; the term is persisted, then adopted.
  auto next = shared_grid(13, 12);
  rig.leader->submit_update(id, next, diff_graphs(*prev, *next));
  rig.settle();
  expect_converged(rig, id);
  EXPECT_EQ(rig.follower->stats().opens_applied, 1u);
  EXPECT_EQ(rig.follower->stats().generation, 1u);
  EXPECT_EQ(read_generation_file(follower_dir), 1u);

  // Promotion persists its new term before adopting it as well.
  {
    ScopedFaultInjection scope(FaultSite::kWalFsync, 1);
    EXPECT_THROW(rig.follower->promote(), IoError);
  }
  EXPECT_EQ(rig.follower->stats().generation, 1u);
  EXPECT_FALSE(rig.follower->stats().promoted);
  EXPECT_EQ(read_generation_file(follower_dir), 1u);
  EXPECT_EQ(rig.follower->promote().generation, 2u);
  EXPECT_EQ(read_generation_file(follower_dir), 2u);
}

TEST(Replication, DivergenceFailStopsWithTypedError) {
  const PartId k = 3;
  Rig rig("diverge", {}, [](const std::string& dir) {
    ServiceConfig sc = leader_config(dir);
    sc.durability.compaction.damage_threshold = 1;
    sc.durability.compaction.min_records = 1;  // compact at every boundary
    return sc;
  });
  auto prev = shared_grid(12, 12);
  const SessionId id = rig.leader->open_session(
      prev, column_bands(12, 12, k), session_config(k));
  auto g13 = shared_grid(13, 12);
  rig.leader->submit_update(id, g13, diff_graphs(*prev, *g13));
  prev = g13;
  rig.settle();
  expect_converged(rig, id);

  // Tamper with the replica: relabel parts 0 and 1 wholesale.  The cut and
  // the balance are unchanged, so the deterministic repair pass will never
  // heal it back — only the content digest can tell the states apart.
  Assignment tampered =
      rig.follower_service->session_handle(id)->snapshot()->assignment;
  for (PartId& part : tampered) {
    if (part == 0) {
      part = 1;
    } else if (part == 1) {
      part = 0;
    }
  }
  rig.follower_service->session_handle(id)->force_assignment(tampered,
                                                             "tamper");

  // The next snapshot boundary exchanges digests and must fail-stop.
  auto g14 = shared_grid(14, 12);
  rig.leader->submit_update(id, g14, diff_graphs(*prev, *g14));
  rig.shipper->pump();
  EXPECT_THROW(
      {
        for (int i = 0; i < 50; ++i) {
          rig.shipper->pump();
          rig.follower->pump();
        }
      },
      ReplicationDivergedError);
  EXPECT_TRUE(rig.follower->stats().diverged);
  // A diverged replica must never be promoted.
  EXPECT_THROW(rig.follower->promote(), Error);
}

TEST(Replication, UndecodableRecordFailStopsAndBlocksPromotion) {
  // A CRC-valid, in-sequence record whose payload does not decode means
  // the replica missed an update: like a broken chain, it must fail-stop
  // with the typed error and never be promoted.
  const PartId k = 3;
  Rig rig("undecodable");
  auto prev = shared_grid(12, 12);
  const SessionId id = rig.leader->open_session(
      prev, column_bands(12, 12, k), session_config(k));
  auto g13 = shared_grid(13, 12);
  rig.leader->submit_update(id, g13, diff_graphs(*prev, *g13));
  rig.settle();
  expect_converged(rig, id);

  const ShipperStats shipped = rig.shipper->stats();
  RepFrame junk;
  junk.type = RepFrameType::kRecord;
  junk.sub = static_cast<std::uint8_t>(WalRecordType::kDelta);
  junk.generation = shipped.generation;
  junk.session = id;
  junk.seq = shipped.opens_shipped + shipped.records_shipped +
             shipped.compacts_shipped + 1;
  junk.epoch = rig.follower->applied_epoch(id) + 1;
  junk.payload = "not a delta record";
  rig.leader_end->send(encode_rep_frame(junk));
  EXPECT_THROW(rig.follower->pump(), ReplicationDivergedError);
  EXPECT_TRUE(rig.follower->stats().diverged);
  EXPECT_EQ(rig.follower->stats().records_applied, shipped.records_shipped);
  EXPECT_THROW(rig.follower->promote(), Error);
}

TEST(Replication, RecordFrameOfUnknownWalTypeIsRejected) {
  RepFrame frame;
  frame.type = RepFrameType::kRecord;
  frame.generation = 1;
  frame.session = 1;
  frame.seq = 1;
  frame.epoch = 0;
  frame.payload = encode_assignment({1, 0});
  for (const std::uint8_t sub : {0, 3, 7, 255}) {
    frame.sub = sub;
    EXPECT_FALSE(decode_rep_frame(encode_rep_frame(frame)).has_value())
        << "sub " << static_cast<int>(sub);
  }
  for (const WalRecordType type :
       {WalRecordType::kDelta, WalRecordType::kRefine}) {
    frame.sub = static_cast<std::uint8_t>(type);
    const auto decoded = decode_rep_frame(encode_rep_frame(frame));
    ASSERT_TRUE(decoded.has_value());
    EXPECT_EQ(decoded->sub, frame.sub);
  }
}

OpenPayload small_open_payload() {
  OpenPayload open;
  open.num_parts = 2;
  open.digest = 42;
  open.graph_text = "2 1\n2\n1\n";
  open.part_text = "0\n1\n";
  return open;
}

TEST(Replication, OpenPayloadRejectsAliasingLengthsAndBadIdentity) {
  EXPECT_NO_THROW(
      decode_open_payload(encode_open_payload(small_open_payload())));

  // A graph length of 2^64 - 8 wraps `pos + n`: both texts would alias the
  // same trailing bytes.
  std::string aliased = encode_open_payload(small_open_payload());
  const std::uint64_t huge = ~std::uint64_t{0} - 7;
  std::memcpy(aliased.data() + 24, &huge, sizeof(huge));
  EXPECT_THROW(decode_open_payload(aliased), ReplicationError);

  OpenPayload no_parts = small_open_payload();
  no_parts.num_parts = 0;
  EXPECT_THROW(decode_open_payload(encode_open_payload(no_parts)),
               ReplicationError);

  OpenPayload bad_objective = small_open_payload();
  bad_objective.fitness.objective = static_cast<Objective>(7);
  EXPECT_THROW(decode_open_payload(encode_open_payload(bad_objective)),
               ReplicationError);
}

TEST(Replication, JunkOpenPayloadCountsAsCorruptNotAnEscape) {
  // Each junk open is CRC-valid; the follower must count and drop it, not
  // let an exception out of pump().
  Rig rig("junk_open");
  std::string aliased = encode_open_payload(small_open_payload());
  const std::uint64_t huge = ~std::uint64_t{0} - 7;
  std::memcpy(aliased.data() + 24, &huge, sizeof(huge));
  OpenPayload no_parts = small_open_payload();
  no_parts.num_parts = 0;
  OpenPayload bad_objective = small_open_payload();
  bad_objective.fitness.objective = static_cast<Objective>(7);
  // Decodes and parses, but part 5 does not exist in a 2-way session.
  OpenPayload misfit = small_open_payload();
  misfit.part_text = "0\n5\n";
  const std::vector<std::string> payloads = {
      aliased, encode_open_payload(no_parts),
      encode_open_payload(bad_objective), encode_open_payload(misfit)};
  std::uint64_t seq = 1;
  for (const std::string& payload : payloads) {
    RepFrame open;
    open.type = RepFrameType::kOpenSession;
    open.generation = 1;
    open.session = 9;
    open.seq = seq++;
    open.payload = payload;
    rig.leader_end->send(encode_rep_frame(open));
  }
  EXPECT_NO_THROW(rig.follower->pump());
  EXPECT_EQ(rig.follower->stats().corrupt_rejected, payloads.size());
  EXPECT_EQ(rig.follower->stats().opens_applied, 0u);
  EXPECT_FALSE(rig.follower->stats().diverged);
}

TEST(Replication, FollowerRestartResumesFromItsOwnDisk) {
  const PartId k = 3;
  const std::string follower_dir = fresh_dir("restart_follower");
  Rig rig("restart");
  // Rebuild the rig's follower on a dir we control.
  rig.follower.reset();
  rig.follower_service =
      std::make_unique<PartitionService>(follower_config(follower_dir));
  FollowerConfig fcfg;
  fcfg.base = session_config(k);
  rig.follower = std::make_unique<ReplicationFollower>(
      *rig.follower_service, *rig.follower_end, fcfg);
  rig.follower->start_follower();

  auto prev = shared_grid(12, 12);
  const SessionId id = rig.leader->open_session(
      prev, column_bands(12, 12, k), session_config(k));
  for (VertexId rows = 13; rows <= 15; ++rows) {
    auto next = shared_grid(rows, 12);
    rig.leader->submit_update(id, next, diff_graphs(*prev, *next));
    prev = next;
  }
  rig.settle();
  expect_converged(rig, id);

  // "Crash" the follower (no orderly close) and restart it on its own dir:
  // start_follower replays its local WAL back to the applied state.
  rig.follower.reset();
  rig.follower_service.reset();
  rig.follower_service =
      std::make_unique<PartitionService>(follower_config(follower_dir));
  rig.follower = std::make_unique<ReplicationFollower>(
      *rig.follower_service, *rig.follower_end, fcfg);
  const auto reports = rig.follower->start_follower();
  ASSERT_EQ(reports.size(), 1u);
  EXPECT_EQ(reports[0].final_epoch, 3u);
  EXPECT_EQ(rig.follower->applied_epoch(id), 3u);

  // The stream continues; the leader notices the follower's position (its
  // acks) moved backwards in seq and re-bootstraps, then converges.
  for (VertexId rows = 16; rows <= 18; ++rows) {
    auto next = shared_grid(rows, 12);
    rig.leader->submit_update(id, next, diff_graphs(*prev, *next));
    prev = next;
  }
  rig.settle(500);
  expect_converged(rig, id);
}

TEST(Replication, LagCountsAbsoluteEpochsOnARecoveredLeader) {
  // Regression: lag was this incarnation's update count minus the acked
  // epoch.  A recovered leader restarts its update count at zero while
  // epochs stay absolute, so a follower five epochs behind read as lag 0.
  const PartId k = 3;
  const std::string leader_dir = fresh_dir("lag_leader");
  ServiceConfig lc = leader_config(leader_dir);
  lc.durability.compaction.damage_threshold = 1;  // fold every record
  lc.durability.compaction.min_records = 1;

  auto prev = shared_grid(12, 12);
  {
    PartitionService leader(lc);
    const SessionId id = leader.open_session(prev, column_bands(12, 12, k),
                                             session_config(k));
    for (VertexId rows = 13; rows <= 32; ++rows) {
      auto next = shared_grid(rows, 12);
      leader.submit_update(id, next, diff_graphs(*prev, *next));
      prev = next;
    }
  }

  PartitionService leader(lc);
  const auto reports = leader.recover(session_config(k));
  ASSERT_EQ(reports.size(), 1u);
  ASSERT_EQ(reports[0].final_epoch, 20u);
  ASSERT_EQ(reports[0].records_replayed, 0u) << "all 20 updates compacted";
  ASSERT_EQ(leader.session_stats(1).updates, 0u);

  auto pair = LoopbackTransport::create_pair();
  PartitionService follower_service(
      follower_config(fresh_dir("lag_follower")));
  ReplicationShipper shipper(leader, *pair.first);
  FollowerConfig fcfg;
  fcfg.base = session_config(k);
  ReplicationFollower follower(follower_service, *pair.second, fcfg);
  follower.start_follower();
  for (int i = 0; i < 50 && !(shipper.drained() &&
                              shipper.acked_epoch(1) == 20u);
       ++i) {
    shipper.pump();
    follower.pump();
  }
  ASSERT_EQ(shipper.acked_epoch(1), 20u);

  // Five more updates the follower never applies: the true lag is 5.
  for (VertexId rows = 33; rows <= 37; ++rows) {
    auto next = shared_grid(rows, 12);
    leader.submit_update(1, next, diff_graphs(*prev, *next));
    prev = next;
  }
  for (int i = 0; i < 100; ++i) shipper.pump();
  EXPECT_EQ(shipper.acked_epoch(1), 20u);
  const ShipperStats st = shipper.stats();
  // Histogram percentiles: within one bucket (12.5%) of the true value.
  // The few settling samples (lag 20 before the first ack, then 0) sit in
  // the tails; the stalled pumps own the median.
  EXPECT_NEAR(st.lag_epochs_p50, 5.0, 5.0 * 0.125);
  EXPECT_GE(st.lag_epochs_p99, 5.0 * 0.875);
}

// ---------------------------------------------------------------------------
// The acceptance sweep: kill the leader at EVERY point of a faulted trace,
// promote the follower, and require (a) zero acked deltas lost and (b) the
// promoted state bit-equal to a never-crashed reference at that epoch.

TEST(Replication, KillPointFuzzedFailoverLosesNoAckedDelta) {
  const PartId k = 3;
  const VertexId first_rows = 13, last_rows = 20;

  // Never-crashed reference: one plain session absorbing the same trace,
  // digest recorded at every epoch.
  std::vector<std::uint64_t> reference_digest(1, 0);  // [0] = epoch 0
  {
    auto prev = shared_grid(12, 12);
    PartitionSession session(prev, column_bands(12, 12, k),
                             session_config(k));
    reference_digest[0] = session.state_digest();
    for (VertexId rows = first_rows; rows <= last_rows; ++rows) {
      auto next = shared_grid(rows, 12);
      session.apply_update(next, diff_graphs(*prev, *next));
      prev = next;
      reference_digest.push_back(session.state_digest());
    }
  }

  const int trace_len = static_cast<int>(last_rows - first_rows + 1);
  for (int kill_point = 1; kill_point <= trace_len; ++kill_point) {
    ShipperConfig ship;
    ship.resume_after_stalled_pumps = 2;
    Rig rig("kill" + std::to_string(kill_point), ship,
            [](const std::string& dir) {
              ServiceConfig sc = leader_config(dir);
              sc.durability.io_retry.max_attempts = 12;
              sc.durability.io_retry.initial_seconds = 1e-6;
              sc.durability.io_retry.max_seconds = 1e-5;
              return sc;
            });
    auto prev = shared_grid(12, 12);
    const SessionId id = rig.leader->open_session(
        prev, column_bands(12, 12, k), session_config(k));

    // Stream with 10% faults on every transport and I/O site, tracking the
    // highest epoch the FOLLOWER acknowledged — the replicated system's
    // acks, the only ones failover promises to keep.
    std::uint64_t follower_acked_epoch = 0;
    {
      ScopedFaultInjection scope(2026u + static_cast<std::uint64_t>(kill_point),
                                 0.10);
      for (int step = 1; step <= kill_point; ++step) {
        auto next =
            shared_grid(first_rows + static_cast<VertexId>(step) - 1, 12);
        const GraphDelta delta = diff_graphs(*prev, *next);
        for (;;) {
          try {
            rig.leader->submit_update(id, next, delta);
            break;
          } catch (const std::bad_alloc&) {
          }
        }
        prev = next;
        for (int pump = 0; pump < 3; ++pump) {
          rig.shipper->pump();
          rig.follower->pump();
        }
        follower_acked_epoch = rig.shipper->acked_epoch(id);
      }
    }

    // kill -9 the leader: shipper and leader service vanish mid-stream;
    // whatever frames were in flight stay on the link.
    rig.shipper.reset();
    rig.leader.reset();

    const PromotionReport report = rig.follower->promote();
    if (report.sessions.empty()) {
      // The storm kept even the session open from landing before the kill.
      // That is a legal outcome only if nothing was ever acknowledged.
      EXPECT_EQ(follower_acked_epoch, 0u) << "kill point " << kill_point;
      continue;
    }
    ASSERT_EQ(report.sessions.size(), 1u);
    const PromotedSession& promoted = report.sessions[0];

    // (a) Zero acked deltas lost: promotion never lands below the last
    // follower-acked epoch.
    EXPECT_GE(promoted.epoch, follower_acked_epoch)
        << "kill point " << kill_point;
    // (b) Bit-identical to the never-crashed reference at that epoch.
    ASSERT_LT(promoted.epoch, reference_digest.size());
    EXPECT_EQ(promoted.digest, reference_digest[promoted.epoch])
        << "kill point " << kill_point << " promoted at epoch "
        << promoted.epoch;
    EXPECT_FALSE(rig.follower->stats().diverged);

    // The promoted service accepts writes — it is the leader now.
    auto next = shared_grid(21, 12);
    auto promoted_prev = rig.follower_service->snapshot(id)->graph;
    const GraphDelta delta = diff_graphs(*promoted_prev, *next);
    const RepairReport rep =
        rig.follower_service->submit_update(id, next, delta);
    EXPECT_EQ(rep.update_epoch, promoted.epoch + 1);
  }
}

}  // namespace
}  // namespace gapart
