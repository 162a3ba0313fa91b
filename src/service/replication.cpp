#include "service/replication.hpp"

#include <algorithm>
#include <charconv>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <limits>
#include <sstream>
#include <string_view>
#include <system_error>
#include <utility>

#include "common/assert.hpp"
#include "common/byte_codec.hpp"
#include "common/telemetry.hpp"
#include "common/timer.hpp"
#include "graph/io.hpp"
#include "service/wal.hpp"

namespace gapart {

namespace {

// Fixed fields: type u8 + sub u8 + generation, session, seq, epoch u64 +
// flags u32.
constexpr CrcFrameLayout kRepFrame{0x50524147u /* "GARP" */, 38,
                                   std::numeric_limits<std::uint32_t>::max()};
/// Cap on log bytes read per session per pump (keeps one pump bounded).
constexpr std::uint64_t kMaxReadBytesPerPump = 4ull << 20;

std::string generation_path(const std::string& dir) {
  return dir + "/GENERATION";
}

/// Marks a replica diverged and throws: it must never be promoted.
[[noreturn]] void diverge(FollowerStats& stats, std::uint64_t session,
                          const std::string& why) {
  stats.diverged = true;
  throw ReplicationDivergedError("session " + std::to_string(session) + " " +
                                 why);
}

/// Exact divergence detection at a snapshot boundary: the replica's state
/// must match the leader's digest bit for bit, or it fail-stops.
void verify_digest(FollowerStats& stats, const PartitionSession& session,
                   const RepFrame& frame, std::uint64_t leader_digest) {
  const std::uint64_t local = session.state_digest();
  if (local != leader_digest) {
    diverge(stats, frame.session,
            "diverged at epoch " + std::to_string(frame.epoch) +
                ": leader digest " + std::to_string(leader_digest) +
                ", follower " + std::to_string(local));
  }
  ++stats.digests_verified;
}

}  // namespace

// ---------------------------------------------------------------------------
// Wire codec
// ---------------------------------------------------------------------------

std::string encode_rep_frame(const RepFrame& frame) {
  std::string fields;
  ByteWriter(fields)
      .put<std::uint8_t>(static_cast<std::uint8_t>(frame.type))
      .put<std::uint8_t>(frame.sub)
      .put<std::uint64_t>(frame.generation)
      .put<std::uint64_t>(frame.session)
      .put<std::uint64_t>(frame.seq)
      .put<std::uint64_t>(frame.epoch)
      .put<std::uint32_t>(frame.flags);
  return seal_crc_frame(kRepFrame, fields, frame.payload);
}

std::optional<RepFrame> decode_rep_frame(const std::string& wire) {
  auto opened = open_crc_frame(kRepFrame, wire);
  if (!opened.has_value() || opened->size != wire.size()) return std::nullopt;
  ByteReader& in = opened->fields;
  const auto type = in.get<std::uint8_t>();
  if (type < 1 || type > 4) return std::nullopt;
  RepFrame frame;
  frame.type = static_cast<RepFrameType>(type);
  frame.sub = in.get<std::uint8_t>();
  // A record carries a WAL record type; an unknown one must never reach
  // replay, which would take it for a refinement.
  if (frame.type == RepFrameType::kRecord &&
      frame.sub != static_cast<std::uint8_t>(WalRecordType::kDelta) &&
      frame.sub != static_cast<std::uint8_t>(WalRecordType::kRefine)) {
    return std::nullopt;
  }
  frame.generation = in.get<std::uint64_t>();
  frame.session = in.get<std::uint64_t>();
  frame.seq = in.get<std::uint64_t>();
  frame.epoch = in.get<std::uint64_t>();
  frame.flags = in.get<std::uint32_t>();
  frame.payload = opened->payload;
  return frame;
}

std::string encode_open_payload(const OpenPayload& open) {
  std::string out;
  ByteWriter(out)
      .put<std::uint32_t>(static_cast<std::uint32_t>(open.num_parts))
      .put<std::uint32_t>(static_cast<std::uint32_t>(open.fitness.objective))
      .put<double>(open.fitness.lambda)
      .put<std::uint64_t>(open.digest)
      .put<std::uint64_t>(open.graph_text.size())
      .put_bytes(open.graph_text)
      .put<std::uint64_t>(open.part_text.size())
      .put_bytes(open.part_text);
  return out;
}

OpenPayload decode_open_payload(const std::string& payload) try {
  ByteReader in(payload, "open-session payload");
  OpenPayload open;
  open.num_parts = static_cast<PartId>(in.get<std::uint32_t>());
  const auto objective = in.get<std::uint32_t>();
  open.fitness.lambda = in.get<double>();
  open.digest = in.get<std::uint64_t>();
  open.graph_text = in.take(in.get<std::uint64_t>());
  open.part_text = in.take(in.get<std::uint64_t>());
  in.expect_end();
  GAPART_REQUIRE(open.num_parts >= 1 &&
                     objective <= static_cast<std::uint32_t>(
                                      Objective::kWorstComm),
                 "open-session payload names ", open.num_parts,
                 " parts and objective ", objective);
  open.fitness.objective = static_cast<Objective>(objective);
  return open;
} catch (const Error& e) {
  throw ReplicationError(e.what());
}

std::uint64_t read_generation_file(const std::string& dir) {
  // Fail closed: only a missing file means "never fenced".  A term that is
  // there but unreadable must not read as 0, or a deposed leader would pass
  // its stale-term check and a follower would forget its fence.
  const std::string path = generation_path(dir);
  std::error_code ec;
  const auto status = std::filesystem::status(path, ec);
  if (status.type() == std::filesystem::file_type::not_found) return 0;
  if (ec || status.type() != std::filesystem::file_type::regular) {
    throw ReplicationError("cannot read fencing term " + path +
                           (ec ? ": " + ec.message() : ": not a file"));
  }
  std::ifstream in(path, std::ios::binary);
  std::string text((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  if (!in.is_open() || in.bad()) {
    throw ReplicationError("cannot read fencing term " + path);
  }
  // Exactly one decimal u64, as write_generation_file leaves it.
  std::string_view digits = text;
  if (!digits.empty() && digits.back() == '\n') digits.remove_suffix(1);
  std::uint64_t generation = 0;
  const char* end = digits.data() + digits.size();
  const auto [ptr, err] = std::from_chars(digits.data(), end, generation);
  if (digits.empty() || err != std::errc{} || ptr != end) {
    throw ReplicationError("fencing term " + path +
                           " is not one decimal u64: \"" + text + "\"");
  }
  return generation;
}

void write_generation_file(const std::string& dir, std::uint64_t generation) {
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  write_file_atomic(generation_path(dir), std::to_string(generation) + "\n",
                    dir);
}

// ---------------------------------------------------------------------------
// ReplicationShipper
// ---------------------------------------------------------------------------

ReplicationShipper::ReplicationShipper(PartitionService& service,
                                       Transport& link, ShipperConfig config)
    : service_(service), link_(link), config_(config) {
  GAPART_REQUIRE(service_.config().durability.enabled(),
                 "replication ships WAL records: the leader service needs a "
                 "durability directory");
  // Fencing: a deposed leader restarting with a stale term must not be able
  // to ship again — its GENERATION file outlives it.
  const std::uint64_t persisted =
      read_generation_file(service_.config().durability.dir);
  if (persisted > config_.generation) {
    throw ReplicationError(
        "stale leader generation " + std::to_string(config_.generation) +
        ": this directory was already fenced at generation " +
        std::to_string(persisted));
  }
  write_generation_file(service_.config().durability.dir, config_.generation);
  stats_.generation = config_.generation;
}

ReplicationShipper::~ReplicationShipper() { stop(); }

void ReplicationShipper::enqueue(SessionShip& ship, RepFrame frame) {
  frame.generation = config_.generation;
  frame.seq = ship.next_seq++;
  SessionShip::Queued q;
  q.seq = frame.seq;
  q.wire = encode_rep_frame(frame);
  ship.queue.push_back(std::move(q));
}

void ReplicationShipper::resync(SessionId id, SessionShip& ship) {
  const auto session = service_.session_handle(id);
  // Order matters: reading the WAL stats BEFORE capturing the snapshot
  // means a compaction racing us lands with snapshot_epoch > what we record
  // here, so observe_compaction re-checks it next pump instead of silently
  // marking it covered.
  const SessionStats st = session->stats();
  const auto snap = session->snapshot();

  OpenPayload open;
  open.num_parts = session->config().num_parts;
  open.fitness = session->config().fitness;
  open.digest = assignment_content_hash(*snap->graph, snap->assignment,
                                        open.num_parts);
  open.graph_text = format_graph(*snap->graph);
  open.part_text = format_partition(snap->assignment);

  RepFrame frame;
  frame.type = RepFrameType::kOpenSession;
  frame.session = id;
  frame.epoch = snap->update_epoch;
  frame.payload = encode_open_payload(open);

  // A full reset: everything previously queued is superseded by the open.
  ship.queue.clear();
  ship.sent_upto = 0;
  ship.stalled_pumps = 0;
  enqueue(ship, std::move(frame));
  ship.attached = true;
  ship.needs_resync = false;
  ship.file_offset = kWalLogHeaderBytes;
  ship.read_epoch = snap->update_epoch;
  ship.shipped_snapshot_epoch = st.wal.snapshot_epoch;
  if (ship.gate == nullptr) {
    ship.gate = std::make_shared<WalShipGate>();
    session->set_ship_gate(ship.gate);
  }
  ship.gate->consumed_offset.store(kWalLogHeaderBytes,
                                   std::memory_order_release);
  ++stats_.opens_shipped;
}

void ReplicationShipper::observe_compaction(SessionId id, SessionShip& ship,
                                            const WalStats& wal) {
  if (wal.snapshot_epoch <= ship.shipped_snapshot_epoch) return;
  if (ship.read_epoch == wal.snapshot_epoch) {
    // Lockstep: the ship gate guarantees compaction only ran once we had
    // consumed the whole log, so everything folded into the snapshot is
    // already in the stream — the follower can fold too.  The digest rides
    // along for exact divergence detection at the boundary.
    RepFrame frame;
    frame.type = RepFrameType::kCompact;
    frame.session = id;
    frame.epoch = wal.snapshot_epoch;
    ByteWriter(frame.payload).put<std::uint64_t>(wal.snapshot_digest);
    enqueue(ship, std::move(frame));
    ship.file_offset = kWalLogHeaderBytes;
    ship.shipped_snapshot_epoch = wal.snapshot_epoch;
    if (ship.gate != nullptr) {
      ship.gate->consumed_offset.store(kWalLogHeaderBytes,
                                       std::memory_order_release);
    }
    ++stats_.compacts_shipped;
  } else {
    // The log was folded past our read position (ship_retain_bytes gave up
    // on us): records we never shipped are gone.  Re-bootstrap from the
    // live state.
    ++stats_.snapshot_resyncs;
    resync(id, ship);
  }
}

void ReplicationShipper::read_tail(SessionId id, SessionShip& ship,
                                   const WalStats& wal) {
  if (ship.queue.size() >= config_.max_unacked_frames) {
    ++stats_.backpressure_stalls;
    return;
  }
  if (wal.durable_bytes <= ship.file_offset) return;
  // Never past the leader's fsynced offset: a follower must not hold an
  // update the leader could still lose.
  const std::uint64_t limit =
      std::min(wal.durable_bytes, ship.file_offset + kMaxReadBytesPerPump);
  const std::string path = service_.session_wal_dir(id) + "/wal.log";
  WalTail tail = read_log_tail(path, ship.file_offset, limit);
  for (std::size_t i = 0; i < tail.records.size(); ++i) {
    if (ship.queue.size() >= config_.max_unacked_frames) {
      // Backpressure: stop at this frame boundary; the offset stays put so
      // the next pump resumes exactly here.
      ++stats_.backpressure_stalls;
      break;
    }
    WalRecord& record = tail.records[i];
    const bool ship_it = record.type == WalRecordType::kDelta
                             ? record.epoch == ship.read_epoch + 1
                             : record.epoch == ship.read_epoch;
    if (ship_it) {
      RepFrame frame;
      frame.type = RepFrameType::kRecord;
      frame.sub = static_cast<std::uint8_t>(record.type);
      frame.session = id;
      frame.epoch = record.epoch;
      frame.flags = record.flags;
      frame.payload = std::move(record.payload);
      enqueue(ship, std::move(frame));
      ship.read_epoch = record.epoch;
      ++stats_.records_shipped;
    }
    // Skipped records (stale compaction prefix) still advance the offset.
    ship.file_offset = tail.ends[i];
  }
  if (ship.gate != nullptr) {
    ship.gate->consumed_offset.store(ship.file_offset,
                                     std::memory_order_release);
  }
}

int ReplicationShipper::send_pending(SessionShip& ship) {
  int sent = 0;
  while (ship.sent_upto < ship.queue.size()) {
    try {
      link_.send(ship.queue[ship.sent_upto].wire);
    } catch (const TransportError&) {
      ++stats_.send_failures;
      break;  // link down or backpressured; retry next pump
    }
    ship.queue[ship.sent_upto].sent_at = GAPART_TSTAMP();
    ++ship.sent_upto;
    ++sent;
    ++stats_.frames_sent;
  }
  return sent;
}

void ReplicationShipper::drain_acks() {
  while (auto wire = link_.receive(0.0)) {
    const auto frame = decode_rep_frame(*wire);
    if (!frame.has_value() || frame->type != RepFrameType::kAck) continue;
    ++stats_.acks_received;
    if (frame->generation > config_.generation) {
      // Someone promoted past us: this leader is deposed.  Stop shipping;
      // local durability keeps working, the operator decides what's next.
      stats_.deposed = true;
      return;
    }
    const auto it = ships_.find(frame->session);
    if (it == ships_.end()) continue;
    SessionShip& ship = it->second;
    if (frame->seq < ship.acked_seq) {
      // The follower moved backwards: it restarted and recovered from its
      // own disk.  Re-bootstrap it.
      ship.needs_resync = true;
      continue;
    }
    if (frame->seq == ship.acked_seq) continue;
    ship.acked_seq = frame->seq;
    ship.acked_epoch = frame->epoch;
    ship.progressed = true;
    while (!ship.queue.empty() && ship.queue.front().seq <= ship.acked_seq) {
      if (ship.queue.front().sent_at > 0.0) {
        GAPART_HISTOGRAM_RECORD("replication.ack_rtt_seconds",
                                GAPART_TSTAMP() - ship.queue.front().sent_at);
      }
      ship.queue.pop_front();
      if (ship.sent_upto > 0) --ship.sent_upto;
    }
  }
}

int ReplicationShipper::pump() {
  std::lock_guard<std::mutex> lock(mu_);
  if (stats_.deposed) return 0;
  for (auto& [id, ship] : ships_) ship.progressed = false;
  drain_acks();
  if (stats_.deposed) return 0;

  int sent = 0;
  for (const SessionId id : service_.session_ids()) {
    SessionShip& ship = ships_[id];
    SessionStats st;
    std::uint64_t leader_epoch = 0;
    try {
      const auto session = service_.session_handle(id);
      st = session->stats();
      if (!st.durable) continue;
      leader_epoch = session->snapshot()->update_epoch;
      if (!ship.attached || ship.needs_resync) resync(id, ship);
      observe_compaction(id, ship, st.wal);
      read_tail(id, ship, st.wal);
      // Compaction liveness: apply_update evaluates the policy only right
      // after an append, when the ship gate is necessarily still behind the
      // fresh record — a strict gate (ship_retain_bytes == 0) would defer
      // forever.  This pump just consumed the tail, so run anything the
      // gate deferred; observe_compaction ships the boundary next pump.
      if (ship.attached && ship.file_offset >= st.wal.durable_bytes) {
        session->poll_compaction();
      }
    } catch (const Error&) {
      continue;  // the session closed under us; next pump drops it
    }

    // Resume: no ack progress for N pumps with frames outstanding means
    // sent frames (or their acks) were lost — re-send everything unacked
    // with the original seqs; the follower's seq check dedups survivors.
    if (!ship.queue.empty() && !ship.progressed) {
      if (++ship.stalled_pumps >= config_.resume_after_stalled_pumps) {
        ship.sent_upto = 0;
        ship.stalled_pumps = 0;
        ++stats_.resumes;
        GAPART_COUNTER_ADD("replication.resumes", 1);
        // Every still-queued frame is about to go over the wire again.
        GAPART_COUNTER_ADD("replication.redelivered_frames",
                           ship.queue.size());
      }
    } else if (ship.progressed) {
      ship.stalled_pumps = 0;
    }

    sent += send_pending(ship);

    // Epochs are absolute across leader restarts; SessionStats::updates
    // counts only this incarnation's deltas, so it cannot stand in here.
    const std::uint64_t lag =
        leader_epoch >= ship.acked_epoch ? leader_epoch - ship.acked_epoch : 0;
    lag_epochs_.record(static_cast<double>(lag));
  }
  return sent;
}

bool ReplicationShipper::drained() const {
  std::lock_guard<std::mutex> lock(mu_);
  for (const SessionId id : service_.session_ids()) {
    const auto it = ships_.find(id);
    if (it == ships_.end()) return false;
    const SessionShip& ship = it->second;
    if (!ship.attached || ship.needs_resync) return false;
    if (!ship.queue.empty()) return false;
    try {
      const SessionStats st = service_.session_handle(id)->stats();
      if (st.durable && st.wal.durable_bytes > ship.file_offset) return false;
    } catch (const Error&) {
      continue;
    }
  }
  return true;
}

void ReplicationShipper::start(double interval_seconds) {
  GAPART_REQUIRE(!running_.load(), "shipper thread already running");
  running_.store(true);
  thread_ = std::thread([this, interval_seconds] {
    while (running_.load()) {
      pump();
      std::this_thread::sleep_for(
          std::chrono::duration<double>(interval_seconds));
    }
  });
}

void ReplicationShipper::stop() {
  running_.store(false);
  if (thread_.joinable()) thread_.join();
}

ShipperStats ReplicationShipper::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  ShipperStats out = stats_;
  out.sessions_attached = 0;
  out.frames_unacked = 0;
  for (const auto& [id, ship] : ships_) {
    if (ship.attached) ++out.sessions_attached;
    out.frames_unacked += ship.queue.size();
  }
  out.lag_epochs_p50 = lag_epochs_.quantile(0.50);
  out.lag_epochs_p99 = lag_epochs_.quantile(0.99);
  return out;
}

std::uint64_t ReplicationShipper::acked_epoch(SessionId id) const {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = ships_.find(id);
  return it == ships_.end() ? 0 : it->second.acked_epoch;
}

// ---------------------------------------------------------------------------
// ReplicationFollower
// ---------------------------------------------------------------------------

ReplicationFollower::ReplicationFollower(PartitionService& service,
                                         Transport& link,
                                         FollowerConfig config)
    : service_(service), link_(link), config_(std::move(config)) {
  generation_ = config_.generation;
  if (service_.config().durability.enabled()) {
    generation_ =
        std::max(generation_,
                 read_generation_file(service_.config().durability.dir));
  }
  stats_.generation = generation_;
}

void ReplicationFollower::persist_generation(std::uint64_t generation) {
  if (!service_.config().durability.enabled()) return;
  write_generation_file(service_.config().durability.dir, generation);
}

std::vector<RecoveryReport> ReplicationFollower::start_follower() {
  std::lock_guard<std::mutex> lock(mu_);
  GAPART_REQUIRE(!started_, "start_follower() called twice");
  std::vector<RecoveryReport> reports;
  if (service_.config().durability.enabled()) {
    // recover() generalized: the replica state already on disk replays
    // through the same deterministic pipeline, then tail mode continues it.
    // applied_seq restarts at 0 — the leader notices the backwards ack and
    // re-bootstraps or resumes as needed.
    reports = service_.recover(config_.base);
    for (const RecoveryReport& report : reports) {
      Replica replica;
      replica.applied_seq = 0;
      replica.applied_epoch = report.final_epoch;
      replicas_[report.session_id] = replica;
    }
  }
  started_ = true;
  stats_.sessions = service_.num_sessions();
  return reports;
}

void ReplicationFollower::ack(SessionId id, const Replica& replica) {
  RepFrame frame;
  frame.type = RepFrameType::kAck;
  frame.generation = generation_;
  frame.session = id;
  frame.seq = replica.applied_seq;
  frame.epoch = replica.applied_epoch;
  try {
    link_.send(encode_rep_frame(frame));
    ++stats_.acks_sent;
  } catch (const TransportError&) {
    // A lost ack only delays the leader; its resume re-sends and the seq
    // check dedups.
  }
}

void ReplicationFollower::handle_frame(RepFrame frame) {
  if (frame.type == RepFrameType::kAck) return;  // not addressed to us

  // Fencing: frames from a generation below the accepted term are a deposed
  // leader talking after failover — reject.  A higher term is a new leader;
  // adopt and persist it before applying anything under it.
  if (frame.generation < generation_) {
    ++stats_.fenced_rejected;
    // Answer with an ack carrying OUR term: that is how a deposed leader,
    // still streaming into the void after a failover, learns it was fenced.
    ack(frame.session, replicas_[frame.session]);
    return;
  }
  if (frame.generation > generation_) {
    try {
      persist_generation(frame.generation);
    } catch (const IoError&) {
      // The term stays where it was and nothing is applied under the new
      // one; the leader's resume redelivers the frame.
      ++stats_.apply_failures;
      return;
    }
    generation_ = frame.generation;
    stats_.generation = generation_;
  }

  Replica& replica = replicas_[frame.session];

  if (frame.type == RepFrameType::kOpenSession) {
    // A full reset: accepted at any seq above the applied one.
    if (frame.seq <= replica.applied_seq) {
      ++stats_.duplicates_dropped;
      ack(frame.session, replica);
      return;
    }
    OpenPayload open;
    Graph graph;
    Assignment assignment;
    try {
      open = decode_open_payload(frame.payload);
      std::istringstream graph_is(open.graph_text);
      graph = read_graph(graph_is);
      std::istringstream part_is(open.part_text);
      assignment = read_partition(part_is);
    } catch (const Error&) {
      ++stats_.corrupt_rejected;  // CRC passed but the payload is junk
      return;
    }
    SessionConfig scfg = config_.base;
    scfg.num_parts = open.num_parts;
    scfg.fitness = open.fitness;
    try {
      service_.open_replica_session(frame.session,
                                    std::make_shared<Graph>(std::move(graph)),
                                    std::move(assignment), std::move(scfg),
                                    frame.epoch, open.digest);
    } catch (const std::bad_alloc&) {
      ++stats_.apply_failures;  // leader resume re-delivers the open
      return;
    } catch (const IoError&) {
      ++stats_.apply_failures;  // local snapshot write failed; no session
      return;
    } catch (const Error&) {
      ++stats_.corrupt_rejected;  // e.g. a partition that does not fit
      return;
    }
    verify_digest(stats_, *service_.session_handle(frame.session), frame,
                  open.digest);
    replica.applied_seq = frame.seq;
    replica.applied_epoch = frame.epoch;
    ++stats_.opens_applied;
    stats_.sessions = service_.num_sessions();
    ack(frame.session, replica);
    return;
  }

  // kRecord / kCompact: strict per-session sequencing.  Duplicates (dup or
  // reordered delivery) are dropped with a re-ack to unstick the leader;
  // gaps (a dropped frame upstream) are dropped and heal when the leader
  // resumes from the acked offset.
  if (frame.seq <= replica.applied_seq) {
    ++stats_.duplicates_dropped;
    ack(frame.session, replica);
    return;
  }
  if (frame.seq > replica.applied_seq + 1) {
    // A dropped frame upstream — or this follower restarted and its seq
    // counter reset.  Ack the real position: the leader resumes from it,
    // or (seeing the position move backwards) re-bootstraps us.
    ++stats_.gaps_dropped;
    ack(frame.session, replica);
    return;
  }
  std::shared_ptr<PartitionSession> session;
  try {
    session = service_.session_handle(frame.session);
  } catch (const Error&) {
    ++stats_.gaps_dropped;  // records before their open (the open dropped)
    ack(frame.session, replica);
    return;
  }

  if (frame.type == RepFrameType::kCompact) {
    if (frame.epoch != replica.applied_epoch) {
      diverge(stats_, frame.session,
              "compaction boundary at epoch " + std::to_string(frame.epoch) +
                  " does not match applied epoch " +
                  std::to_string(replica.applied_epoch));
    }
    if (frame.payload.size() != 8) {
      ++stats_.corrupt_rejected;
      return;
    }
    verify_digest(stats_, *session, frame,
                  ByteReader(frame.payload).get<std::uint64_t>());
    session->compact_now();  // false keeps the log; correctness unaffected
    replica.applied_seq = frame.seq;
    ++stats_.compacts_applied;
    ack(frame.session, replica);
    return;
  }

  // kRecord: the WAL epoch chain must hold exactly — the frame is
  // CRC-valid and in sequence, so a broken chain is protocol divergence,
  // not noise.
  WalRecord record;
  record.type = static_cast<WalRecordType>(frame.sub);
  record.epoch = frame.epoch;
  record.flags = frame.flags;
  record.payload = std::move(frame.payload);
  const bool chain_ok = record.type == WalRecordType::kDelta
                            ? record.epoch == replica.applied_epoch + 1
                            : record.epoch == replica.applied_epoch;
  if (!chain_ok) {
    diverge(stats_, frame.session,
            "record epoch " + std::to_string(record.epoch) +
                " breaks the chain at applied epoch " +
                std::to_string(replica.applied_epoch));
  }
  try {
    replay_wal_record(*session, record, /*log_locally=*/true);
  } catch (const std::bad_alloc&) {
    ++stats_.apply_failures;  // injected alloc fault; resume re-delivers
    return;
  } catch (const IoError&) {
    ++stats_.apply_failures;  // local WAL hiccup; do not advance the seq
    return;
  } catch (const Error& e) {
    // A CRC-valid, in-sequence record that does not apply is a missed
    // update, like a broken chain: retrying cannot help.
    diverge(stats_, frame.session,
            "cannot apply record epoch " + std::to_string(record.epoch) +
                ": " + e.what());
  }
  replica.applied_seq = frame.seq;
  replica.applied_epoch = record.epoch;
  ++stats_.records_applied;
  ack(frame.session, replica);
}

int ReplicationFollower::pump(double timeout_seconds) {
  std::lock_guard<std::mutex> lock(mu_);
  GAPART_REQUIRE(started_, "call start_follower() before pump()");
  return drain_link(timeout_seconds);
}

int ReplicationFollower::drain_link(double timeout_seconds) {
  int processed = 0;
  double timeout = timeout_seconds;
  while (auto wire = link_.receive(timeout)) {
    timeout = 0.0;  // only the first frame waits
    ++stats_.frames_received;
    ++processed;
    auto frame = decode_rep_frame(*wire);
    if (!frame.has_value()) {
      ++stats_.corrupt_rejected;  // truncated or bit-flipped in flight
      continue;
    }
    handle_frame(std::move(*frame));
  }
  return processed;
}

PromotionReport ReplicationFollower::promote() {
  std::lock_guard<std::mutex> lock(mu_);
  GAPART_REQUIRE(started_, "call start_follower() before promote()");
  GAPART_REQUIRE(!stats_.diverged, "a diverged replica must not be promoted");
  WallTimer timer;

  // Drain the tail: everything the dead leader managed to ship is applied
  // before the fence goes up.
  drain_link(0.0);

  // Verify before serving: every promoted session must hold a complete,
  // valid assignment.
  PromotionReport report;
  for (const SessionId id : service_.session_ids()) {
    const auto session = service_.session_handle(id);
    const auto snap = session->snapshot();
    GAPART_REQUIRE(
        is_valid_assignment(*snap->graph, snap->assignment,
                            session->config().num_parts),
        "promotion verify failed: session ", id, " has an invalid assignment");
    PromotedSession promoted;
    promoted.id = id;
    promoted.epoch = snap->update_epoch;
    promoted.digest = session->state_digest();
    report.sessions.push_back(promoted);
  }

  // The fence: a strictly higher term, persisted before we serve writes.
  // Any late frame from the deposed leader now fails the generation check,
  // and the deposed leader itself learns of its demotion from our next ack.
  persist_generation(generation_ + 1);
  generation_ += 1;
  stats_.generation = generation_;
  stats_.promoted = true;

  report.generation = generation_;
  report.seconds = timer.seconds();
  return report;
}

FollowerStats ReplicationFollower::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  FollowerStats out = stats_;
  out.sessions = service_.num_sessions();
  return out;
}

std::uint64_t ReplicationFollower::applied_epoch(SessionId id) const {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = replicas_.find(id);
  return it == replicas_.end() ? 0 : it->second.applied_epoch;
}

}  // namespace gapart
