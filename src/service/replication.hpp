// Leader/follower replication of a PartitionService over a Transport.
//
// The leader's durability layer already writes, per session, a CRC-framed
// WAL whose replay is bit-deterministic (service/wal.hpp).  Replication
// reuses that artifact wholesale: a ReplicationShipper tails each session's
// wal.log — never past the leader's fsynced offset, so a follower can never
// hold an update the leader could still lose — and streams the records to a
// ReplicationFollower, which pushes them through the SAME deterministic
// repair pipeline recovery uses (replay_wal_record), logging each one to its
// own WAL first.  A follower is therefore just "recovery that never stops":
// continuous tail-replay, including snapshot compactions applied in lockstep
// with the leader's.
//
// Wire protocol (GARP frames, sealed and opened by the WAL's CRC-frame
// code in common/byte_codec; every payload is fields over the same codec):
//
//   kOpenSession   full state bootstrap: session config + Chaco graph +
//                  METIS partition at epoch E, plus the leader's content
//                  digest.  Sent on attach and on resync (a follower that
//                  fell behind a compaction).  Accepted at any seq above the
//                  follower's applied seq — it is a full reset.  A payload
//                  whose lengths overrun it, or that names num_parts < 1 or
//                  an unknown objective, is counted corrupt and dropped.
//   kRecord        one WAL record (kDelta or kRefine — any other type fails
//                  decode), per-session seq.
//                  The follower accepts exactly applied_seq + 1 and
//                  enforces the WAL epoch chain (kDelta: epoch + 1;
//                  kRefine: current epoch); anything else is a duplicate or
//                  a gap, dropped and repaired by the leader's resume.  An
//                  in-sequence record that does not apply (a payload that
//                  does not decode) is a missed update: like a broken
//                  chain it fail-stops with ReplicationDivergedError.
//   kCompact       the leader compacted at epoch E with digest D: the
//                  follower compares D against its own state digest —
//                  mismatch is exact divergence detection and fail-stops
//                  with ReplicationDivergedError — then compacts in
//                  lockstep.
//   kAck           follower -> leader: highest applied (seq, epoch), under
//                  the follower's accepted generation.
//
// Failure matrix (drop / dup / reorder / truncate / partition — injectable
// via common/fault_injection at the transport seam):
//   * CRC rejects truncated or corrupted frames.
//   * Per-session monotone seq rejects duplicates and reorders; gaps are
//     dropped and heal when the leader resumes from the acked offset after
//     `resume_after_stalled_pumps` pumps without ack progress.
//   * A slow follower exerts backpressure through the bounded unacked
//     queue; leader-side compaction defers for it via WalShipGate, bounded
//     by ship_retain_bytes — past that the follower pays a snapshot resync.
//
// Fencing: every frame carries the leader's generation (a monotone term,
// persisted in a GENERATION file on both sides).  Promotion bumps the
// follower's generation, so a deposed leader's late frames — lower
// generation — are rejected, and the deposed leader learns of its demotion
// from the first ack carrying a higher generation (split-brain prevention).
#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/telemetry.hpp"
#include "service/service.hpp"
#include "service/transport.hpp"

namespace gapart {

class ReplicationError : public Error {
 public:
  explicit ReplicationError(const std::string& what) : Error(what) {}
};

/// Exact divergence detected: the follower's content digest differs from
/// the leader's at a snapshot boundary.  Fail-stop — a diverged replica
/// must never be promoted.
class ReplicationDivergedError : public ReplicationError {
 public:
  explicit ReplicationDivergedError(const std::string& what)
      : ReplicationError(what) {}
};

// --- Wire frames (exposed for tests: tamper/fuzz the codec directly) -------

enum class RepFrameType : std::uint8_t {
  kOpenSession = 1,
  kRecord = 2,
  kCompact = 3,
  kAck = 4,
};

struct RepFrame {
  RepFrameType type = RepFrameType::kRecord;
  /// kRecord: the WalRecordType being carried.
  std::uint8_t sub = 0;
  std::uint64_t generation = 0;  ///< leader fencing term (follower's on acks)
  std::uint64_t session = 0;     ///< SessionId
  std::uint64_t seq = 0;         ///< per-session monotone sequence number
  std::uint64_t epoch = 0;       ///< record epoch / open epoch / applied epoch
  std::uint32_t flags = 0;       ///< kDelta: admitted verification rounds
  std::string payload;
};

std::string encode_rep_frame(const RepFrame& frame);
/// nullopt on any framing/CRC violation — the caller counts and drops.
std::optional<RepFrame> decode_rep_frame(const std::string& wire);

/// kOpenSession payload: everything a follower needs to (re)build a session.
struct OpenPayload {
  PartId num_parts = 2;
  FitnessParams fitness;
  std::uint64_t digest = 0;  ///< leader content hash at the open epoch
  std::string graph_text;    ///< Chaco format (graph/io.hpp)
  std::string part_text;     ///< METIS format
};

std::string encode_open_payload(const OpenPayload& open);
OpenPayload decode_open_payload(const std::string& payload);  // throws

/// The GENERATION fencing term persisted in a service's durability dir: 0
/// only when the file is absent.  A file that cannot be read, or that is
/// not exactly one decimal u64 (an optional trailing newline aside), throws
/// ReplicationError — fencing fails closed.  Exposed for tests and the
/// chaos tooling.
std::uint64_t read_generation_file(const std::string& dir);
/// Durably replaces the GENERATION file (write_file_atomic: fsynced file and
/// directory).  Throws IoError on failure, leaving the old term readable.
void write_generation_file(const std::string& dir, std::uint64_t generation);

// --- Leader side ------------------------------------------------------------

struct ShipperConfig {
  /// This leader's fencing term.  Must be >= the GENERATION file in the
  /// service's durability dir (a deposed leader restarting with a stale
  /// term is refused at construction).
  std::uint64_t generation = 1;
  /// Bounded per-session ship queue (unacked + unsent frames).  When full
  /// the shipper stops reading the log — backpressure, never frame loss —
  /// and leader-side compaction starts counting against ship_retain_bytes.
  std::size_t max_unacked_frames = 256;
  /// Pumps without ack progress (while frames are outstanding) before the
  /// shipper re-sends everything unacked from the acked offset.
  int resume_after_stalled_pumps = 3;
};

struct ShipperStats {
  int sessions_attached = 0;
  std::uint64_t generation = 0;
  std::uint64_t opens_shipped = 0;
  std::uint64_t records_shipped = 0;
  std::uint64_t compacts_shipped = 0;
  std::uint64_t frames_sent = 0;  ///< incl. resume re-sends
  std::uint64_t acks_received = 0;
  std::uint64_t send_failures = 0;     ///< TransportError on a send
  std::uint64_t resumes = 0;           ///< stalled -> re-sent from acked
  std::uint64_t snapshot_resyncs = 0;  ///< follower re-bootstrapped
  std::uint64_t backpressure_stalls = 0;
  std::uint64_t frames_unacked = 0;
  /// A follower acked with a higher generation: this leader was deposed and
  /// has stopped shipping (its WAL keeps growing locally; operator decides).
  bool deposed = false;
  /// Replication lag in epochs (the session's update epoch minus the epoch
  /// the follower acked), sampled once per session per pump over the
  /// shipper's lifetime; bucketed percentiles (LogHistogram, <= 12.5%).
  double lag_epochs_p50 = 0.0;
  double lag_epochs_p99 = 0.0;
};

/// Tails every session of a (durable) leader service and streams WAL
/// records over one Transport.  Drive it with pump() — deterministic, used
/// by tests and the soak — or start()/stop() a background thread.
class ReplicationShipper {
 public:
  /// Persists config.generation into the leader's GENERATION file; throws
  /// ReplicationError when the file already holds a larger term or cannot
  /// be read (read_generation_file).
  ReplicationShipper(PartitionService& service, Transport& link,
                     ShipperConfig config = {});
  ~ReplicationShipper();

  ReplicationShipper(const ReplicationShipper&) = delete;
  ReplicationShipper& operator=(const ReplicationShipper&) = delete;

  /// One shipping round: drain acks, attach new sessions, observe
  /// compactions (lockstep or resync), read durable log tails, send.
  /// Returns frames sent.  Transport failures are absorbed into stats and
  /// retried next pump.  No-op once deposed.
  int pump();

  /// True when every attached session's acked seq has caught up with
  /// everything shipped AND nothing remains unread in the durable logs.
  bool drained() const;

  /// Background pump loop every `interval_seconds`.
  void start(double interval_seconds);
  void stop();

  ShipperStats stats() const;
  /// Highest epoch the follower has acknowledged for one session (0 when
  /// never acked or unknown).
  std::uint64_t acked_epoch(SessionId id) const;

 private:
  struct SessionShip {
    bool attached = false;
    bool needs_resync = false;
    std::uint64_t next_seq = 1;
    std::uint64_t acked_seq = 0;
    std::uint64_t acked_epoch = 0;
    std::uint64_t file_offset = kWalLogHeaderBytes;
    /// Highest record epoch read (or covered by the shipped open) so far.
    /// The tail filter hangs off it: a kDelta ships iff its epoch is
    /// read_epoch + 1 (the WAL chain), a kRefine iff it equals read_epoch —
    /// anything else is a stale-prefix record already covered by the
    /// snapshot.  kRefine at the open epoch is deliberately shipped even
    /// when the snapshot may already include it: re-applying a full
    /// assignment is idempotent, and the ambiguity (adopted just before vs
    /// just after the open was captured) is undecidable from the log.
    std::uint64_t read_epoch = 0;
    std::uint64_t shipped_snapshot_epoch = 0;
    struct Queued {
      std::uint64_t seq = 0;
      std::string wire;
      /// Telemetry stamp of the most recent send (0 = never sent): acking
      /// this frame records ship->ack RTT.  A resume re-send re-stamps, so
      /// the RTT always measures the delivery that actually got acked.
      double sent_at = 0.0;
    };
    std::deque<Queued> queue;
    std::size_t sent_upto = 0;  ///< queue index of the first unsent frame
    int stalled_pumps = 0;
    bool progressed = false;  ///< acks advanced during the current pump
    std::shared_ptr<WalShipGate> gate;
  };

  void drain_acks();
  void resync(SessionId id, SessionShip& ship);
  void observe_compaction(SessionId id, SessionShip& ship,
                          const WalStats& wal);
  void read_tail(SessionId id, SessionShip& ship, const WalStats& wal);
  int send_pending(SessionShip& ship);
  void enqueue(SessionShip& ship, RepFrame frame);

  PartitionService& service_;
  Transport& link_;
  ShipperConfig config_;

  mutable std::mutex mu_;
  std::unordered_map<SessionId, SessionShip> ships_;
  ShipperStats stats_;
  LogHistogram lag_epochs_;

  std::thread thread_;
  std::atomic<bool> running_{false};
};

// --- Follower side ----------------------------------------------------------

struct FollowerConfig {
  /// Template for replica sessions (budgets, policy); identity fields come
  /// from each open frame.  Background refinement on a follower service
  /// should be off — the follower replays the leader's decisions.
  SessionConfig base;
  /// Floor for the accepted fencing term (the GENERATION file, when
  /// present and larger, wins).
  std::uint64_t generation = 0;
};

struct FollowerStats {
  int sessions = 0;
  std::uint64_t generation = 0;  ///< highest leader term accepted
  std::uint64_t frames_received = 0;
  std::uint64_t opens_applied = 0;
  std::uint64_t records_applied = 0;
  std::uint64_t compacts_applied = 0;
  std::uint64_t digests_verified = 0;  ///< snapshot-boundary digest matches
  std::uint64_t acks_sent = 0;
  std::uint64_t duplicates_dropped = 0;  ///< seq <= applied (dup/reorder)
  std::uint64_t gaps_dropped = 0;        ///< seq jumped ahead (drop upstream)
  std::uint64_t fenced_rejected = 0;     ///< stale-generation frames
  std::uint64_t corrupt_rejected = 0;    ///< framing/CRC failures
  std::uint64_t apply_failures = 0;      ///< injected I/O or alloc faults
  bool diverged = false;
  bool promoted = false;
};

/// One promoted session's final position.
struct PromotedSession {
  SessionId id = 0;
  std::uint64_t epoch = 0;
  std::uint64_t digest = 0;
};

struct PromotionReport {
  std::uint64_t generation = 0;  ///< the new term this service writes under
  double seconds = 0.0;          ///< drain + verify + fence time
  std::vector<PromotedSession> sessions;
};

/// Continuous tail-replay of a leader's stream into a local
/// PartitionService.  The service should be configured with
/// background_refinement = false and compaction disabled (zero thresholds)
/// — the follower compacts in lockstep with the leader, not by local
/// policy.
class ReplicationFollower {
 public:
  /// Starts at the larger of config.generation and a durable service's
  /// GENERATION file; throws ReplicationError when that file cannot be
  /// read (read_generation_file).
  ReplicationFollower(PartitionService& service, Transport& link,
                      FollowerConfig config = {});

  ReplicationFollower(const ReplicationFollower&) = delete;
  ReplicationFollower& operator=(const ReplicationFollower&) = delete;

  /// recover() generalized: rebuilds any replica state already on the
  /// follower's disk (so a restarted follower resumes from its own WAL,
  /// not from scratch) and enters tail mode.  Returns the per-session
  /// recovery reports (empty on a fresh follower).
  std::vector<RecoveryReport> start_follower();

  /// Applies every frame currently available on the link (waiting up to
  /// `timeout_seconds` for the first one) and acks progress.  Returns
  /// frames processed.  Throws ReplicationDivergedError on a digest
  /// mismatch, a broken epoch chain or an in-sequence record that does not
  /// apply (fail-stop; `diverged` stays set).
  int pump(double timeout_seconds = 0.0);

  /// Failover: drains the link (applies everything already shipped),
  /// verifies every session's assignment, bumps + persists the fencing
  /// generation, and opens the service for writes.  After promotion any
  /// late frame from the deposed leader is rejected by the fence.  The new
  /// term is durable before it is adopted: if persisting it throws IoError,
  /// the follower keeps its old term and may retry the promotion.
  PromotionReport promote();

  FollowerStats stats() const;
  /// Applied epoch of one session (0 when unknown).
  std::uint64_t applied_epoch(SessionId id) const;

 private:
  struct Replica {
    std::uint64_t applied_seq = 0;
    std::uint64_t applied_epoch = 0;
  };

  /// Applies every frame available on the link; see pump().
  int drain_link(double timeout_seconds);
  void handle_frame(RepFrame frame);
  void ack(SessionId id, const Replica& replica);
  /// Writes `generation` to the GENERATION file (durable services only)
  /// BEFORE the caller adopts it as generation_; throws IoError.
  void persist_generation(std::uint64_t generation);

  PartitionService& service_;
  Transport& link_;
  FollowerConfig config_;

  mutable std::mutex mu_;
  std::unordered_map<SessionId, Replica> replicas_;
  std::uint64_t generation_ = 0;
  FollowerStats stats_;
  bool started_ = false;
};

}  // namespace gapart
