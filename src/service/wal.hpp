// Per-session durability: a CRC-framed write-ahead delta log with snapshot
// compaction.
//
// Every accepted GraphDelta is serialized (graph/delta_codec: O(damage)
// bytes) and appended as one framed record — with the number of verification
// rounds the repair actually admitted, so replay re-runs the *same*
// deterministic pipeline the live session ran, wall clock removed — and
// fsynced before the synchronous repair acknowledges to the client: ack
// implies durable, and there is no other durability mode.  Adopted background
// refinements are logged too (full assignment; they are rare and already
// O(V + E) in compute).  When the damage accumulated in the log crosses the
// compaction policy's threshold, the session state is checkpointed through
// the existing Chaco/METIS writers (temp file + rename + fsync) and the log
// is truncated.
//
// Bytes: the log file header ("GAWL", version), the record frames
// ([magic][type u8][flags u32][epoch u64][len u32][crc u32][payload]) and
// the kRefine assignment payload are fields over common/byte_codec, the one
// codec every binary format shares; frames are sealed and opened by its
// CRC-frame pair, exactly as replication frames are.  Parsers turn hostile
// bytes into a rejected frame or a typed gapart::Error — e.g. an
// assignment count the payload cannot hold — never a non-gapart exception.
//
// On-disk layout of one session directory:
//
//   meta               session identity: num_parts, objective, lambda
//   snap-<E>.graph     checkpoint at update epoch E (Chaco format)
//   snap-<E>.part      its partition (METIS format)
//   CURRENT            the epoch E of the authoritative snapshot
//   wal.log            framed records with epochs > E (plus possibly stale
//                      records <= E left by a compaction that crashed
//                      between the CURRENT rename and the log truncation —
//                      replay skips them)
//
// Crash-consistency argument: CURRENT is only renamed over after the new
// snapshot files are fully written and fsynced, and the log is only
// truncated after CURRENT points at the new epoch.  Whatever the crash
// point, CURRENT names a complete snapshot and the log holds every record
// past it.  A torn final record (the crash hit mid-append) is detected by
// its CRC frame and dropped; a bad CRC *followed by valid records* is real
// corruption and surfaces as WalCorruptError — recovery never guesses.
//
// Because every append is fsynced, everything in the log before an append
// is durable.  An append that fails (write or fsync retries exhausted)
// therefore truncates the log back to that durable end and fsyncs again, so
// no record the caller saw fail can reach a follower or a later recovery.
// When even that rollback fails the WAL refuses every later append.
//
// Thread-safety: none.  A SessionWal belongs to one PartitionSession and
// every call is made under that session's lock (append/compaction order must
// equal apply order, so this is not a restriction).
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/assert.hpp"
#include "common/backoff.hpp"
#include "graph/graph.hpp"
#include "graph/partition.hpp"
#include "graph/types.hpp"
#include "service/refine_policy.hpp"

namespace gapart {

/// The log holds records that cannot all be trusted: a bad frame with valid
/// records after it.  Torn *tails* are not errors (see file comment).
class WalCorruptError : public IoError {
 public:
  explicit WalCorruptError(const std::string& what) : IoError(what) {}
};

struct DurabilityConfig {
  /// Root directory for session subdirectories; empty disables durability.
  std::string dir;
  /// When to fold the log into a fresh snapshot (refine_policy).
  CompactionPolicy compaction;
  /// Retry schedule for transient log I/O failures.
  BackoffPolicy io_retry;
  /// Replicated sessions only (a WalShipGate is attached): how many log
  /// bytes compaction may retain waiting for the shipper to catch up.  Past
  /// this bound compaction proceeds anyway and the slow follower pays a
  /// snapshot resync.  0 = wait for the shipper unconditionally.
  std::uint64_t ship_retain_bytes = 32ull << 20;

  bool enabled() const { return !dir.empty(); }
};

enum class WalRecordType : std::uint8_t {
  kDelta = 1,   ///< payload = delta_codec bytes; flags = verify rounds run
  kRefine = 2,  ///< payload = adopted assignment (u64 n + n * i32 parts)
};

struct WalRecord {
  WalRecordType type = WalRecordType::kDelta;
  /// The session update epoch this record belongs to: a kDelta record's
  /// epoch is the epoch the delta produced; a kRefine record's epoch is the
  /// epoch whose state the refinement replaced.
  std::uint64_t epoch = 0;
  /// kDelta: verification rounds the live repair admitted (replay runs
  /// exactly these instead of consulting the wall clock).
  std::uint32_t flags = 0;
  std::string payload;
};

struct WalReadResult {
  std::vector<WalRecord> records;
  /// The final record was torn (partial frame or bad CRC at the very tail).
  bool torn_tail = false;
  /// Byte length of the valid prefix — where appends may resume.
  std::uint64_t valid_bytes = 0;
};

/// Parses a log file.  A missing file reads as empty.  Throws
/// WalCorruptError when an invalid frame is followed by valid records, and
/// IoError on unreadable files.
WalReadResult read_log_file(const std::string& path);

/// Byte offset of the first record frame in wal.log (the file header).
constexpr std::uint64_t kWalLogHeaderBytes = 8;

/// One replication-shipper read over a *live* log file.
struct WalTail {
  std::vector<WalRecord> records;
  /// Absolute end offset of each record (aligned with `records`), so the
  /// caller can resume — or stop mid-batch under backpressure — exactly at a
  /// frame boundary.
  std::vector<std::uint64_t> ends;
  /// Where parsing stopped; equals `offset` when nothing was read.
  std::uint64_t end_offset = 0;
};

/// Parses frames from byte `offset` (>= kWalLogHeaderBytes), stopping at the
/// first frame whose end would exceed `limit_bytes` (the caller passes the
/// durable offset so a follower never gets ahead of the leader's fsync) or at
/// the first invalid frame.  Unlike read_log_file, an invalid frame is never
/// fatal here: on a live log it is an append still in flight, picked up by
/// the next poll.  A missing file — or `offset` past the current size, which
/// happens when compaction truncated the log under the shipper — reads as
/// empty and the caller resolves it via the snapshot epoch.
WalTail read_log_tail(const std::string& path, std::uint64_t offset,
                      std::uint64_t limit_bytes);

/// Compaction/shipping coordination for a replicated session: the shipper
/// publishes the log offset it has consumed, and compaction — which
/// truncates the log — defers while the shipper is behind, bounded by
/// DurabilityConfig::ship_retain_bytes.  Past the bound compaction proceeds
/// and the slow follower pays a snapshot resync instead of the leader paying
/// unbounded log retention.
struct WalShipGate {
  std::atomic<std::uint64_t> consumed_offset{0};
};

/// Writes `content` to `path` (inside directory `dir`) atomically and
/// durably: temp file, flush-checked close, fsync, rename over, fsync the
/// directory.  Throws IoError on any failure, leaving the previous `path`
/// intact.  Every snapshot, CURRENT pointer, meta file and fencing term goes
/// through it.
void write_file_atomic(const std::string& path, const std::string& content,
                       const std::string& dir);

/// Serializes the kRefine payload.
std::string encode_assignment(const Assignment& assignment);
Assignment decode_assignment(const std::string& payload);

/// Cumulative durability counters for one session (scraped into
/// SessionStats/ServiceStats and the soak JSON).
struct WalStats {
  std::uint64_t appends = 0;
  std::uint64_t append_retries = 0;  ///< transient I/O errors retried away
  std::uint64_t fsyncs = 0;
  std::uint64_t bytes_appended = 0;
  std::uint64_t compactions = 0;
  std::uint64_t compaction_failures = 0;  ///< kept the log; retried later
  double last_compaction_seconds = 0.0;
  std::uint64_t snapshot_epoch = 0;
  /// PartitionState::content_hash() of the snapshot state (persisted in
  /// CURRENT) — what a follower must match when it compacts in lockstep.
  std::uint64_t snapshot_digest = 0;
  std::uint64_t log_records = 0;
  std::uint64_t log_bytes = 0;
  std::int64_t log_damage = 0;
  /// Absolute wal.log offset through which records are fsynced.  The
  /// replication shipper caps its tail reads here: a follower must never
  /// hold records the leader could still lose (a frame between its write()
  /// and its fsync, or one whose fsync failed and is being rolled back).
  std::uint64_t durable_bytes = 0;
};

class SessionWal {
 public:
  /// Creates `dir` (parents included), writes the meta file and the initial
  /// snapshot, and opens a fresh log: the session's opening state is durable
  /// before open_session acknowledges.  `snapshot_epoch` is 0 for a new
  /// session; a replication follower bootstrapping from a mid-life leader
  /// snapshot passes the leader's epoch (and its state digest) so its own
  /// recovery resumes from the same point.
  static std::unique_ptr<SessionWal> create(std::string dir,
                                            const DurabilityConfig& config,
                                            PartId num_parts,
                                            const FitnessParams& fitness,
                                            const Graph& graph,
                                            const Assignment& assignment,
                                            std::uint64_t snapshot_epoch = 0,
                                            std::uint64_t snapshot_digest = 0);

  /// Everything recovery needs from one session directory: the snapshot
  /// state, the records to replay (epochs > snapshot_epoch, stale records
  /// skipped), and the reopened WAL positioned after the last valid record.
  struct Recovered {
    std::unique_ptr<SessionWal> wal;
    PartId num_parts = 2;
    FitnessParams fitness;
    Graph graph;
    Assignment assignment;
    std::uint64_t snapshot_epoch = 0;
    std::uint64_t snapshot_digest = 0;
    std::vector<WalRecord> records;
    bool torn_tail = false;
  };
  static Recovered recover(std::string dir, const DurabilityConfig& config);

  ~SessionWal();
  SessionWal(const SessionWal&) = delete;
  SessionWal& operator=(const SessionWal&) = delete;

  /// Appends one record and fsyncs it (each with retry/backoff on transient
  /// I/O errors); on return the record is durable.  `damage` feeds the
  /// compaction accumulator.  Throws IoError once retries are exhausted,
  /// after rolling the log back to its last durable record — the log then
  /// holds exactly what it held before the call.  If the rollback fails
  /// too, this and every later append throw IoError.
  void append(WalRecordType type, std::uint64_t epoch, std::uint32_t flags,
              const std::string& payload, VertexId damage);

  /// decide_compaction over the current log accumulators.
  bool should_compact() const;

  /// Checkpoints (graph, assignment) as the epoch-`epoch` snapshot and
  /// truncates the log (see the crash-consistency argument above).  Throws
  /// IoError on failure; the log is then still intact and the caller simply
  /// retries at the next trigger.  `digest` is the state's content hash,
  /// persisted alongside the epoch and exchanged with replication followers
  /// at this snapshot boundary.
  void compact(std::uint64_t epoch, const Graph& graph,
               const Assignment& assignment, std::uint64_t digest = 0);

  /// Attaches the compaction/shipping gate for a replicated session (see
  /// WalShipGate).  Pass nullptr to detach.
  void set_ship_gate(std::shared_ptr<WalShipGate> gate) {
    ship_gate_ = std::move(gate);
  }

  const std::string& dir() const { return dir_; }
  WalStats stats() const { return stats_; }

 private:
  SessionWal(std::string dir, DurabilityConfig config);

  void open_log(std::uint64_t resume_at, bool truncate_all);
  void append_frame_once(const std::string& frame);
  void fsync_log();
  void roll_back_to_durable();
  void write_snapshot_files(std::uint64_t epoch, const Graph& graph,
                            const Assignment& assignment,
                            std::uint64_t digest);

  std::string dir_;
  DurabilityConfig config_;
  int fd_ = -1;
  /// A failed append could not be rolled back: the file may hold a frame
  /// past durable_bytes, so no later append may land behind it.
  bool broken_ = false;
  std::shared_ptr<WalShipGate> ship_gate_;
  WalStats stats_;
};

}  // namespace gapart
