// One long-lived partitioning session: a live Graph + PartitionState fed by
// a stream of GraphDeltas.
//
// The session is the unit of the streaming service (service.hpp).  Its
// contract splits work into two planes:
//
//   synchronous (apply_update, caller's thread, O(damage) + budget):
//     tier 1  greedy extension of the surviving assignment over the new
//             vertices: the greedy_incremental kernel
//             (baselines/greedy_incremental.hpp, most-constrained-first
//             majority vote), fed the live state's assignment and part
//             weights so it costs O(new * deg), not O(V);
//     rebind  PartitionState::rebind_grown absorbs the new graph in
//             O(damage * deg) — no O(V+E) state rebuild per delta;
//     tier 2  verification rounds while the configured latency budget
//             allows — an adaptive cost/quality knob per update.  Under
//             kTotalComm one round drains the state's part-pair gain index
//             in ascending sweeps until no vertex can improve (a certified
//             local optimum; probes follow the moves, not the boundary); it
//             replaces the seeded cascade.
//             Without an admitted round, or under kWorstComm, a
//             worklist-seeded frontier climb from the delta's repair seeds
//             (strictly damage-proportional) runs first, and kWorstComm
//             rounds are full-boundary frontier passes.
//
//   asynchronous (plan_refinement / run_refinement / complete_refinement,
//   service-scheduled on the shared Executor):
//     verified frontier hill-climb rounds and, when the policy escalates,
//     a deep tier seeded with the repaired solution: a flat DPGA burst
//     (§3.5's incremental GA as a background job) or, for large sessions,
//     the multilevel V-cycle — both on the one DPGA budget SessionConfig::
//     deep.dpga.  Refinement runs on a captured epoch snapshot;
//     publication back into the live state is epoch-checked, so a refinement
//     raced by newer deltas is discarded, never merged wrongly.
//
// Readers never wait for either plane: snapshot() copies the latest
// epoch-versioned, immutable SessionSnapshot pointer under a mutex that
// publication holds only for the pointer swap.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <iosfwd>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <utility>

#include "common/executor.hpp"
#include "common/rng.hpp"
#include "common/telemetry.hpp"
#include "core/dpga.hpp"
#include "core/graph_delta.hpp"
#include "core/hill_climb.hpp"
#include "core/vcycle_ga.hpp"
#include "graph/graph.hpp"
#include "graph/partition.hpp"
#include "service/refine_policy.hpp"
#include "service/wal.hpp"

namespace gapart {

struct SessionConfig {
  PartId num_parts = 2;
  FitnessParams fitness;

  // Tier 1 (the greedy_incremental kernel) has no knobs; tier 2 and the
  // light refinement climb are gain-ordered frontier climbs at
  // HillClimbOptions' default min_gain.

  /// Latency budget for one apply_update call: verification rounds run only
  /// while the elapsed repair time stays under this budget (0 = the seeded
  /// cascade only — the strictest latency regime, leaving verification to
  /// background refinement).  The budget gates ENTRY to a round; an
  /// admitted round runs to completion.  Under kTotalComm a round drains
  /// the gain index until no vertex can improve: it probes the candidates
  /// the index reports, O(k^2 + candidates) per sweep, so its cost follows
  /// the moves the damage causes, not the boundary, and one round always
  /// ends at a certified local optimum.
  /// Under kWorstComm a round is a full-boundary frontier pass plus its
  /// cascade, O(boundary), certified when it moves nothing.
  double repair_budget_seconds = 0.0;
  /// Hard cap on verification rounds even when the budget allows more (a
  /// kTotalComm update never needs a second one; 0 = no verification).
  int repair_max_verify_rounds = 4;

  /// Background-refinement trigger policy.
  RefinePolicyConfig policy;
  /// kLight refinement: verified frontier hill-climb round budget.
  int refine_hill_climb_passes = 8;
  /// kDeep refinement.  deep.dpga is the deep tier's one DPGA budget: the
  /// flat burst runs it on the whole graph, and sessions at/above
  /// policy.vcycle_min_vertices run the multilevel V-cycle (the rest of
  /// `deep`) with it on the coarsest level (see route_deep_vcycle).
  /// dpga.ga.num_parts/fitness are overwritten with the session's and the
  /// job's cancel token is threaded in per run; keep the budgets modest —
  /// this runs on the shared pool next to other sessions' work.
  VcycleGaOptions deep;

  SessionConfig();
};

/// Immutable, epoch-versioned view of a session's partition.  The graph is
/// shared (a later update replaces the session's graph, never mutates it),
/// so a snapshot stays internally consistent forever.
struct SessionSnapshot {
  /// Number of deltas the session had absorbed when this was published.
  std::uint64_t update_epoch = 0;
  /// Total publish count (repairs + refinements); strictly increasing.
  std::uint64_t version = 0;
  const char* source = "open";  ///< "open" / "repair" / "refine" / "restore"
  std::shared_ptr<const Graph> graph;
  Assignment assignment;
  double fitness = 0.0;
  double total_cut = 0.0;
  double max_part_cut = 0.0;
  double imbalance_sq = 0.0;
};

/// Per-call modifiers for apply_update.  Defaults describe the normal live
/// path; the service's overload ladder and the recovery replay set the rest.
struct ApplyOptions {
  /// Overload shedding: skip the budgeted verification rounds entirely
  /// (cascade only) — the cheapest admissible repair.
  bool shed_verification = false;
  /// >= 0: run exactly this many verification rounds, ignoring the wall
  /// clock — recovery replays the round count the live run logged, so the
  /// replayed pipeline is bit-deterministic.  Capped by
  /// repair_max_verify_rounds.
  int replay_verify_rounds = -1;
  /// Recovery replay: do not log the delta to the WAL again (it is being
  /// read FROM the WAL) and do not trigger compaction.
  bool replaying = false;
};

/// What one apply_update call did (the synchronous plane only).
struct RepairReport {
  std::uint64_t update_epoch = 0;
  VertexId damage = 0;
  int extend_moves = 0;         ///< new vertices assigned (tier 1)
  int repair_moves = 0;         ///< migrations (tier 2, incl. verification)
  std::int64_t examined = 0;    ///< gain-kernel probes
  /// Verification rounds the latency budget admitted (logged in the WAL
  /// record's flags so replay runs the same): 0 or 1 under kTotalComm,
  /// where one round drains to a certified local optimum; up to the cap
  /// under kWorstComm, one full-boundary pass each.
  int verify_rounds = 0;
  double seconds = 0.0;         ///< wall time of the whole call
  double fitness_after = 0.0;
};

/// Point-in-time statistics copy (see PartitionService for aggregation).
struct SessionStats {
  std::uint64_t updates = 0;
  std::uint64_t version = 0;
  std::uint64_t total_damage = 0;
  std::int64_t extend_moves = 0;
  std::int64_t repair_moves = 0;
  std::int64_t examined = 0;
  /// Evaluation accounting in EvalContext units: every accepted move /
  /// mutation delta is a delta evaluation, every O(V+E) pass a full one.
  std::int64_t full_evaluations = 0;
  std::int64_t delta_evaluations = 0;
  int refinements_planned = 0;
  int refinements_applied = 0;
  /// Completed but raced by a newer delta (captured epoch went stale).
  int refinements_stale = 0;
  /// Completed cleanly but found nothing better — the live partition's
  /// quality was (re)certified instead of replaced.
  int refinements_no_better = 0;
  /// Improved the fitness but its WAL record could not be written: the
  /// refinement was dropped (quality only) so the log stays a superset of
  /// the state — required for replication digests to be exact.
  int refinements_unlogged = 0;
  /// Bucketed lifetime percentiles from `repair_latency` (relative error
  /// <= 12.5% — one histogram bucket; see common/telemetry.hpp).
  double p50_repair_seconds = 0.0;
  double p99_repair_seconds = 0.0;
  double max_repair_seconds = 0.0;  ///< exact (histogram tracks true max)
  /// Mergeable log-bucketed repair-latency histogram (lifetime, bounded
  /// memory).  The service composes sessions into honest service-wide
  /// percentiles by merging these — merge is exact and associative, unlike
  /// merging quantiles, and replaces the old unbounded raw-sample vectors.
  LogHistogram repair_latency;
  double current_fitness = 0.0;
  double current_total_cut = 0.0;

  /// Durability (zeros when the session runs without a WAL).
  bool durable = false;
  /// Fail-stop: a WAL append exhausted its retries after the repair had
  /// already mutated the state; the session refuses further updates so the
  /// log never diverges from the acknowledged history.
  bool wal_failed = false;
  WalStats wal;
};

class PartitionSession {
 public:
  /// Starts a session on `graph` with `initial` as its partition.  The graph
  /// is shared because snapshots outlive updates.  `origin` labels the first
  /// snapshot's source ("open"; restore() passes "restore").
  PartitionSession(std::shared_ptr<const Graph> graph, Assignment initial,
                   SessionConfig config, const char* origin = "open");

  PartitionSession(const PartitionSession&) = delete;
  PartitionSession& operator=(const PartitionSession&) = delete;

  const SessionConfig& config() const { return config_; }

  /// Synchronous per-delta repair (see file comment).  `grown` is the new
  /// graph snapshot; `delta` describes how it differs from the session's
  /// current graph (delta.old_num_vertices must match).  Thread-safe against
  /// snapshot() and the refinement plane; concurrent apply_update calls on
  /// ONE session serialize on the session lock.
  ///
  /// When a WAL is attached, the delta is appended and fsynced before this
  /// call returns — the returned report IS the acknowledgement, so ack
  /// implies durable.  An append that exhausts
  /// its retries throws IoError and fail-stops the session (wal_failed).
  RepairReport apply_update(std::shared_ptr<const Graph> grown,
                            const GraphDelta& delta,
                            const ApplyOptions& opts = {});

  /// Latest published state; never blocks on repair or refinement beyond a
  /// pointer copy.  Never null.
  std::shared_ptr<const SessionSnapshot> snapshot() const;

  SessionStats stats() const;

  // --- Asynchronous refinement protocol (driven by PartitionService) ------

  /// A captured refinement work order: immutable inputs for run_refinement.
  struct RefineJob {
    std::uint64_t update_epoch = 0;
    RefineDepth depth = RefineDepth::kNone;
    std::shared_ptr<const Graph> graph;
    Assignment assignment;
    double fitness = 0.0;
    /// Cooperative cancel flag, set by close(): run_refinement checks it at
    /// pass boundaries and before the DPGA burst, so a closing session never
    /// waits for a full deep burst to finish.
    std::shared_ptr<const std::atomic<bool>> cancel;
  };

  /// Consults the policy; when it fires, marks a refinement in flight and
  /// returns the captured job.  nullopt when the policy stays quiet or a
  /// job is already in flight.
  std::optional<RefineJob> plan_refinement();

  /// Applies a finished refinement: adopted only when no delta raced it
  /// (job.update_epoch still current) AND it improved the fitness; always
  /// clears the in-flight mark and resets the policy accumulators on
  /// adoption.  On a durable session the kRefine record is appended BEFORE
  /// the state is adopted; if the append fails the refinement is dropped
  /// (refinements_unlogged) so log and state never diverge.  Returns true
  /// when adopted.
  bool complete_refinement(const RefineJob& job, Assignment refined,
                           double refined_fitness,
                           std::int64_t full_evaluations,
                           std::int64_t delta_evaluations);

  /// Clears the in-flight mark after a failed refinement attempt.
  void abandon_refinement();

  // --- Durability (service/wal.hpp) ---------------------------------------

  /// Attaches a write-ahead log: every subsequent apply_update appends its
  /// delta before acknowledging, adopted refinements are logged best-effort,
  /// and compaction runs when the log policy fires.  Called once, right
  /// after construction (durable open) or after replay (recovery).
  void attach_wal(std::unique_ptr<SessionWal> wal);
  bool durable() const;

  /// Recovery bootstrap: positions a freshly constructed session (built on
  /// the snapshot state, zero updates absorbed) at the snapshot's update
  /// epoch so replayed records land on their original epochs.
  void begin_recovery(std::uint64_t snapshot_epoch);

  /// Recovery replay of a logged kRefine record: swaps in `refined` as the
  /// live assignment (one O(V + E) state rebuild), without consulting the
  /// policy or the WAL.
  void force_assignment(Assignment refined, const char* source);

  // --- Replication (service/replication.hpp) ------------------------------

  /// PartitionState::content_hash() of the live state — the divergence-
  /// detection digest leaders and followers exchange at snapshot boundaries.
  std::uint64_t state_digest() const;

  /// Follower-side kRefine application: logs the record to this session's
  /// own WAL first, then adopts the assignment.  Unlike the leader's
  /// best-effort refinement logging, a failed append here fail-stops the
  /// session (wal_failed) — a follower whose log silently missed a shipped
  /// record would replay to a diverged state after ITS next restart.
  void apply_replicated_refine(Assignment refined);

  /// Follower-side lockstep compaction, triggered by the leader's shipped
  /// snapshot boundary rather than the local policy.  Checkpoints the
  /// current state (with its digest) and truncates the local log.  Returns
  /// false — keeping the log — when the snapshot write fails or the session
  /// has no WAL.
  bool compact_now();

  /// Leader-side compaction liveness: apply_update only evaluates the
  /// compaction policy right after an append, when the ship gate is
  /// necessarily still behind the new record — so with a strict gate
  /// (ship_retain_bytes == 0) the policy would never fire.  The shipper
  /// calls this after consuming the log to run any compaction the gate
  /// deferred.  Returns true when a compaction ran.
  bool poll_compaction();

  /// Leader-side: hands the WAL the shipper's consumed-offset gate so
  /// compaction defers (bounded by ship_retain_bytes) while the shipper is
  /// behind.  No-op on a non-durable session.
  void set_ship_gate(std::shared_ptr<WalShipGate> gate);

  /// Drains the session for teardown: marks it closed (further updates and
  /// refinement plans are refused), signals an in-flight refinement to
  /// cancel, and waits until it has unwound.  Every WAL append was already
  /// fsynced, so there is nothing left to flush.  Idempotent; safe to call
  /// while a refinement is mid-run on the pool.
  void close();
  bool closed() const;

  // --- Persistence through the Chaco/METIS text formats -------------------

  /// Writes the current graph and partition (io.hpp formats): a session can
  /// be checkpointed mid-stream and restored into a fresh process, or its
  /// partition handed to any other Chaco/METIS-speaking tool.
  void save(std::ostream& graph_os, std::ostream& partition_os) const;
  /// save() to `prefix`.graph / `prefix`.part.
  void save_files(const std::string& prefix) const;

  /// Restores a session from streams/files written by save()/save_files()
  /// (snapshot source is "restore").
  static std::unique_ptr<PartitionSession> restore(std::istream& graph_is,
                                                   std::istream& partition_is,
                                                   SessionConfig config);
  static std::unique_ptr<PartitionSession> restore_files(
      const std::string& prefix, SessionConfig config);

 private:
  /// Rebuilds the state around `refined` (one O(V + E) construction,
  /// counted as a full evaluation), re-certifies the policy baseline and
  /// publishes (mu_ held).
  void adopt_locked(Assignment refined, const char* source);
  /// Checkpoints the state and truncates the log; false when the snapshot
  /// write failed, leaving the log intact (mu_ held, wal_ attached).
  bool compact_locked();
  /// One admitted verification round (mu_ held); true when it ends at a
  /// certified local optimum.  kTotalComm drains the gain index's
  /// improving candidates; kWorstComm runs one full-boundary frontier round.
  bool verify_round(const HillClimbOptions& opt, RepairReport& rep);
  /// Publishes the current state as the newest snapshot (mu_ held).
  void publish(const char* source);
  RefineSignals signals() const;  // mu_ held

  const SessionConfig config_;

  mutable std::mutex mu_;  ///< guards everything below
  std::shared_ptr<const Graph> graph_;
  PartitionState state_;
  std::uint64_t update_epoch_ = 0;
  std::uint64_t version_ = 0;

  // Policy accumulators (reset when a refinement is adopted).
  double baseline_fitness_ = 0.0;
  int updates_since_refine_ = 0;
  std::int64_t damage_since_refine_ = 0;
  std::int64_t damage_since_deep_ = 0;
  bool refine_in_flight_ = false;

  // Durability + teardown plane.
  std::unique_ptr<SessionWal> wal_;
  bool wal_failed_ = false;  ///< fail-stop: an append exhausted its retries
  bool closed_ = false;
  /// Set for the duration of one in-flight refinement; close() flips it.
  std::shared_ptr<std::atomic<bool>> refine_cancel_;
  /// Signalled when refine_in_flight_ clears (close() drains on it).
  std::condition_variable refine_done_cv_;

  // Statistics.  Repair latencies accumulate into a fixed-size log-bucketed
  // histogram (stats_.repair_latency — bounded memory over an unbounded
  // stream, O(buckets) to scrape).
  SessionStats stats_;

  mutable std::mutex snap_mu_;  ///< guards snapshot_ only (reader-facing)
  std::shared_ptr<const SessionSnapshot> snapshot_;
};

/// Executes a refinement job (outside any session lock): kLight runs
/// verified gain-ordered frontier hill-climb rounds; kDeep additionally runs
/// the deep tier (flat DPGA burst or V-cycle) seeded with the climbed
/// solution.  Deterministic for a given
/// rng; `executor` (optional) parallelizes the DPGA burst.  Returns the
/// refined assignment, its fitness, and the evaluation counts to charge.
struct RefineOutcome {
  Assignment assignment;
  double fitness = 0.0;
  std::int64_t full_evaluations = 0;
  std::int64_t delta_evaluations = 0;
};
RefineOutcome run_refinement(const PartitionSession::RefineJob& job,
                             const SessionConfig& config, Rng rng,
                             Executor* executor);

/// Applies one WAL record to a session through the same deterministic repair
/// pipeline the live run used — the shared core of PartitionService::recover
/// (log_locally = false: the record is being read FROM this session's log)
/// and the replication follower's continuous tail-replay (log_locally =
/// true: the record arrived from the leader and must enter the follower's
/// own log).  kDelta records rebuild the grown graph from the session's
/// current one and replay the logged verification-round count; kRefine
/// records swap in the logged assignment.
void replay_wal_record(PartitionSession& session, const WalRecord& record,
                       bool log_locally);

}  // namespace gapart
