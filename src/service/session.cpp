#include "service/session.hpp"

#include <algorithm>
#include <fstream>
#include <optional>

#include "baselines/greedy_incremental.hpp"
#include "common/assert.hpp"
#include "common/fault_injection.hpp"
#include "common/stats.hpp"
#include "common/timer.hpp"
#include "core/eval.hpp"
#include "core/hill_climb.hpp"
#include "core/init.hpp"
#include "core/presets.hpp"
#include "graph/delta_codec.hpp"
#include "graph/io.hpp"

namespace gapart {

namespace {

const Graph& require_graph(const std::shared_ptr<const Graph>& g) {
  GAPART_REQUIRE(g != nullptr, "session graph must not be null");
  return *g;
}

}  // namespace

SessionConfig::SessionConfig() {
  // The deep tier runs as ONE background task next to every other session's
  // work, so its DPGA is a burst, not the paper's full table budget.
  deep.dpga.num_islands = 4;
  deep.dpga.parallel = true;  // island bursts ride the shared pool
  deep.dpga.ga.population_size = 64;
  deep.dpga.ga.max_generations = 60;
  deep.dpga.ga.stall_generations = 15;
  deep.dpga.ga.hill_climb_offspring = true;
  deep.dpga.ga.hill_climb_fraction = 0.25;

  // The V-cycle's ascending per-level GAs stay small: they only polish a
  // seeded incumbent.
  deep.level_population = 24;
  deep.level_max_generations = 20;
  deep.level_stall = 5;
}

PartitionSession::PartitionSession(std::shared_ptr<const Graph> graph,
                                   Assignment initial, SessionConfig config,
                                   const char* origin)
    : config_(std::move(config)),
      graph_(std::move(graph)),
      state_(require_graph(graph_), std::move(initial), config_.num_parts) {
  // num_parts is validated by the PartitionState member initializer.
  std::lock_guard<std::mutex> lock(mu_);  // publish()'s contract
  stats_.full_evaluations = 1;  // the state construction
  baseline_fitness_ = state_.fitness(config_.fitness);
  publish(origin);
}

RepairReport PartitionSession::apply_update(std::shared_ptr<const Graph> grown,
                                            const GraphDelta& delta,
                                            const ApplyOptions& opts) {
  const Graph& g = require_graph(grown);
  std::lock_guard<std::mutex> lock(mu_);
  GAPART_REQUIRE(!closed_, "session is closed");
  GAPART_REQUIRE(!wal_failed_,
                 "session fail-stopped: a WAL append exhausted its retries, "
                 "so an earlier repair mutated state the log never recorded "
                 "— accepting more updates would make the log unreplayable");
  // The delta path's allocation fault point: fires before any state is
  // touched, so an injected failure here is a clean rejection the client
  // can retry.
  if (GAPART_FAULT_POINT(FaultSite::kDeltaAlloc)) {
    throw std::bad_alloc();
  }
  const VertexId n_old = graph_->num_vertices();
  GAPART_REQUIRE(delta.old_num_vertices == n_old,
                 "delta.old_num_vertices (", delta.old_num_vertices,
                 ") disagrees with the session graph (", n_old, " vertices)");
  GAPART_REQUIRE(g.num_vertices() >= n_old,
                 "session graphs can only grow (got ", g.num_vertices(),
                 " after ", n_old, ")");

  GAPART_SPAN("repair.apply");
  WallTimer timer;
  RepairReport rep;
  rep.damage = delta.damage(g);

  // Tier 1 + rebind: assign the new vertices against the pre-update state
  // (the greedy_incremental kernel, O(new * deg), never O(V)), then absorb
  // the new graph in O(damage * deg).
  std::vector<PartId> new_parts;
  {
    GAPART_SPAN("repair.extend");
    new_parts = greedy_incremental_extend(g, state_.assignment(),
                                          state_.part_weights());
  }
  {
    GAPART_SPAN("repair.rebind");
    state_.rebind_grown(g, delta.touched_old, new_parts);
  }
  graph_ = std::move(grown);
  rep.extend_moves = static_cast<int>(new_parts.size());

  // Tier 2: verification rounds while the latency budget lasts, preceded
  // by the seeded cascade unless a kTotalComm round does its job — deeper
  // quality is the background refinement plane's job.  Replay runs exactly
  // the round count the live run logged (the budget clock is the one
  // nondeterministic input to the pipeline); shedding runs none.  A round's
  // certified exit is itself deterministic, so it stays in both paths.
  const int max_rounds =
      opts.replay_verify_rounds >= 0
          ? std::min(opts.replay_verify_rounds,
                     config_.repair_max_verify_rounds)
          : (opts.shed_verification ? 0 : config_.repair_max_verify_rounds);
  const auto admit_round = [&] {
    return rep.verify_rounds < max_rounds &&
           (opts.replay_verify_rounds >= 0 ||
            timer.seconds() < config_.repair_budget_seconds);
  };
  HillClimbOptions opt;
  opt.fitness = config_.fitness;
  opt.gain_ordered = true;
  opt.verify_fixed_point = false;
  // Admission of the first round is decided once, before the cascade, so
  // the logged round count alone tells replay which path ran.  A kTotalComm
  // round drains every vertex that can still improve — the damaged ones
  // included — so it replaces the damage-proportional seeded cascade, which
  // probes the whole one-hop neighbourhood of the damage (hubs included)
  // to find the few that move.
  const bool admitted = admit_round();
  if (!admitted || config_.fitness.objective != Objective::kTotalComm) {
    GAPART_SPAN("repair.cascade");
    const auto res =
        hill_climb_from(state_, repair_seeds(delta, *graph_), opt);
    rep.repair_moves += res.moves;
    rep.examined += res.examined;
  }
  if (admitted) {
    GAPART_SPAN("repair.verify");
    do {
      ++rep.verify_rounds;
      if (verify_round(opt, rep)) break;  // certified local optimum
    } while (admit_round());
  }
  rep.seconds = timer.seconds();

  ++update_epoch_;
  ++updates_since_refine_;
  damage_since_refine_ += rep.damage;
  damage_since_deep_ += rep.damage;

  rep.update_epoch = update_epoch_;
  rep.fitness_after = state_.fitness(config_.fitness);

  ++stats_.updates;
  stats_.total_damage += static_cast<std::uint64_t>(rep.damage);
  stats_.extend_moves += rep.extend_moves;
  stats_.repair_moves += rep.repair_moves;
  stats_.examined += rep.examined;
  stats_.delta_evaluations += rep.repair_moves;  // one delta per move
  stats_.repair_latency.record(rep.seconds);
  GAPART_COUNTER_ADD("repair.updates", 1);
  GAPART_COUNTER_ADD("repair.damage", rep.damage);
  GAPART_HISTOGRAM_RECORD("repair.latency_seconds", rep.seconds);

  // Write-ahead logging: the record — delta bytes plus the verification
  // round count the budget actually admitted — must be durable before this
  // call returns, because the returned report is the acknowledgement.
  if (wal_ != nullptr && !opts.replaying) {
    try {
      wal_->append(WalRecordType::kDelta, update_epoch_,
                   static_cast<std::uint32_t>(rep.verify_rounds),
                   encode_delta(*graph_, delta), rep.damage);
    } catch (const IoError&) {
      // The repair already mutated the state; without its record every later
      // record would replay against the wrong graph.  Fail-stop the session
      // rather than silently dropping an acknowledged-looking update.
      wal_failed_ = true;
      throw;
    }
    if (wal_->should_compact()) compact_locked();
  }

  publish("repair");
  return rep;
}

bool PartitionSession::verify_round(const HillClimbOptions& opt,
                                    RepairReport& rep) {
  if (config_.fitness.objective == Objective::kWorstComm) {
    // The max-cut term couples every part, so there is no per-pair index:
    // one full-boundary frontier round plus its cascade.
    HillClimbOptions full = opt;
    full.mode = HillClimbMode::kFrontier;
    const auto res = hill_climb(state_, full);
    rep.repair_moves += res.moves;
    rep.examined += res.examined;
    return res.moves == 0;
  }
  // Drain in ascending sweeps: snapshot the candidates, then probe each in
  // vertex order and move it when best_move finds a gain.  A candidate that
  // earlier moves of the sweep ruled out (its key no longer clears its
  // pair's threshold) is skipped without a probe: right after an extension
  // the part weights make thousands of vertices candidates, and a few moves
  // restore the balance.  A sweep that moves nothing changed nothing, so it
  // probed every candidate: the state is a certified local optimum.
  const FitnessParams& params = config_.fitness;
  for (;;) {
    const auto snapshot = state_.candidate_snapshot(params, opt.min_gain);
    bool moved = false;
    for (std::size_t i = 0; i < snapshot.size();) {
      const VertexId v = snapshot[i].v;
      bool may_improve = false;
      for (; i < snapshot.size() && snapshot[i].v == v; ++i) {
        may_improve = may_improve ||
                      state_.may_still_improve(snapshot[i], params,
                                               opt.min_gain);
      }
      if (!may_improve) continue;
      ++rep.examined;
      const BestMove best = state_.best_move(v, params, opt.min_gain);
      if (best.to < 0) continue;
      state_.move(v, best.to);
      ++rep.repair_moves;
      moved = true;
    }
    if (!moved) return true;
  }
}

void PartitionSession::publish(const char* source) {
  auto snap = std::make_shared<SessionSnapshot>();
  snap->update_epoch = update_epoch_;
  snap->version = ++version_;
  snap->source = source;
  snap->graph = graph_;
  snap->assignment = state_.assignment();
  snap->fitness = state_.fitness(config_.fitness);
  snap->total_cut = state_.total_cut();
  snap->max_part_cut = state_.max_part_cut();
  snap->imbalance_sq = state_.imbalance_sq();
  stats_.version = snap->version;
  std::lock_guard<std::mutex> lock(snap_mu_);
  snapshot_ = std::move(snap);
}

std::shared_ptr<const SessionSnapshot> PartitionSession::snapshot() const {
  std::lock_guard<std::mutex> lock(snap_mu_);
  return snapshot_;
}

RefineSignals PartitionSession::signals() const {
  RefineSignals s;
  s.current_fitness = state_.fitness(config_.fitness);
  s.baseline_fitness = baseline_fitness_;
  s.updates_since_refine = updates_since_refine_;
  s.damage_since_refine = damage_since_refine_;
  s.damage_since_deep = damage_since_deep_;
  s.refine_in_flight = refine_in_flight_;
  return s;
}

std::optional<PartitionSession::RefineJob> PartitionSession::plan_refinement() {
  std::lock_guard<std::mutex> lock(mu_);
  if (closed_) return std::nullopt;
  const RefineDepth depth = decide_refinement(config_.policy, signals());
  if (depth == RefineDepth::kNone) return std::nullopt;
  refine_in_flight_ = true;
  refine_cancel_ = std::make_shared<std::atomic<bool>>(false);
  ++stats_.refinements_planned;
  RefineJob job;
  job.update_epoch = update_epoch_;
  job.depth = depth;
  job.graph = graph_;
  job.assignment = state_.assignment();
  job.fitness = state_.fitness(config_.fitness);
  job.cancel = refine_cancel_;
  return job;
}

bool PartitionSession::complete_refinement(const RefineJob& job,
                                           Assignment refined,
                                           double refined_fitness,
                                           std::int64_t full_evaluations,
                                           std::int64_t delta_evaluations) {
  // Build the replacement state OUTSIDE the session lock (it is the one
  // O(V+E) step of adoption); a delta racing us just makes it dead weight.
  std::optional<PartitionState> candidate;
  if (refined_fitness > job.fitness) {
    candidate.emplace(*job.graph, std::move(refined), config_.num_parts);
  }

  std::lock_guard<std::mutex> lock(mu_);
  refine_in_flight_ = false;
  refine_cancel_.reset();
  refine_done_cv_.notify_all();
  stats_.full_evaluations += full_evaluations + (candidate ? 1 : 0);
  stats_.delta_evaluations += delta_evaluations;

  if (closed_) return false;  // close() is draining: never adopt into it

  if (job.update_epoch != update_epoch_) {
    // A newer delta invalidated the captured epoch: the refined assignment
    // no longer matches the live graph.  Leave the accumulators primed so
    // the policy refires on the new state.
    ++stats_.refinements_stale;
    return false;
  }

  // Epoch intact: between capture and now only refinement could have touched
  // the state, and in-flight exclusion rules that out — the live fitness is
  // still job.fitness.  Reset the accumulators either way: the current
  // quality has just been (re)certified.
  baseline_fitness_ = std::max(job.fitness, refined_fitness);
  updates_since_refine_ = 0;
  damage_since_refine_ = 0;
  if (job.depth == RefineDepth::kDeep) damage_since_deep_ = 0;

  if (!candidate) {
    ++stats_.refinements_no_better;
    return false;
  }
  // Log the adopted assignment BEFORE adopting it, so recovery lands on the
  // refined partition and the log is always a superset of the state.  The
  // old order (adopt, then log best-effort) could absorb a refinement the
  // log never saw — harmless for single-node recovery quality, but fatal
  // for replication, where the follower replays the log and the digests
  // must match bit-for-bit.  On append failure the refinement is dropped:
  // quality only, the session stays healthy.
  if (wal_ != nullptr) {
    try {
      wal_->append(WalRecordType::kRefine, update_epoch_, 0,
                   encode_assignment(candidate->assignment()), /*damage=*/0);
    } catch (const IoError&) {
      ++stats_.refinements_unlogged;
      return false;
    }
  }
  state_ = std::move(*candidate);
  ++stats_.refinements_applied;
  publish("refine");
  return true;
}

void PartitionSession::abandon_refinement() {
  std::lock_guard<std::mutex> lock(mu_);
  refine_in_flight_ = false;
  refine_cancel_.reset();
  refine_done_cv_.notify_all();
}

void PartitionSession::attach_wal(std::unique_ptr<SessionWal> wal) {
  std::lock_guard<std::mutex> lock(mu_);
  GAPART_REQUIRE(wal_ == nullptr, "session already has a WAL attached");
  wal_ = std::move(wal);
}

bool PartitionSession::durable() const {
  std::lock_guard<std::mutex> lock(mu_);
  return wal_ != nullptr;
}

void PartitionSession::begin_recovery(std::uint64_t snapshot_epoch) {
  std::lock_guard<std::mutex> lock(mu_);
  GAPART_REQUIRE(stats_.updates == 0 && update_epoch_ == 0,
                 "begin_recovery on a session that already absorbed updates");
  update_epoch_ = snapshot_epoch;
  publish("recover");
}

void PartitionSession::force_assignment(Assignment refined,
                                        const char* source) {
  std::lock_guard<std::mutex> lock(mu_);
  adopt_locked(std::move(refined), source);
}

void PartitionSession::adopt_locked(Assignment refined, const char* source) {
  state_ = PartitionState(*graph_, std::move(refined), config_.num_parts);
  ++stats_.full_evaluations;
  baseline_fitness_ = state_.fitness(config_.fitness);
  publish(source);
}

std::uint64_t PartitionSession::state_digest() const {
  std::lock_guard<std::mutex> lock(mu_);
  return state_.content_hash();
}

void PartitionSession::apply_replicated_refine(Assignment refined) {
  std::lock_guard<std::mutex> lock(mu_);
  GAPART_REQUIRE(!closed_, "session is closed");
  GAPART_REQUIRE(!wal_failed_,
                 "session fail-stopped: its log already missed a record");
  // Log first (same order as complete_refinement): the follower's own log
  // must cover everything its state absorbed, or its next recovery replays
  // to a diverged state.
  if (wal_ != nullptr) {
    try {
      wal_->append(WalRecordType::kRefine, update_epoch_, 0,
                   encode_assignment(refined), /*damage=*/0);
    } catch (const IoError&) {
      wal_failed_ = true;
      throw;
    }
  }
  ++stats_.refinements_applied;
  adopt_locked(std::move(refined), "replicate");
}

void PartitionSession::set_ship_gate(std::shared_ptr<WalShipGate> gate) {
  std::lock_guard<std::mutex> lock(mu_);
  if (wal_ != nullptr) wal_->set_ship_gate(std::move(gate));
}

bool PartitionSession::compact_now() {
  std::lock_guard<std::mutex> lock(mu_);
  if (wal_ == nullptr || wal_failed_) return false;
  return compact_locked();
}

bool PartitionSession::poll_compaction() {
  std::lock_guard<std::mutex> lock(mu_);
  if (closed_ || wal_ == nullptr || wal_failed_) return false;
  if (!wal_->should_compact()) return false;
  return compact_locked();
}

bool PartitionSession::compact_locked() {
  try {
    wal_->compact(update_epoch_, *graph_, state_.assignment(),
                  state_.content_hash());
  } catch (const IoError&) {
    // Snapshot writing failed; the log is still intact and complete, so
    // durability is unharmed — compaction simply retries at the next
    // trigger (counted in WalStats::compaction_failures).
    return false;
  }
  return true;
}

void PartitionSession::close() {
  std::unique_lock<std::mutex> lock(mu_);
  closed_ = true;
  if (refine_cancel_ != nullptr) refine_cancel_->store(true);
  // Drain: the in-flight job sees the cancel flag at its next pass boundary,
  // unwinds through complete/abandon_refinement, and signals here.
  refine_done_cv_.wait(lock, [&] { return !refine_in_flight_; });
}

bool PartitionSession::closed() const {
  std::lock_guard<std::mutex> lock(mu_);
  return closed_;
}

SessionStats PartitionSession::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  SessionStats out = stats_;
  out.p50_repair_seconds = out.repair_latency.quantile(0.50);
  out.p99_repair_seconds = out.repair_latency.quantile(0.99);
  out.max_repair_seconds = out.repair_latency.max();
  out.current_fitness = state_.fitness(config_.fitness);
  out.current_total_cut = state_.total_cut();
  out.durable = wal_ != nullptr;
  out.wal_failed = wal_failed_;
  if (wal_ != nullptr) out.wal = wal_->stats();
  return out;
}

void PartitionSession::save(std::ostream& graph_os,
                            std::ostream& partition_os) const {
  // Serialize from the immutable snapshot, NOT the live state: holding mu_
  // across O(V+E) stream IO would stall the repair plane for the duration
  // of a checkpoint.  Every apply_update/refinement publishes before
  // releasing mu_, so the snapshot is never behind a completed update.
  const auto snap = snapshot();
  write_graph(graph_os, *snap->graph);
  write_partition(partition_os, snap->assignment);
}

void PartitionSession::save_files(const std::string& prefix) const {
  const auto snap = snapshot();
  write_graph_file(prefix + ".graph", *snap->graph);
  write_partition_file(prefix + ".part", snap->assignment);
}

std::unique_ptr<PartitionSession> PartitionSession::restore(
    std::istream& graph_is, std::istream& partition_is, SessionConfig config) {
  auto graph = std::make_shared<Graph>(read_graph(graph_is));
  Assignment assignment = read_partition(partition_is);
  return std::make_unique<PartitionSession>(std::move(graph),
                                            std::move(assignment),
                                            std::move(config), "restore");
}

std::unique_ptr<PartitionSession> PartitionSession::restore_files(
    const std::string& prefix, SessionConfig config) {
  std::ifstream graph_is(prefix + ".graph");
  GAPART_REQUIRE(graph_is.good(), "cannot open ", prefix, ".graph");
  std::ifstream partition_is(prefix + ".part");
  GAPART_REQUIRE(partition_is.good(), "cannot open ", prefix, ".part");
  return restore(graph_is, partition_is, std::move(config));
}

RefineOutcome run_refinement(const PartitionSession::RefineJob& job,
                             const SessionConfig& config, Rng rng,
                             Executor* executor) {
  GAPART_REQUIRE(job.depth != RefineDepth::kNone,
                 "refinement job carries no work");
  const Graph& g = *job.graph;
  RefineOutcome out;

  // Verified gain-ordered frontier climb: the cheap tier, always run.
  const EvalContext eval(g, config.num_parts, config.fitness, executor);
  PartitionState state = eval.make_state(job.assignment);
  HillClimbOptions opt;
  opt.mode = HillClimbMode::kFrontier;
  opt.gain_ordered = true;
  opt.max_passes = config.refine_hill_climb_passes;
  opt.cancel = job.cancel.get();
  {
    GAPART_SPAN("refine.climb");
    hill_climb(eval, state, opt);
  }
  out.fitness = eval.adopt(state);
  out.assignment = std::move(state).release_assignment();

  // Deep tier: seeded with the climbed solution, running in the background
  // instead of the caller's path.  Large sessions route to the multilevel
  // V-cycle (coarse quotient evolution + seeded-repair uncoarsening, never
  // worse than its seed); the rest run the flat DPGA burst (§3.5's
  // incremental GA).  A cancelled job (its session is closing) skips the
  // burst — the climbed result above is returned as-is and discarded by
  // complete_refinement.
  const bool cancel_requested =
      job.cancel != nullptr && job.cancel->load(std::memory_order_relaxed);
  if (job.depth == RefineDepth::kDeep && !cancel_requested) {
    if (route_deep_vcycle(config.policy, g.num_vertices())) {
      GAPART_SPAN("refine.vcycle");
      VcycleGaOptions vo = config.deep;
      vo.dpga.ga.num_parts = config.num_parts;
      vo.dpga.ga.fitness = config.fitness;
      vo.cancel = job.cancel.get();
      const VcycleGaResult res =
          vcycle_ga_refine(g, out.assignment, vo, rng, executor);
      out.full_evaluations += res.full_evaluations;
      out.delta_evaluations += res.delta_evaluations;
      if (res.fitness > out.fitness) {
        out.assignment = res.assignment;
        out.fitness = res.fitness;
      }
    } else {
      GAPART_SPAN("refine.dpga");
      DpgaConfig dc = config.deep.dpga;
      dc.ga.num_parts = config.num_parts;
      dc.ga.fitness = config.fitness;
      auto initial = make_seeded_population(
          out.assignment, dc.ga.population_size, /*swap_fraction=*/0.08, rng);
      const DpgaResult res =
          run_dpga(g, dc, std::move(initial), rng.split(), executor);
      out.full_evaluations += res.full_evaluations;
      out.delta_evaluations += res.delta_evaluations;
      if (res.best_fitness > out.fitness) {
        out.assignment = res.best;
        out.fitness = res.best_fitness;
      }
    }
  }

  out.full_evaluations += eval.full_evaluations();
  out.delta_evaluations += eval.delta_evaluations();
  return out;
}

void replay_wal_record(PartitionSession& session, const WalRecord& record,
                       bool log_locally) {
  if (record.type == WalRecordType::kDelta) {
    const auto prev = session.snapshot()->graph;
    DecodedDelta decoded = decode_delta(*prev, record.payload);
    ApplyOptions opts;
    // Replay the verification-round count the leader's live run admitted —
    // the one wall-clock-dependent input — so the pipeline is deterministic.
    opts.replay_verify_rounds = static_cast<int>(record.flags);
    opts.replaying = !log_locally;
    session.apply_update(std::make_shared<Graph>(std::move(decoded.grown)),
                         decoded.delta, opts);
    return;
  }
  GAPART_REQUIRE(record.type == WalRecordType::kRefine, "WAL record type ",
                 static_cast<int>(record.type),
                 " is neither a delta nor a refinement");
  if (log_locally) {
    session.apply_replicated_refine(decode_assignment(record.payload));
  } else {
    session.force_assignment(decode_assignment(record.payload), "recover");
  }
}

}  // namespace gapart
