// Hill climbing on offspring (paper §3.6): only boundary vertices are
// examined, and a vertex migrates to a neighbouring part whenever that
// strictly improves fitness.  Passes repeat until a fixed point or the pass
// budget is exhausted.
//
// Two drive modes over PartitionState's incrementally maintained boundary:
//   kSweep     — the paper-faithful ascending vertex scan per pass.  Kept
//                bit-identical to the original implementation (the O(1)
//                boundary flag and the single-scan gain kernel change the
//                cost, not the decisions), so all paper tables reproduce.
//   kFrontier  — a worklist seeded with the boundary, re-enqueueing only
//                vertices whose neighbourhood changed; skips the O(V) scan
//                per pass entirely and reaches the same kind of local
//                optimum (no boundary vertex has an improving move), though
//                possibly via a different move order.
//
// Both modes are serial: scoring the frontier in parallel batch rounds gained
// under 1.2x at 4 threads and settled at worse fixed points
// (BENCH_local_search.json, parallel_refinement).
//
// Frontier mode additionally supports *worklist seeding* (hill_climb_from):
// instead of the whole boundary, the initial worklist can be a caller-
// supplied vertex set — the vertices an incremental mesh update actually
// touched.  The cascade
// then costs O(damage), and the usual full-boundary verification rounds
// (unless disabled) restore the sweep fixed-point class.  This is the
// damage-proportional repair primitive behind PartitionSession::apply_update
// (service/session.hpp), whose kTotalComm verification instead drains
// PartitionState's part-pair gain index (candidate_snapshot) and never
// rescans the boundary.
#pragma once

#include <atomic>
#include <cstdint>
#include <span>

#include "core/eval.hpp"
#include "graph/partition.hpp"
#include "graph/types.hpp"

namespace gapart {

enum class HillClimbMode {
  kSweep,     ///< Paper §3.6: full ascending vertex scan per pass.
  kFrontier,  ///< Boundary worklist; revisit only changed neighbourhoods.
};

struct HillClimbOptions {
  FitnessParams fitness;
  HillClimbMode mode = HillClimbMode::kSweep;
  /// kSweep: full vertex scans.  kFrontier: full-boundary rounds — the
  /// worklist cascade between rounds is not charged against this budget,
  /// and a seeded cascade (hill_climb_from) is free as well.
  int max_passes = 4;
  /// Minimum fitness improvement for a move to be taken.  Must be positive
  /// in kFrontier mode (it bounds the worklist cascade).
  double min_gain = 1e-9;
  /// kFrontier only: once the worklist drains, re-seed it from the full
  /// boundary and only stop when a full round finds nothing — the same
  /// fixed-point class as sweep (the composite objective couples distant
  /// vertices through the part weights, so a drained worklist alone proves
  /// nothing).  Disable to stop at the drained worklist: cost then stays
  /// proportional to the seeded cascade, but the result is only settled
  /// around the seeds, not a verified local optimum.
  bool verify_fixed_point = true;
  /// kFrontier only: first-cut gain-ordered worklist.  Each pass processes
  /// the bucket of likely-positive-gain vertices (neighbours a move just
  /// disturbed — the only place new improving moves appear) before the
  /// likely-zero-gain bucket (vertices whose best move was just taken).
  /// Both buckets stay ascending, so runs are deterministic, and worklist
  /// membership and the verification rounds are unchanged — same fixed-point
  /// class, different move order.  Ignored by kSweep.
  bool gain_ordered = false;
  /// Cooperative cancellation, checked at pass/round boundaries: when it
  /// reads true the climb stops early and returns the (monotone) progress
  /// made so far.  Non-owning; null means never cancelled.  Used by the
  /// service's session-close drain to cut a background refinement short.
  const std::atomic<bool>* cancel = nullptr;
};

struct HillClimbResult {
  int passes = 0;
  int moves = 0;
  double fitness_gain = 0.0;
  /// Boundary vertices probed with the gain kernel (the unit of local-search
  /// work; each probe is O(deg + k_adjacent)).
  std::int64_t examined = 0;
  /// kFrontier: full-boundary verification rounds run after a seeded or
  /// cascaded worklist drained (0 in kSweep).
  int verify_rounds = 0;
};

/// Climbs `state` to a local optimum (or until max_passes).  Monotone:
/// fitness never decreases.
HillClimbResult hill_climb(PartitionState& state,
                           const HillClimbOptions& options = {});

/// Convenience overload operating on a chromosome.  Strong guarantee: when a
/// precondition fails (invalid assignment, bad options) the exception leaves
/// `genes` untouched.
HillClimbResult hill_climb(const Graph& g, Assignment& genes, PartId num_parts,
                           const HillClimbOptions& options = {});

/// EvalContext-aware climb: gains are measured under eval.params() (which
/// overrides options.fitness) and every accepted move is accounted as one
/// delta evaluation, so callers that adopt the state's incrementally-
/// maintained fitness keep the evaluation totals honest.
HillClimbResult hill_climb(const EvalContext& eval, PartitionState& state,
                           const HillClimbOptions& options = {});

/// Damage-proportional repair entry point: a kFrontier climb whose worklist
/// starts from `seeds` (filtered to the live boundary, deduplicated) instead
/// of the whole boundary; options.mode is ignored.  The cascade from the
/// seeds costs O(damage), after which the verification rounds take over.
/// Seeds outside the current boundary are skipped; out-of-range ids throw.
/// An empty seed set
/// cascades nothing: with verify_fixed_point the climb is just the
/// verification rounds (O(boundary), still yielding a verified local
/// optimum); without it, a no-op.
HillClimbResult hill_climb_from(PartitionState& state,
                                std::span<const VertexId> seeds,
                                const HillClimbOptions& options = {});

/// EvalContext-aware seeded repair (accounting as in the eval overload).
HillClimbResult hill_climb_from(const EvalContext& eval, PartitionState& state,
                                std::span<const VertexId> seeds,
                                const HillClimbOptions& options = {});

}  // namespace gapart
