// Incremental graph partitioning (paper §3.5 / §4.2), as a tiered,
// damage-proportional pipeline.
//
// When a partitioned graph grows — new vertices appended, adjacency possibly
// perturbed locally — the previous partition should be exploited so that
// repartitioning costs scale with the change, not the graph:
//
//   Tier 1  greedy_extend   Deterministic extension of the previous
//                           assignment: new vertices take the majority part
//                           of their already-assigned neighbours
//                           (most-constrained-first) — the greedy_incremental
//                           kernel the streaming session also runs.
//                           O(new * deg).
//   Tier 2  seeded_repair   Worklist-seeded frontier hill climb starting
//                           from the delta's repair seeds (new vertices,
//                           rewired survivors, and their neighbours): the
//                           cascade costs O(damage), then full-boundary
//                           verification rounds — O(boundary), still way
//                           under O(V) — restore the sweep fixed-point
//                           class.  This tier pays off the greedy tier's
//                           localized imbalance.
//   Tier 3  ga_refine       Optional DPGA (DKNUX by default) seeded with
//                           the repaired solution plus swap-perturbed
//                           clones — the paper's §3.5 incremental GA,
//                           now starting from an already-repaired seed.
//                           By far the most expensive tier; skip it when
//                           the damage is small and tier 2's verified
//                           local optimum is good enough.
//
// Per-tier stats (moves, gain-kernel probes, evaluations, fitness
// trajectory) come back with the result so callers — and the incremental
// benches — can see where the work went.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/dpga.hpp"
#include "core/graph_delta.hpp"
#include "core/hill_climb.hpp"
#include "core/presets.hpp"

namespace gapart {

struct IncrementalGaOptions {
  DpgaConfig dpga;
  /// Swap-perturbation strength for the non-seed population members.
  double swap_fraction = 0.08;

  /// Tier 1: deterministic greedy extension (majority part).  When off, new
  /// vertices are dealt randomly to the lightest parts instead (§3.5).
  bool greedy_extend = true;
  /// Tier 3: DPGA refinement seeded with the repaired solution.  The
  /// expensive tier — optional for latency-bound callers.
  bool refine_with_ga = true;

  /// Tier 2 (always on) budget: full-boundary verification rounds (the
  /// seeded cascade itself is damage-proportional and not charged).  The
  /// climb runs in plain worklist order at HillClimbOptions' default
  /// min_gain, so pipeline results stay bit-stable; the streaming service's
  /// own repair is gain-ordered.
  int repair_max_passes = 4;

  IncrementalGaOptions()
      : dpga(paper_dpga_config(2, Objective::kTotalComm)) {}
};

/// What one pipeline tier did.  fitness_after values form the pipeline's
/// fitness trajectory (monotone: tier 2 never undoes tier 1, tier 3's
/// population contains tier 2's solution verbatim).
struct IncrementalTierStats {
  std::string name;               ///< "greedy_extend" / "balanced_extend" /
                                  ///< "seeded_repair" / "ga_refine"
  double fitness_after = 0.0;
  int moves = 0;                  ///< vertices assigned (tier 1) / migrated
  std::int64_t examined = 0;      ///< gain-kernel probes (tier 2)
  std::int64_t evaluations = 0;   ///< full + delta evaluations charged
  double seconds = 0.0;
};

struct IncrementalResult {
  Assignment best;
  double best_fitness = 0.0;
  PartitionMetrics best_metrics;
  std::vector<IncrementalTierStats> tiers;
  /// Damage the pipeline repaired (new + touched vertices, from the delta).
  VertexId damage = 0;
  bool ga_ran = false;
  DpgaResult ga;  ///< Populated only when ga_ran.
  double wall_seconds = 0.0;
};

/// Repartitions `grown` (whose first |previous| vertices carry over from the
/// old graph) into options.dpga.ga.num_parts parts through the tiered
/// pipeline above.  `delta` says what changed; delta.old_num_vertices must
/// equal |previous|.  Every entry of `previous` must lie in [0, num_parts).
/// `executor` (optional, non-owning) is handed to the DPGA as its shared
/// evaluation pool.
IncrementalResult incremental_repartition(const Graph& grown,
                                          const Assignment& previous,
                                          const GraphDelta& delta,
                                          const IncrementalGaOptions& options,
                                          Rng& rng,
                                          Executor* executor = nullptr);

}  // namespace gapart
