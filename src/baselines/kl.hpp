// Kernighan–Lin / Fiduccia–Mattheyses-style local refinement, generalized to
// k parts and to the paper's composite objectives.
//
// The paper lists "mincut based methods" among the classical heuristics; this
// module provides that family as a refinement baseline, and also powers the
// multilevel partitioner's uncoarsening phase.  Unlike the GA's hill climber
// (strictly improving moves only), a KL pass applies the best available move
// even when negative, locks the vertex, and finally rolls back to the best
// prefix — letting it escape shallow local optima.
#pragma once

#include "graph/partition.hpp"

namespace gapart {

struct KlOptions {
  FitnessParams fitness;  ///< objective under which gains are measured
  int max_passes = 8;
  /// Cap on moves per pass (<=0: all boundary vertices may move once).
  int max_moves_per_pass = 0;
};

struct KlResult {
  int passes = 0;
  int moves_applied = 0;      ///< net moves kept after prefix rollback
  double fitness_gain = 0.0;  ///< total fitness improvement achieved
};

/// Refines `state` in place.  Never worsens fitness (a pass with no positive
/// prefix is fully rolled back).
KlResult kl_refine(PartitionState& state, const KlOptions& options = {});

}  // namespace gapart
