// The deterministic incremental-assignment strawman named in the paper's
// conclusion: "a simple deterministic algorithm that assigns new nodes to
// the part to which most of its nearest neighbors belong".  The paper argues
// its GA beats this; the incremental benches measure exactly that claim.
// The same kernel is tier 1 of the streaming session's per-delta repair.
#pragma once

#include <span>
#include <vector>

#include "graph/graph.hpp"
#include "graph/types.hpp"

namespace gapart {

/// The extension kernel: parts for the new vertices [|old_parts|, |grown|)
/// of `grown`, whose first |old_parts| vertices keep `old_parts`.  New
/// vertices are processed most-constrained-first (most assigned neighbours,
/// then lowest id) and take the edge-weighted majority part among their
/// already-assigned neighbours, ties (and isolated vertices) broken by the
/// lightest part, then lowest part id.  `part_weight` holds the parts'
/// starting weights (its size is the part count, >= 1).
/// O(new * deg + new * log(new) + k): no O(|grown|) buffer, so a caller
/// holding a live state pays for the new range only.
std::vector<PartId> greedy_incremental_extend(
    const Graph& grown, std::span<const PartId> old_parts,
    std::span<const double> part_weight);

/// Extends `previous` (an assignment of the first |previous| vertices of
/// `grown`) to all of `grown`: old vertices keep their part, new vertices
/// get greedy_incremental_extend's parts, starting from the old parts'
/// summed vertex weights.
Assignment greedy_incremental_assign(const Graph& grown,
                                     const Assignment& previous,
                                     PartId num_parts);

}  // namespace gapart
