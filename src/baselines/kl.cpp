#include "baselines/kl.hpp"

#include <algorithm>
#include <limits>
#include <vector>

#include "common/assert.hpp"

namespace gapart {

namespace {

struct Move {
  VertexId vertex = -1;
  PartId to = -1;
  double gain = 0.0;
};

/// Best (vertex, part) move among unlocked boundary vertices; gain may be
/// negative.  Returns vertex == -1 when no candidate exists.  Iterates the
/// incrementally maintained frontier (sorted into `order` for deterministic
/// tie-breaks) instead of scanning all V vertices, and probes each vertex
/// with the single-scan gain kernel.
Move best_move(const PartitionState& state, const std::vector<char>& locked,
               const FitnessParams& params, std::vector<VertexId>& order) {
  Move best;
  bool found = false;
  order.assign(state.frontier().begin(), state.frontier().end());
  std::sort(order.begin(), order.end());
  for (const VertexId v : order) {
    if (locked[static_cast<std::size_t>(v)]) continue;
    const BestMove bm = state.best_move(
        v, params, -std::numeric_limits<double>::infinity());
    if (bm.to < 0) continue;
    if (!found || bm.gain > best.gain) {
      best = {v, bm.to, bm.gain};
      found = true;
    }
  }
  return best;
}

}  // namespace

KlResult kl_refine(PartitionState& state, const KlOptions& options) {
  GAPART_REQUIRE(options.max_passes >= 1, "need at least one pass");
  const FitnessParams& params = options.fitness;
  const Graph& g = state.graph();
  KlResult result;

  for (int pass = 0; pass < options.max_passes; ++pass) {
    ++result.passes;
    std::vector<char> locked(static_cast<std::size_t>(g.num_vertices()), 0);

    // Trial sequence: apply best moves (possibly negative), remember the
    // prefix with the highest cumulative gain.
    struct Applied {
      VertexId vertex;
      PartId from;
    };
    std::vector<Applied> trail;
    double cumulative = 0.0;
    double best_cumulative = 0.0;
    std::size_t best_prefix = 0;

    const int cap = options.max_moves_per_pass > 0
                        ? options.max_moves_per_pass
                        : g.num_vertices();
    std::vector<VertexId> order;
    for (int step = 0; step < cap; ++step) {
      const Move mv = best_move(state, locked, params, order);
      if (mv.vertex < 0) break;
      trail.push_back({mv.vertex, state.part_of(mv.vertex)});
      state.move(mv.vertex, mv.to);
      locked[static_cast<std::size_t>(mv.vertex)] = 1;
      cumulative += mv.gain;
      if (cumulative > best_cumulative + 1e-12) {
        best_cumulative = cumulative;
        best_prefix = trail.size();
      }
    }

    // Roll back to the best prefix.
    while (trail.size() > best_prefix) {
      state.move(trail.back().vertex, trail.back().from);
      trail.pop_back();
    }

    result.moves_applied += static_cast<int>(best_prefix);
    result.fitness_gain += best_cumulative;
    if (best_prefix == 0) break;  // pass produced nothing; converged
  }
  return result;
}

}  // namespace gapart
