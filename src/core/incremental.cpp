#include "core/incremental.hpp"

#include <utility>

#include "baselines/greedy_incremental.hpp"
#include "common/assert.hpp"
#include "common/timer.hpp"
#include "core/eval.hpp"
#include "core/init.hpp"

namespace gapart {

IncrementalResult incremental_repartition(const Graph& grown,
                                          const Assignment& previous,
                                          const GraphDelta& delta,
                                          const IncrementalGaOptions& options,
                                          Rng& rng, Executor* executor) {
  const auto n_old = static_cast<VertexId>(previous.size());
  const PartId k = options.dpga.ga.num_parts;
  GAPART_REQUIRE(n_old <= grown.num_vertices(),
                 "previous assignment larger than grown graph");
  GAPART_REQUIRE(delta.old_num_vertices == n_old,
                 "delta.old_num_vertices (", delta.old_num_vertices,
                 ") disagrees with |previous| (", n_old, ")");
  for (const PartId p : previous) {
    GAPART_REQUIRE(p >= 0 && p < k, "previous assignment part ", p,
                   " out of range for ", k, " parts");
  }

  const FitnessParams params = options.dpga.ga.fitness;
  WallTimer total;
  IncrementalResult out;
  out.damage = delta.damage(grown);

  // Tier 1: extend the previous assignment over the new vertices.
  Assignment current;
  {
    WallTimer t;
    IncrementalTierStats tier;
    if (options.greedy_extend) {
      tier.name = "greedy_extend";
      current = greedy_incremental_assign(grown, previous, k);
    } else {
      tier.name = "balanced_extend";
      current = incremental_seed_assignment(grown, previous, k, rng);
    }
    tier.moves = static_cast<int>(grown.num_vertices() - n_old);
    tier.evaluations = 1;  // the fitness readout below
    tier.fitness_after = evaluate_fitness(grown, current, k, params);
    tier.seconds = t.seconds();
    out.tiers.push_back(std::move(tier));
  }

  // Tier 2: damage-proportional repair — worklist-seeded frontier climb
  // from the delta's seeds, then full-boundary verification.
  {
    WallTimer t;
    IncrementalTierStats tier;
    tier.name = "seeded_repair";
    const EvalContext eval(grown, k, params);
    PartitionState state = eval.make_state(std::move(current));
    HillClimbOptions hc;
    hc.fitness = params;
    hc.max_passes = options.repair_max_passes;
    const HillClimbResult res =
        hill_climb_from(eval, state, repair_seeds(delta, grown), hc);
    tier.moves = res.moves;
    tier.examined = res.examined;
    // Reported fitness comes from a from-scratch evaluation, not the
    // incrementally-maintained sum (eval.adopt): tier 3 full-evaluates the
    // same assignment as a population member, and the two paths can differ
    // in the last ULP — the trajectory stays monotone only if every tier
    // reports through the same summation order.
    tier.fitness_after = eval.evaluate(state.assignment());
    // Two full evaluations (state construction + the readout above) plus
    // one delta per move.
    tier.evaluations = eval.total_evaluations();
    tier.seconds = t.seconds();
    out.tiers.push_back(std::move(tier));
    current = std::move(state).release_assignment();
  }

  out.best = std::move(current);
  out.best_fitness = out.tiers.back().fitness_after;

  // Tier 3: DPGA refinement seeded with the repaired solution (kept
  // verbatim as the first population member, so the seed is never lost).
  if (options.refine_with_ga) {
    IncrementalTierStats tier;
    tier.name = "ga_refine";
    auto initial =
        make_seeded_population(out.best, options.dpga.ga.population_size,
                               options.swap_fraction, rng);
    out.ga = run_dpga(grown, options.dpga, std::move(initial), rng.split(),
                      executor);
    out.ga_ran = true;
    tier.moves = 0;
    tier.evaluations = out.ga.evaluations;
    tier.fitness_after = out.ga.best_fitness;
    tier.seconds = out.ga.wall_seconds;
    out.tiers.push_back(std::move(tier));
    if (out.ga.best_fitness >= out.best_fitness) {
      out.best = out.ga.best;
      out.best_fitness = out.ga.best_fitness;
    }
  }

  out.best_metrics = compute_metrics(grown, out.best, k);
  out.wall_seconds = total.seconds();
  return out;
}

}  // namespace gapart
