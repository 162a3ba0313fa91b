// Serial frontier climb (kFrontier) fuzzed over damaged block partitions.
//
// The service's repair and every refinement tier run this one gain-ordered
// climb, so each family below checks a property of that climb on
// the same 12-seed parameter grid as SeededRepairFuzz in test_hill_climb.cpp:
//   * it ends at a verified local optimum, monotonically, with its reported
//     gain equal to the exact fitness delta;
//   * the incrementally maintained state equals a fresh construction from
//     the final assignment;
//   * the gain-ordered climb, seeding and the plain sweep driver reach the
//     same fixed-point class;
//   * the EvalContext overload accounts one delta evaluation per move and
//     decides exactly as the plain overload.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "bench_common.hpp"
#include "core/eval.hpp"
#include "core/hill_climb.hpp"
#include "graph/generators.hpp"
#include "graph/partition.hpp"

namespace gapart {
namespace {

using bench::DamagedGrid;
using bench::damaged_block_grid;

/// 20/24/28 grids, k in 2..5, damage 8..40, both objectives.
struct FuzzCase {
  VertexId n;
  PartId k;
  int damage;
  FitnessParams fitness;
  std::uint64_t seed;
};

FuzzCase fuzz_case(int param) {
  FuzzCase c;
  c.n = 20 + 4 * (param % 3);
  c.k = 2 + param % 4;
  c.damage = 8 + (param % 5) * 8;
  c.fitness = {param % 2 ? Objective::kWorstComm : Objective::kTotalComm, 1.0};
  c.seed = static_cast<std::uint64_t>(param);
  return c;
}

/// The climb settings the service uses for repair and refinement.
HillClimbOptions service_options(const FuzzCase& c) {
  HillClimbOptions opt;
  opt.mode = HillClimbMode::kFrontier;
  opt.fitness = c.fitness;
  opt.max_passes = 100;
  return opt;
}

void expect_fixed_point(PartitionState& state, const HillClimbOptions& opt,
                        const char* label) {
  for (const VertexId v : state.boundary_vertices()) {
    EXPECT_LT(state.best_move(v, opt.fitness, opt.min_gain).to, 0)
        << label << ": vertex " << v << " still improvable";
  }
}

class FrontierClimbFuzz : public ::testing::TestWithParam<int> {};

TEST_P(FrontierClimbFuzz, ReachesVerifiedFixedPointMonotonically) {
  const FuzzCase c = fuzz_case(GetParam());
  const Graph g = make_grid(c.n, c.n);
  const DamagedGrid d = damaged_block_grid(c.n, c.k, c.damage, c.seed);
  const HillClimbOptions opt = service_options(c);

  PartitionState state(g, d.start, c.k);
  const double before = state.fitness(opt.fitness);
  const HillClimbResult res = hill_climb(state, opt);
  EXPECT_GE(state.fitness(opt.fitness), before);
  EXPECT_NEAR(state.fitness(opt.fitness) - before, res.fitness_gain, 1e-9);
  EXPECT_GE(res.examined, res.moves);
  expect_fixed_point(state, opt, "gain-ordered frontier");
}

TEST_P(FrontierClimbFuzz, MaintainedStateMatchesFreshConstruction) {
  const FuzzCase c = fuzz_case(GetParam());
  const Graph g = make_grid(c.n, c.n);
  const DamagedGrid d = damaged_block_grid(c.n, c.k, c.damage, c.seed);

  PartitionState climbed(g, d.start, c.k);
  hill_climb(climbed, service_options(c));
  const PartitionState fresh(g, climbed.assignment(), c.k);

  // Integer weights: every maintained cut and weight is an exact sum.
  EXPECT_EQ(climbed.sum_part_cut(), fresh.sum_part_cut());
  EXPECT_EQ(climbed.max_part_cut(), fresh.max_part_cut());
  for (PartId q = 0; q < c.k; ++q) {
    EXPECT_EQ(climbed.part_weight(q), fresh.part_weight(q)) << "part " << q;
    EXPECT_EQ(climbed.part_cut(q), fresh.part_cut(q)) << "part " << q;
  }
  EXPECT_EQ(climbed.boundary_vertices(), fresh.boundary_vertices());
  // The imbalance accumulates against a non-integer mean load, so it
  // matches the fresh value only to rounding.
  EXPECT_NEAR(climbed.imbalance_sq(), fresh.imbalance_sq(), 1e-9);

  const PartitionMetrics recomputed =
      compute_metrics(g, climbed.assignment(), c.k);
  EXPECT_EQ(climbed.sum_part_cut(), recomputed.sum_part_cut);
  EXPECT_EQ(climbed.max_part_cut(), recomputed.max_part_cut);
}

TEST_P(FrontierClimbFuzz, GainOrderedAndPlainReachSameFixedPointClass) {
  const FuzzCase c = fuzz_case(GetParam());
  const Graph g = make_grid(c.n, c.n);
  const DamagedGrid d = damaged_block_grid(c.n, c.k, c.damage, c.seed);

  // The plain climb is the paper's unordered ascending sweep: from the same
  // start it moves vertices in a different order, yet both must stop where
  // no boundary vertex has an improving move.
  const HillClimbOptions ordered = service_options(c);
  HillClimbOptions plain = ordered;
  plain.mode = HillClimbMode::kSweep;

  PartitionState a(g, d.start, c.k);
  PartitionState b(g, d.start, c.k);
  const HillClimbResult res_ordered = hill_climb(a, ordered);
  hill_climb(b, plain);
  expect_fixed_point(a, ordered, "gain-ordered");
  expect_fixed_point(b, plain, "plain");

  // The ordered climb is deterministic: a rerun lands on the same state.
  PartitionState again(g, d.start, c.k);
  const HillClimbResult res_again = hill_climb(again, ordered);
  EXPECT_EQ(a.assignment(), again.assignment());
  EXPECT_EQ(res_ordered.moves, res_again.moves);
  EXPECT_EQ(res_ordered.examined, res_again.examined);
}

TEST_P(FrontierClimbFuzz, SweepReachesVerifiedFixedPoint) {
  const FuzzCase c = fuzz_case(GetParam());
  const Graph g = make_grid(c.n, c.n);
  const DamagedGrid d = damaged_block_grid(c.n, c.k, c.damage, c.seed);

  HillClimbOptions opt = service_options(c);
  opt.mode = HillClimbMode::kSweep;
  PartitionState state(g, d.start, c.k);
  const double before = state.fitness(opt.fitness);
  const HillClimbResult res = hill_climb(state, opt);
  // A sweep stops on the first pass that moves nothing, well inside budget.
  EXPECT_LT(res.passes, opt.max_passes);
  EXPECT_EQ(res.verify_rounds, 0);
  EXPECT_GE(state.fitness(opt.fitness), before);
  EXPECT_NEAR(state.fitness(opt.fitness) - before, res.fitness_gain, 1e-9);
  expect_fixed_point(state, opt, "sweep");
}

TEST_P(FrontierClimbFuzz, SeededGainOrderedRepairReachesVerifiedFixedPoint) {
  const FuzzCase c = fuzz_case(GetParam());
  const Graph g = make_grid(c.n, c.n);
  const DamagedGrid d = damaged_block_grid(c.n, c.k, c.damage, c.seed);
  const HillClimbOptions opt = service_options(c);

  PartitionState state(g, d.start, c.k);
  const double before = state.fitness(opt.fitness);
  const HillClimbResult res = hill_climb_from(state, d.damaged, opt);
  EXPECT_GE(state.fitness(opt.fitness), before);
  EXPECT_NEAR(state.fitness(opt.fitness) - before, res.fitness_gain, 1e-9);
  // A seeded climb owes at least one full-boundary verification round.
  EXPECT_GE(res.verify_rounds, 1);
  expect_fixed_point(state, opt, "seeded gain-ordered");
}

TEST_P(FrontierClimbFuzz, EvalOverloadCountsOneDeltaPerMove) {
  const FuzzCase c = fuzz_case(GetParam());
  const Graph g = make_grid(c.n, c.n);
  const DamagedGrid d = damaged_block_grid(c.n, c.k, c.damage, c.seed);
  const HillClimbOptions opt = service_options(c);

  // The context's params override options.fitness: give the options the
  // other objective so a climb that ignored the override would diverge.
  HillClimbOptions mismatched = opt;
  mismatched.fitness.objective = c.fitness.objective == Objective::kTotalComm
                                     ? Objective::kWorstComm
                                     : Objective::kTotalComm;
  const EvalContext eval(g, c.k, c.fitness);
  PartitionState counted(g, d.start, c.k);
  const HillClimbResult res_eval = hill_climb(eval, counted, mismatched);
  EXPECT_EQ(eval.delta_evaluations(), res_eval.moves);
  EXPECT_EQ(eval.full_evaluations(), 0);

  PartitionState plain(g, d.start, c.k);
  const HillClimbResult res_plain = hill_climb(plain, opt);
  EXPECT_EQ(counted.assignment(), plain.assignment());
  EXPECT_EQ(res_eval.moves, res_plain.moves);
  EXPECT_EQ(res_eval.fitness_gain, res_plain.fitness_gain);
  EXPECT_EQ(eval.adopt(counted), plain.fitness(c.fitness));
}

INSTANTIATE_TEST_SUITE_P(Seeds, FrontierClimbFuzz, ::testing::Range(0, 12));

}  // namespace
}  // namespace gapart
