#include "core/incremental.hpp"

#include <gtest/gtest.h>

#include "baselines/greedy_incremental.hpp"
#include "common/rng.hpp"
#include "core/contracted_ga.hpp"
#include "core/init.hpp"
#include "graph/generators.hpp"
#include "graph/mesh.hpp"
#include "spectral/rsb.hpp"
#include "test_util.hpp"

namespace gapart {
namespace {

using testing::max_size_deviation;

IncrementalGaOptions small_incremental(PartId k, int gens) {
  IncrementalGaOptions opt;
  opt.dpga.num_islands = 4;
  opt.dpga.ga.num_parts = k;
  opt.dpga.ga.population_size = 64;
  opt.dpga.ga.max_generations = gens;
  return opt;
}

/// Pure growth: the first |previous| vertices of `grown` carry over.
GraphDelta growth(const Graph& grown, const Assignment& previous) {
  return appended_delta(grown, static_cast<VertexId>(previous.size()));
}

TEST(IncrementalGa, RepartitionsGrownMesh) {
  const Mesh base = paper_mesh(118);
  const Mesh grown = paper_incremental_mesh(base, 118, 21);
  Rng rng(3);
  const auto prev = rsb_partition(base.graph, 4, rng);
  const auto opt = small_incremental(4, 60);
  const auto res = incremental_repartition(grown.graph, prev,
                                           growth(grown.graph, prev), opt, rng);
  ASSERT_TRUE(is_valid_assignment(grown.graph, res.best, 4));
  EXPECT_LE(max_size_deviation(res.best, 4), 3);
  ASSERT_TRUE(res.ga_ran);
  EXPECT_GT(res.ga.generations, 0);
  EXPECT_GT(res.damage, 0);
}

TEST(IncrementalGa, BeatsGreedyDeterministicAssignment) {
  // The paper's conclusion: "The incremental partitioning results obtained
  // using DKNUX could not be obtained by a simple deterministic algorithm
  // that assigns new nodes to the part to which most of its nearest
  // neighbors belong."
  const Mesh base = paper_mesh(183);
  const Mesh grown = paper_incremental_mesh(base, 183, 60);
  Rng rng(5);
  const auto prev = rsb_partition(base.graph, 8, rng);

  const auto greedy = greedy_incremental_assign(grown.graph, prev, 8);
  const FitnessParams params{Objective::kTotalComm, 1.0};
  const double greedy_fitness =
      evaluate_fitness(grown.graph, greedy, 8, params);

  auto opt = small_incremental(8, 120);
  const auto res = incremental_repartition(grown.graph, prev,
                                           growth(grown.graph, prev), opt, rng);
  EXPECT_GT(res.best_fitness, greedy_fitness);
}

TEST(IncrementalGa, SeedNeverLost) {
  // The pipeline's result can never be worse than the best balanced
  // extension the problem admits being seeded with.
  const Mesh base = paper_mesh(78);
  const Mesh grown = paper_incremental_mesh(base, 78, 10);
  Rng rng(7);
  const auto prev = rsb_partition(base.graph, 4, rng);
  auto opt = small_incremental(4, 30);
  Rng seed_rng(99);
  const auto seed = incremental_seed_assignment(grown.graph, prev, 4, seed_rng);
  const double seed_fitness = evaluate_fitness(
      grown.graph, seed, 4, opt.dpga.ga.fitness);
  const auto res = incremental_repartition(grown.graph, prev,
                                           growth(grown.graph, prev), opt, rng);
  // Not exactly the same seed (random placement), but the GA explored a
  // population derived from such extensions, so its best must be at least
  // competitive.
  EXPECT_GE(res.best_fitness, seed_fitness - 10.0);
}

TEST(IncrementalGa, ValidatesPreviousSize) {
  const Mesh base = paper_mesh(78);
  Rng rng(9);
  const Assignment too_big(200, 0);
  const auto opt = small_incremental(2, 5);
  EXPECT_THROW(
      incremental_repartition(base.graph, too_big,
                              growth(base.graph, too_big), opt, rng),
      Error);
}

TEST(IncrementalGa, ValidatesPreviousPartIds) {
  // Regression: the GA path used to accept out-of-range part ids and index
  // the part-weight arrays out of bounds; now it rejects them up front, the
  // same way the greedy baseline always did.
  const Mesh base = paper_mesh(78);
  const Mesh grown = paper_incremental_mesh(base, 78, 10);
  Rng rng(11);
  Assignment bad(static_cast<std::size_t>(base.graph.num_vertices()), 0);
  bad[5] = 7;  // k = 4 below
  const auto opt = small_incremental(4, 5);
  EXPECT_THROW(incremental_repartition(grown.graph, bad,
                                       growth(grown.graph, bad), opt, rng),
               Error);
  bad[5] = -1;
  EXPECT_THROW(incremental_repartition(grown.graph, bad,
                                       growth(grown.graph, bad), opt, rng),
               Error);
}

TEST(IncrementalInit, MakeIncrementalPopulationValidatesPartIds) {
  // Same regression at the population-builder layer (the old entry point).
  const Mesh base = paper_mesh(78);
  const Mesh grown = paper_incremental_mesh(base, 78, 10);
  Rng rng(13);
  Assignment bad(static_cast<std::size_t>(base.graph.num_vertices()), 0);
  bad[0] = 4;
  EXPECT_THROW(make_incremental_population(grown.graph, bad, 4, 8, 0.05, rng),
               Error);
  EXPECT_THROW(incremental_seed_assignment(grown.graph, bad, 4, rng), Error);
}

TEST(IncrementalGa, TieredPipelineReportsStats) {
  const Mesh base = paper_mesh(118);
  const Mesh grown = paper_incremental_mesh(base, 118, 41);
  Rng rng(17);
  const auto prev = rsb_partition(base.graph, 4, rng);
  auto opt = small_incremental(4, 10);
  opt.refine_with_ga = false;  // greedy + repair only

  const auto res = incremental_repartition(grown.graph, prev,
                                           growth(grown.graph, prev), opt, rng);
  ASSERT_TRUE(is_valid_assignment(grown.graph, res.best, 4));
  EXPECT_FALSE(res.ga_ran);
  ASSERT_EQ(res.tiers.size(), 2u);
  EXPECT_EQ(res.tiers[0].name, "greedy_extend");
  EXPECT_EQ(res.tiers[1].name, "seeded_repair");

  // Tier 1 assigned exactly the new vertices.
  EXPECT_EQ(res.tiers[0].moves, 41);
  // The fitness trajectory is monotone: repair never undoes the extension.
  EXPECT_GE(res.tiers[1].fitness_after, res.tiers[0].fitness_after);
  EXPECT_EQ(res.best_fitness, res.tiers[1].fitness_after);
  // Repair accounting: two full evaluations (state construction + the
  // from-scratch fitness readout) plus one delta per move.
  EXPECT_EQ(res.tiers[1].evaluations, 2 + res.tiers[1].moves);
  // Damage = new vertices + survivors the re-triangulation left adjacent to
  // them (appended_delta); repair work is bounded far below |V| probes per
  // verification round.
  EXPECT_GE(res.damage, 41);
  EXPECT_GT(res.tiers[1].examined, 0);
}

TEST(IncrementalGa, GaTierNeverLosesRepairedSeed) {
  const Mesh base = paper_mesh(118);
  const Mesh grown = paper_incremental_mesh(base, 118, 21);
  Rng rng(19);
  const auto prev = rsb_partition(base.graph, 4, rng);
  const auto opt = small_incremental(4, 15);
  const auto res = incremental_repartition(grown.graph, prev,
                                           growth(grown.graph, prev), opt, rng);
  ASSERT_TRUE(res.ga_ran);
  ASSERT_EQ(res.tiers.size(), 3u);
  EXPECT_EQ(res.tiers[2].name, "ga_refine");
  // The repaired solution is in the GA population verbatim; with elitism the
  // final best can only match or beat it.
  EXPECT_GE(res.best_fitness, res.tiers[1].fitness_after);
  EXPECT_EQ(res.best_fitness, res.tiers[2].fitness_after);
}

TEST(IncrementalGa, BalancedExtendTierOption) {
  const Mesh base = paper_mesh(78);
  const Mesh grown = paper_incremental_mesh(base, 78, 10);
  Rng rng(23);
  const auto prev = rsb_partition(base.graph, 2, rng);
  auto opt = small_incremental(2, 5);
  opt.greedy_extend = false;
  opt.refine_with_ga = false;
  const auto res = incremental_repartition(grown.graph, prev,
                                           growth(grown.graph, prev), opt, rng);
  ASSERT_EQ(res.tiers.size(), 2u);
  EXPECT_EQ(res.tiers[0].name, "balanced_extend");
  ASSERT_TRUE(is_valid_assignment(grown.graph, res.best, 2));
  // Balanced dealing keeps the extension balanced and repair keeps it so.
  EXPECT_LE(max_size_deviation(res.best, 2), 4);
}

TEST(IncrementalGa, ExplicitDeltaOverload) {
  // The same pure-growth delta with the same seeds and rng stream runs the
  // same pipeline.
  const Mesh base = paper_mesh(78);
  const Mesh grown = paper_incremental_mesh(base, 78, 10);
  Rng rng_a(31);
  Rng rng_b(31);
  const auto prev = rsb_partition(base.graph, 2, rng_a);
  rsb_partition(base.graph, 2, rng_b);  // keep streams aligned
  auto opt = small_incremental(2, 5);
  opt.refine_with_ga = false;

  const auto delta = appended_delta(grown.graph, 78);
  const auto res_a =
      incremental_repartition(grown.graph, prev, delta, opt, rng_a);
  const auto res_b = incremental_repartition(
      grown.graph, prev, growth(grown.graph, prev), opt, rng_b);
  EXPECT_EQ(res_a.best, res_b.best);
  EXPECT_EQ(res_a.damage, res_b.damage);

  // A delta that disagrees with |previous| is rejected.
  GraphDelta wrong;
  wrong.old_num_vertices = 50;
  EXPECT_THROW(incremental_repartition(grown.graph, prev, wrong, opt, rng_a),
               Error);
}

TEST(ContractedGa, PartitionsLargerMesh) {
  Rng rng(11);
  const Domain domain(DomainShape::kRectangle);
  const Mesh mesh = generate_mesh(domain, 600, rng);
  ContractedGaOptions opt;
  opt.dpga.num_islands = 4;
  opt.dpga.ga.num_parts = 4;
  opt.dpga.ga.population_size = 64;
  opt.dpga.ga.max_generations = 60;
  opt.coarse_vertices_per_part = 20;
  const auto res = contracted_ga_partition(mesh.graph, opt, rng);
  ASSERT_TRUE(is_valid_assignment(mesh.graph, res.assignment, 4));
  EXPECT_LT(res.coarse_vertices, 200);
  EXPECT_GE(res.levels, 1);
  const auto m = compute_metrics(mesh.graph, res.assignment, 4);
  // Sanity: a real partition, not shredded.
  EXPECT_LT(m.total_cut(), 0.25 * static_cast<double>(mesh.graph.num_edges()));
  EXPECT_LE(m.imbalance_sq, 64.0);
}

TEST(ContractedGa, SmallGraphSkipsCoarsening) {
  const Mesh mesh = paper_mesh(78);
  Rng rng(13);
  ContractedGaOptions opt;
  opt.dpga.num_islands = 2;
  opt.dpga.ga.num_parts = 2;
  opt.dpga.ga.population_size = 32;
  opt.dpga.ga.max_generations = 20;
  opt.coarse_vertices_per_part = 100;  // 2*100 > 78: no contraction
  const auto res = contracted_ga_partition(mesh.graph, opt, rng);
  EXPECT_EQ(res.levels, 0);
  EXPECT_EQ(res.coarse_vertices, 78);
  ASSERT_TRUE(is_valid_assignment(mesh.graph, res.assignment, 2));
}

}  // namespace
}  // namespace gapart
