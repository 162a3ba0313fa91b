#include <gtest/gtest.h>

#include <algorithm>
#include <memory>

#include "baselines/greedy_incremental.hpp"
#include "common/rng.hpp"
#include "core/contracted_ga.hpp"
#include "core/dpga.hpp"
#include "core/init.hpp"
#include "core/presets.hpp"
#include "graph/generators.hpp"
#include "graph/mesh.hpp"
#include "service/session.hpp"
#include "spectral/rsb.hpp"
#include "test_util.hpp"

namespace gapart {
namespace {

using testing::max_size_deviation;

DpgaConfig small_incremental(PartId k, int gens) {
  DpgaConfig cfg = paper_dpga_config(k, Objective::kTotalComm);
  cfg.num_islands = 4;
  cfg.ga.population_size = 64;
  cfg.ga.max_generations = gens;
  return cfg;
}

TEST(IncrementalGa, RepartitionsGrownMesh) {
  // §3.5 end to end: the DPGA over balanced extensions of the previous
  // partition returns a valid, balanced partition of the grown mesh.
  const Mesh base = paper_mesh(118);
  const Mesh grown = paper_incremental_mesh(base, 118, 21);
  Rng rng(3);
  const auto prev = rsb_partition(base.graph, 4, rng);
  const DpgaConfig cfg = small_incremental(4, 60);
  auto initial = make_incremental_population(
      grown.graph, prev, 4, cfg.ga.population_size, 0.05, rng);
  const DpgaResult res =
      run_dpga(grown.graph, cfg, std::move(initial), rng.split());
  ASSERT_TRUE(is_valid_assignment(grown.graph, res.best, 4));
  EXPECT_LE(max_size_deviation(res.best, 4), 3);
  EXPECT_GT(res.generations, 0);
  EXPECT_NEAR(res.best_fitness,
              evaluate_fitness(grown.graph, res.best, 4, cfg.ga.fitness),
              1e-9);
}

TEST(IncrementalGa, BeatsGreedyDeterministicAssignment) {
  // The paper's conclusion: "The incremental partitioning results obtained
  // using DKNUX could not be obtained by a simple deterministic algorithm
  // that assigns new nodes to the part to which most of its nearest
  // neighbors belong."  Run on the paper's own path: the DPGA over a
  // population of balanced extensions of the previous partition (§3.5), as
  // the incremental table drivers do.
  const Mesh base = paper_mesh(183);
  const Mesh grown = paper_incremental_mesh(base, 183, 60);
  Rng rng(5);
  const auto prev = rsb_partition(base.graph, 8, rng);

  const auto greedy = greedy_incremental_assign(grown.graph, prev, 8);
  const FitnessParams params{Objective::kTotalComm, 1.0};
  const double greedy_fitness =
      evaluate_fitness(grown.graph, greedy, 8, params);

  const DpgaConfig cfg = small_incremental(8, 120);
  auto initial = make_incremental_population(
      grown.graph, prev, 8, cfg.ga.population_size, 0.08, rng);
  const DpgaResult res =
      run_dpga(grown.graph, cfg, std::move(initial), rng.split());
  ASSERT_TRUE(is_valid_assignment(grown.graph, res.best, 8));
  EXPECT_GT(res.best_fitness, greedy_fitness);
}

TEST(IncrementalGa, SeedNeverLost) {
  // The first chromosome of the incremental population is the unperturbed
  // balanced extension of the previous partition; with elitism the DPGA's
  // best can only match or beat it.
  const Mesh base = paper_mesh(78);
  const Mesh grown = paper_incremental_mesh(base, 78, 10);
  Rng rng(7);
  const auto prev = rsb_partition(base.graph, 4, rng);
  const DpgaConfig cfg = small_incremental(4, 30);
  auto initial = make_incremental_population(
      grown.graph, prev, 4, cfg.ga.population_size, 0.05, rng);
  double seed_fitness = evaluate_fitness(grown.graph, initial.front(), 4,
                                         cfg.ga.fitness);
  for (const auto& a : initial) {
    seed_fitness = std::max(
        seed_fitness, evaluate_fitness(grown.graph, a, 4, cfg.ga.fitness));
  }
  const DpgaResult res =
      run_dpga(grown.graph, cfg, std::move(initial), rng.split());
  EXPECT_GE(res.best_fitness, seed_fitness);
}

TEST(IncrementalGa, ValidatesPreviousSize) {
  // A previous partition larger than the grown graph is rejected by the
  // population builder and by the session.
  const Mesh base = paper_mesh(78);
  Rng rng(9);
  const Assignment too_big(200, 0);
  EXPECT_THROW(make_incremental_population(base.graph, too_big, 2, 8, 0.05,
                                           rng),
               Error);
  SessionConfig cfg;
  cfg.num_parts = 2;
  EXPECT_THROW(PartitionSession(std::make_shared<const Graph>(base.graph),
                                too_big, cfg),
               Error);
}

TEST(IncrementalGa, ValidatesPreviousPartIds) {
  // Regression: the GA path used to accept out-of-range part ids and index
  // the part-weight arrays out of bounds.  Ids past k and negative ids are
  // both rejected, by the population builder and by the session.
  const Mesh base = paper_mesh(78);
  const Mesh grown = paper_incremental_mesh(base, 78, 10);
  Rng rng(11);
  SessionConfig cfg;
  cfg.num_parts = 4;
  const auto g = std::make_shared<const Graph>(base.graph);
  Assignment bad(static_cast<std::size_t>(base.graph.num_vertices()), 0);
  for (const PartId p : {PartId{7}, PartId{-1}}) {
    bad[5] = p;
    EXPECT_THROW(
        make_incremental_population(grown.graph, bad, 4, 8, 0.05, rng), Error)
        << "part " << p;
    EXPECT_THROW(PartitionSession(g, bad, cfg), Error) << "part " << p;
  }
}

TEST(IncrementalInit, MakeIncrementalPopulationValidatesPartIds) {
  // Out-of-range part ids in the previous partition are rejected up front,
  // the same way the greedy baseline rejects them.
  const Mesh base = paper_mesh(78);
  const Mesh grown = paper_incremental_mesh(base, 78, 10);
  Rng rng(13);
  Assignment bad(static_cast<std::size_t>(base.graph.num_vertices()), 0);
  bad[0] = 4;
  EXPECT_THROW(make_incremental_population(grown.graph, bad, 4, 8, 0.05, rng),
               Error);
  EXPECT_THROW(incremental_seed_assignment(grown.graph, bad, 4, rng), Error);
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
