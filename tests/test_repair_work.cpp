// Deterministic work counters of the synchronous repair path, gated the way
// a wall-clock bench cannot be: RepairReport::examined counts gain-kernel
// probes, so it reads the same on any host.  Verification that rescans the
// boundary makes it grow with the graph; a repair that follows the damage
// keeps it flat across graph sizes.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "common/rng.hpp"
#include "core/graph_delta.hpp"
#include "graph/generators.hpp"
#include "graph/partition.hpp"
#include "service/session.hpp"
#include "test_util.hpp"

namespace gapart {
namespace {

using EdgeList = std::vector<std::tuple<VertexId, VertexId, double>>;

std::shared_ptr<const Graph> build(VertexId n, const EdgeList& edges) {
  GraphBuilder b(n);
  for (const auto& [u, v, w] : edges) b.add_edge(u, v, w);
  return std::make_shared<const Graph>(b.build());
}

/// Mean RepairReport::examined per update over updates [warmup, updates) of
/// a Barabási–Albert session (m = 4, k = 8) on n vertices, grown by batches
/// of `batch` preferentially attached vertices with verification on.
double steady_examined(VertexId n, int updates, int warmup, int batch) {
  const PartId k = 8;
  const int m = 4;
  Rng rng(0x9a7e);  // the same graph recipe and batches at every size
  EdgeList edges;
  std::vector<VertexId> ends;
  auto g = std::make_shared<const Graph>(
      testing::barabasi_albert_graph(n, m, rng, edges, ends));
  // A start built the same way at every size: parts dealt round-robin.
  Assignment start(static_cast<std::size_t>(n));
  for (VertexId v = 0; v < n; ++v) {
    start[static_cast<std::size_t>(v)] = static_cast<PartId>(v % k);
  }
  SessionConfig cfg;
  cfg.num_parts = k;
  cfg.repair_budget_seconds = 1e9;  // verification always admitted
  PartitionSession session(g, std::move(start), cfg);

  double examined = 0.0;
  for (int u = 0; u < updates; ++u) {
    const VertexId n_old = g->num_vertices();
    testing::attach_preferential(edges, ends, n_old, n_old + batch, m, rng);
    auto grown = build(n_old + batch, edges);
    const RepairReport rep = session.apply_update(grown, diff_graphs(*g, *grown));
    EXPECT_GE(rep.verify_rounds, 1);
    if (u >= warmup) examined += static_cast<double>(rep.examined);
    g = std::move(grown);
  }
  return examined / (updates - warmup);
}

TEST(RepairWorkGate, VerificationProbesFollowDamageNotGraphSize) {
  const double small = steady_examined(2000, 24, 4, 20);
  const double large = steady_examined(20000, 24, 4, 20);
  RecordProperty("examined_small", std::to_string(small));
  RecordProperty("examined_large", std::to_string(large));
  // A full-boundary rescan would make the 10x larger graph cost ~10x.
  EXPECT_LE(large, 3.0 * small) << "examined/update: 2k " << small
                                << ", 20k " << large;
  EXPECT_LE(small, 3.0 * large) << "examined/update: 2k " << small
                                << ", 20k " << large;
}

TEST(RepairWorkGate, WorstCommSessionVerifiesOverTheFullBoundary) {
  // The max-cut objective has no part-pair index: its verification is the
  // full-boundary frontier round, which probes every boundary vertex and
  // ends, below its cap, at a certified local optimum.
  const PartId k = 4;
  auto g = std::make_shared<const Graph>(make_grid(16, 16));
  Rng rng(0x3c0);
  Assignment scrambled(256);
  for (auto& p : scrambled) p = static_cast<PartId>(rng.uniform_int(k));
  SessionConfig cfg;
  cfg.num_parts = k;
  cfg.fitness.objective = Objective::kWorstComm;
  cfg.repair_budget_seconds = 10.0;
  cfg.repair_max_verify_rounds = 50;
  PartitionSession session(g, scrambled, cfg);

  auto grown = std::make_shared<const Graph>(make_grid(17, 16));
  const RepairReport rep = session.apply_update(grown, diff_graphs(*g, *grown));
  EXPECT_GE(rep.verify_rounds, 1);
  EXPECT_LT(rep.verify_rounds, 50);

  const auto snap = session.snapshot();
  PartitionState check(*snap->graph, snap->assignment, k);
  // The certifying round probed the whole final boundary.
  EXPECT_GE(rep.examined, static_cast<std::int64_t>(check.boundary_size()));
  for (const VertexId v : check.boundary_vertices()) {
    EXPECT_LT(check.best_move(v, cfg.fitness, 1e-9).to, 0) << "vertex " << v;
  }
}

}  // namespace
}  // namespace gapart
