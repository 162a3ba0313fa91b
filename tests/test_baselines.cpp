#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <numeric>
#include <string>
#include <utility>
#include <vector>

#include "baselines/greedy_incremental.hpp"
#include "baselines/kl.hpp"
#include "baselines/rcb.hpp"
#include "baselines/rgb.hpp"
#include "common/rng.hpp"
#include "graph/generators.hpp"
#include "graph/mesh.hpp"
#include "graph/partition.hpp"
#include "graph/subgraph.hpp"
#include "test_util.hpp"

namespace gapart {
namespace {

using testing::all_parts_used;
using testing::max_size_deviation;

TEST(Rcb, GridQuadrants) {
  const Graph g = make_grid(8, 8);
  Rng rng(3);
  const auto a = rcb_partition(g, 4, rng);
  ASSERT_TRUE(is_valid_assignment(g, a, 4));
  const auto m = compute_metrics(g, a, 4);
  EXPECT_DOUBLE_EQ(m.imbalance_sq, 0.0);
  // Coordinate bisection of a square grid into 4 = two straight cuts.
  EXPECT_LE(m.total_cut(), 16.0);
}

TEST(Rcb, BalancedOnPaperMeshes) {
  for (VertexId n : {78, 144, 243}) {
    const Mesh mesh = paper_mesh(n);
    Rng rng(5);
    for (PartId k : {2, 4, 8}) {
      const auto a = rcb_partition(mesh.graph, k, rng);
      ASSERT_TRUE(is_valid_assignment(mesh.graph, a, k));
      EXPECT_TRUE(all_parts_used(a, k)) << n << "/" << k;
      EXPECT_LE(max_size_deviation(a, k), 2) << n << "/" << k;
    }
  }
}

TEST(Rcb, RequiresCoordinates) {
  const Graph g = make_complete(6);
  Rng rng(7);
  EXPECT_THROW(rcb_partition(g, 2, rng), Error);
}

TEST(Rcb, SplitsWidestAxis) {
  // 2x20 strip: the x axis is widest, so a bisection should cut the strip
  // crosswise (2 edges), not lengthwise (20 edges).
  const Graph g = make_grid(2, 20);
  Rng rng(9);
  const auto a = rcb_partition(g, 2, rng);
  EXPECT_LE(compute_metrics(g, a, 2).total_cut(), 2.0);
}

TEST(Rgb, PathOptimal) {
  const Graph g = make_path(30);
  Rng rng(11);
  const auto a = rgb_partition(g, 2, rng);
  const auto m = compute_metrics(g, a, 2);
  EXPECT_DOUBLE_EQ(m.total_cut(), 1.0);
  EXPECT_DOUBLE_EQ(m.imbalance_sq, 0.0);
}

TEST(Rgb, NeedsNoCoordinates) {
  const Graph g = make_clique_chain(4, 6);
  Rng rng(13);
  const auto a = rgb_partition(g, 4, rng);
  ASSERT_TRUE(is_valid_assignment(g, a, 4));
  const auto m = compute_metrics(g, a, 4);
  // BFS levelization should cut near the 3 clique joints.
  EXPECT_LE(m.total_cut(), 6.0);
  EXPECT_DOUBLE_EQ(m.imbalance_sq, 0.0);
}

TEST(Rgb, BalancedOnPaperMeshes) {
  const Mesh mesh = paper_mesh(183);
  Rng rng(17);
  for (PartId k : {2, 4, 8}) {
    const auto a = rgb_partition(mesh.graph, k, rng);
    ASSERT_TRUE(is_valid_assignment(mesh.graph, a, k));
    EXPECT_LE(max_size_deviation(a, k), 2);
  }
}

TEST(Kl, ImprovesBadBisection) {
  const Graph g = make_grid(8, 8);
  // Interleaved columns: terrible cut, perfectly balanced.
  Assignment a(64);
  for (VertexId v = 0; v < 64; ++v) {
    a[static_cast<std::size_t>(v)] = static_cast<PartId>((v % 8) % 2);
  }
  PartitionState state(g, a, 2);
  const double before = state.fitness({Objective::kTotalComm, 1.0});
  const auto res = kl_refine(state);
  const double after = state.fitness({Objective::kTotalComm, 1.0});
  EXPECT_GT(res.moves_applied, 0);
  EXPECT_GT(after, before);
  EXPECT_NEAR(after - before, res.fitness_gain, 1e-9);
  // Interleaving cuts 56 edges; KL should at least halve that.
  EXPECT_LE(state.total_cut(), 28.0);
}

TEST(Kl, NeverWorsens) {
  Rng rng(19);
  const Mesh mesh = paper_mesh(98);
  for (int trial = 0; trial < 5; ++trial) {
    Assignment a(static_cast<std::size_t>(mesh.graph.num_vertices()));
    for (auto& p : a) p = static_cast<PartId>(rng.uniform_int(4));
    for (Objective obj : {Objective::kTotalComm, Objective::kWorstComm}) {
      PartitionState state(mesh.graph, a, 4);
      KlOptions opt;
      opt.fitness = {obj, 1.0};
      const double before = state.fitness(opt.fitness);
      kl_refine(state, opt);
      EXPECT_GE(state.fitness(opt.fitness), before - 1e-9);
    }
  }
}

TEST(Kl, FixedPointOnOptimalSolution) {
  const Graph g = make_two_cliques(6);
  Assignment a(12, 0);
  for (std::size_t i = 6; i < 12; ++i) a[i] = 1;
  PartitionState state(g, a, 2);
  const auto res = kl_refine(state);
  EXPECT_EQ(res.moves_applied, 0);
  EXPECT_DOUBLE_EQ(state.total_cut(), 1.0);
}

TEST(Kl, EscapesLocalOptimumViaNegativeMoves) {
  // Two cliques with the WRONG bisection (half of each clique on each
  // side): strictly-improving hill climbing cannot fix a clique split
  // without passing through worse states; KL's trial sequence can.
  const Graph g = make_two_cliques(4);
  const Assignment a = {0, 0, 1, 1, 0, 0, 1, 1};
  PartitionState state(g, a, 2);
  kl_refine(state);
  EXPECT_LE(state.total_cut(), 1.0);
}

TEST(Kl, MovesCapRespected) {
  const Graph g = make_grid(6, 6);
  Assignment a(36);
  for (VertexId v = 0; v < 36; ++v) {
    a[static_cast<std::size_t>(v)] = static_cast<PartId>(v % 2);
  }
  PartitionState state(g, a, 2);
  KlOptions opt;
  opt.max_passes = 1;
  opt.max_moves_per_pass = 3;
  const auto res = kl_refine(state, opt);
  EXPECT_LE(res.moves_applied, 3);
}

TEST(GreedyIncremental, MajorityRule) {
  // Path 0-1-2-3 partitioned {0,0,1,1}; new vertex 4 adjacent to 2 and 3
  // must join part 1.
  GraphBuilder b(5);
  b.add_edge(0, 1);
  b.add_edge(1, 2);
  b.add_edge(2, 3);
  b.add_edge(2, 4);
  b.add_edge(3, 4);
  const Graph g = b.build();
  const auto out = greedy_incremental_assign(g, {0, 0, 1, 1}, 2);
  EXPECT_EQ(out[4], 1);
  // Old vertices untouched.
  EXPECT_EQ(out[0], 0);
  EXPECT_EQ(out[3], 1);
}

TEST(GreedyIncremental, TieBrokenByLighterPart) {
  // New vertex with one neighbour in each part joins the lighter part.
  GraphBuilder b(6);
  b.add_edge(0, 5);
  b.add_edge(3, 5);
  const Graph g = b.build();
  // Parts: {0,1,2} in part 0 (weight 3), {3,4} in part 1 (weight 2).
  const auto out = greedy_incremental_assign(g, {0, 0, 0, 1, 1}, 2);
  EXPECT_EQ(out[5], 1);
}

TEST(GreedyIncremental, IsolatedNewVertexGoesToLightestPart) {
  GraphBuilder b(4);
  b.add_edge(0, 1);
  const Graph g = b.build();
  const auto out = greedy_incremental_assign(g, {0, 0, 1}, 2);
  EXPECT_EQ(out[3], 1);
}

TEST(GreedyIncremental, ChainOfNewVerticesPropagates) {
  // New vertices 3-4-5 hang off vertex 2 (part 1) as a path; the
  // most-constrained-first order assigns them all to part 1 (modulo the
  // balance tie-break on the last).
  GraphBuilder b(6);
  b.add_edge(0, 1);
  b.add_edge(1, 2);
  b.add_edge(2, 3);
  b.add_edge(3, 4);
  b.add_edge(4, 5);
  const Graph g = b.build();
  const auto out = greedy_incremental_assign(g, {0, 0, 1}, 2);
  EXPECT_EQ(out[3], 1);
  EXPECT_EQ(out[4], 1);
}

TEST(GreedyIncremental, ValidatesInputs) {
  const Graph g = make_path(3);
  EXPECT_THROW(greedy_incremental_assign(g, {0, 0, 0, 0}, 2), Error);
  EXPECT_THROW(greedy_incremental_assign(g, {0, 7}, 2), Error);
}

/// Reference most-constrained-first extension, kept verbatim from the
/// pre-optimization implementation: order-preserving erase() keeps `pending`
/// ascending, so "first max in scan order" is the lowest-id max-count
/// vertex.  The production code's lazy bucket queue (min-id heap per count)
/// must pick the same vertex every round — golden-tested here.
Assignment reference_greedy_incremental(const Graph& grown,
                                        const Assignment& previous,
                                        PartId num_parts) {
  const VertexId n = grown.num_vertices();
  const auto n_old = static_cast<VertexId>(previous.size());
  Assignment out(static_cast<std::size_t>(n), -1);
  std::copy(previous.begin(), previous.end(), out.begin());
  std::vector<double> part_weight(static_cast<std::size_t>(num_parts), 0.0);
  for (VertexId v = 0; v < n_old; ++v) {
    part_weight[static_cast<std::size_t>(out[static_cast<std::size_t>(v)])] +=
        grown.vertex_weight(v);
  }
  std::vector<VertexId> pending;
  for (VertexId v = n_old; v < n; ++v) pending.push_back(v);
  while (!pending.empty()) {
    std::size_t pick = 0;
    std::int32_t pick_count = -1;
    for (std::size_t i = 0; i < pending.size(); ++i) {
      std::int32_t c = 0;
      for (VertexId u : grown.neighbors(pending[i])) {
        c += out[static_cast<std::size_t>(u)] >= 0;
      }
      if (c > pick_count) {
        pick_count = c;
        pick = i;
      }
    }
    const VertexId v = pending[pick];
    pending.erase(pending.begin() + static_cast<std::ptrdiff_t>(pick));
    std::vector<double> votes(static_cast<std::size_t>(num_parts), 0.0);
    const auto nbrs = grown.neighbors(v);
    const auto wgts = grown.edge_weights(v);
    for (std::size_t i = 0; i < nbrs.size(); ++i) {
      const PartId p = out[static_cast<std::size_t>(nbrs[i])];
      if (p >= 0) votes[static_cast<std::size_t>(p)] += wgts[i];
    }
    PartId choice = 0;
    for (PartId q = 1; q < num_parts; ++q) {
      const auto uq = static_cast<std::size_t>(q);
      const auto uc = static_cast<std::size_t>(choice);
      if (votes[uq] > votes[uc] ||
          (votes[uq] == votes[uc] && part_weight[uq] < part_weight[uc])) {
        choice = q;
      }
    }
    out[static_cast<std::size_t>(v)] = choice;
    part_weight[static_cast<std::size_t>(choice)] += grown.vertex_weight(v);
  }
  return out;
}

/// Hub-heavy growth (the skew_100k pattern): a preferential-attachment base
/// of `n_old` vertices, then `n_new` vertices that attach mostly to each
/// other and to the five oldest vertices, the base's hubs.
Graph hub_growth_graph(VertexId n_old, VertexId n_new, Rng& rng) {
  GraphBuilder b(n_old + n_new);
  std::vector<VertexId> endpoints{0};  // degree-proportional sampling
  for (VertexId v = 1; v < n_old; ++v) {
    for (int e = 0; e < 3; ++e) {
      const VertexId u = endpoints[static_cast<std::size_t>(
          rng.uniform_int(static_cast<int>(endpoints.size())))];
      b.add_edge(u, v);
      endpoints.push_back(u);
      endpoints.push_back(v);
    }
  }
  for (VertexId v = n_old; v < n_old + n_new; ++v) {
    for (int e = 0; e < 2 && v > n_old; ++e) {
      if (rng.bernoulli(0.8)) b.add_edge(v, rng.uniform_int(n_old, v - 1));
    }
    if (rng.bernoulli(0.6)) b.add_edge(v, rng.uniform_int(5));
  }
  return b.build();
}

TEST(GreedyIncremental, BucketQueuePickMatchesReferenceGolden) {
  // Both tier-1 callers against the reference: greedy_incremental_assign,
  // and the kernel fed a live PartitionState of the surviving prefix — the
  // assignment and part weights PartitionSession::apply_update passes.
  const auto expect_matches = [](const Graph& grown, const Assignment& prev,
                                 PartId k, const std::string& label) {
    const Assignment expected = reference_greedy_incremental(grown, prev, k);
    EXPECT_EQ(greedy_incremental_assign(grown, prev, k), expected) << label;
    std::vector<VertexId> prefix(prev.size());
    std::iota(prefix.begin(), prefix.end(), 0);
    const Graph old_graph = induced_subgraph(grown, prefix).graph;
    const PartitionState live(old_graph, prev, k);
    const std::vector<PartId> new_parts = greedy_incremental_extend(
        grown, live.assignment(), live.part_weights());
    EXPECT_TRUE(std::equal(
        new_parts.begin(), new_parts.end(),
        expected.begin() + static_cast<std::ptrdiff_t>(prev.size()),
        expected.end()))
        << label << " (session path)";
  };

  // Paper incremental workloads, several part counts.
  for (const auto& [base_n, extra] :
       {std::pair<VertexId, VertexId>{118, 41}, {183, 60}, {78, 10}}) {
    const Mesh base = paper_mesh(base_n);
    const Mesh grown = paper_incremental_mesh(base, base_n, extra);
    for (const PartId k : {2, 4, 8}) {
      Rng rng(static_cast<std::uint64_t>(base_n) * 31 +
              static_cast<std::uint64_t>(k));
      const auto prev = rgb_partition(base.graph, k, rng);
      expect_matches(grown.graph, prev, k,
                     "base=" + std::to_string(base_n) + "+" +
                         std::to_string(extra) + " k=" + std::to_string(k));
    }
  }
  // Fuzzed random weighted graphs with many tied most-constrained counts.
  for (std::uint64_t seed = 0; seed < 6; ++seed) {
    Rng rng(seed + 1000);
    const VertexId n = 60;
    const VertexId n_old = 30;
    GraphBuilder b(n);
    for (VertexId v = 0; v < n; ++v) {
      b.set_vertex_weight(v, 1.0 + rng.uniform_int(3));
    }
    for (VertexId u = 0; u < n; ++u) {
      for (VertexId v = u + 1; v < n; ++v) {
        if (rng.bernoulli(0.08)) b.add_edge(u, v, 1.0 + rng.uniform_int(4));
      }
    }
    const Graph g = b.build();
    Assignment prev(static_cast<std::size_t>(n_old));
    for (auto& p : prev) p = static_cast<PartId>(rng.uniform_int(3));
    expect_matches(g, prev, 3, "fuzz seed " + std::to_string(seed));
  }
  // Hub-heavy growth: new vertices attach to each other and to hubs.
  for (std::uint64_t seed = 0; seed < 4; ++seed) {
    Rng rng(seed + 2000);
    const VertexId n_old = 400;
    const Graph g = hub_growth_graph(n_old, 120, rng);
    const PartId k = 16;
    Assignment prev(static_cast<std::size_t>(n_old));
    for (auto& p : prev) p = static_cast<PartId>(rng.uniform_int(k));
    expect_matches(g, prev, k, "hub growth seed " + std::to_string(seed));
  }
  // A large surviving graph with a small new range: one appended grid row.
  {
    const VertexId side = 200;
    const Graph g = make_grid(side + 1, side);
    const PartId k = 8;
    Rng rng(3000);
    Assignment prev(static_cast<std::size_t>(side * side));
    for (std::size_t v = 0; v < prev.size(); ++v) {
      prev[v] = rng.bernoulli(0.05)
                    ? static_cast<PartId>(rng.uniform_int(k))
                    : static_cast<PartId>(v * static_cast<std::size_t>(k) /
                                          prev.size());
    }
    expect_matches(g, prev, k, "grid row");
  }
  // Integer vertex weights with fractional edge weights: vote sums that
  // round, so a kernel summing in a different order would show.
  for (std::uint64_t seed = 0; seed < 6; ++seed) {
    Rng rng(seed + 4000);
    const VertexId n = 80;
    const VertexId n_old = 40;
    GraphBuilder b(n);
    for (VertexId v = 0; v < n; ++v) {
      b.set_vertex_weight(v, 1.0 + rng.uniform_int(5));
    }
    for (VertexId u = 0; u < n; ++u) {
      for (VertexId v = u + 1; v < n; ++v) {
        if (rng.bernoulli(0.1)) {
          b.add_edge(u, v, 0.1 * (1 + rng.uniform_int(30)));
        }
      }
    }
    const Graph g = b.build();
    Assignment prev(static_cast<std::size_t>(n_old));
    for (auto& p : prev) p = static_cast<PartId>(rng.uniform_int(4));
    expect_matches(g, prev, 4, "fractional seed " + std::to_string(seed));
  }
}

TEST(GreedyIncremental, LocalizedGrowthUnbalancesGreedy) {
  // The paper's conclusion argues the deterministic majority rule is a weak
  // incremental partitioner: when growth is localized, all new vertices pile
  // onto the part(s) owning that region.  Document exactly that: the greedy
  // result is valid and preserves old assignments, but its imbalance is far
  // worse than balanced dealing achieves (deviation <= 1).
  const Mesh base = paper_mesh(118);
  const Mesh grown = paper_incremental_mesh(base, 118, 41);
  Rng rng(23);
  const auto prev = rgb_partition(base.graph, 8, rng);
  const auto out = greedy_incremental_assign(grown.graph, prev, 8);
  ASSERT_TRUE(is_valid_assignment(grown.graph, out, 8));
  for (std::size_t v = 0; v < prev.size(); ++v) {
    ASSERT_EQ(out[v], prev[v]) << "old vertex " << v << " reassigned";
  }
  EXPECT_GE(max_size_deviation(out, 8), 4);  // the strawman's weakness
}

}  // namespace
}  // namespace gapart
