// PartitionState::improving_candidates and the part-pair gain index behind
// it: after every move and rebind the candidates must cover every vertex
// best_move would move, and must equal what a freshly built state returns
// on the same (graph, assignment) — the purity recovery and replication
// rely on.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <deque>
#include <string>
#include <tuple>
#include <vector>

#include "common/assert.hpp"
#include "common/rng.hpp"
#include "core/graph_delta.hpp"
#include "graph/generators.hpp"
#include "graph/partition.hpp"
#include "test_util.hpp"

namespace gapart {
namespace {

enum class Kind { kGrid, kBa, kFractional };

using EdgeList = std::vector<std::tuple<VertexId, VertexId, double>>;

Graph build(VertexId n, const EdgeList& edges,
            const std::vector<double>& vertex_weights) {
  GraphBuilder b(n);
  for (const auto& [u, v, w] : edges) b.add_edge(u, v, w);
  for (std::size_t i = 0; i < vertex_weights.size(); ++i) {
    b.set_vertex_weight(static_cast<VertexId>(i), vertex_weights[i]);
  }
  return b.build();
}

/// A grown copy of `old_g`: `extra` new vertices wired into it, old rows
/// kept (so diff_graphs reports exactly the rewired survivors).  BA kinds
/// attach preferentially (fractional weights for kFractional); the grid
/// kind links each new vertex to a random survivor and its predecessor.
Graph grow(const Graph& old_g, VertexId extra, Kind kind, Rng& rng) {
  const VertexId n_old = old_g.num_vertices();
  EdgeList edges;
  std::vector<VertexId> ends;
  std::vector<double> vertex_weights(old_g.vwgt());
  for (VertexId u = 0; u < n_old; ++u) {
    const auto nbrs = old_g.neighbors(u);
    const auto wgts = old_g.edge_weights(u);
    for (std::size_t i = 0; i < nbrs.size(); ++i) {
      if (nbrs[i] > u) edges.emplace_back(u, nbrs[i], wgts[i]);
      ends.push_back(u);
    }
  }
  if (kind == Kind::kGrid) {
    for (VertexId v = n_old; v < n_old + extra; ++v) {
      edges.emplace_back(v, rng.uniform_int(n_old), 1.0);
      edges.emplace_back(v, v > n_old ? v - 1 : rng.uniform_int(n_old), 1.0);
      vertex_weights.push_back(1.0);
    }
  } else {
    const auto added = testing::attach_preferential(
        edges, ends, n_old, n_old + extra, 3, rng, kind == Kind::kFractional);
    vertex_weights.insert(vertex_weights.end(), added.begin(), added.end());
    vertex_weights.resize(static_cast<std::size_t>(n_old + extra), 1.0);
  }
  return build(n_old + extra, edges, vertex_weights);
}

Graph base_graph(Kind kind, Rng& rng) {
  if (kind == Kind::kGrid) return make_grid(12, 12);
  const bool fractional = kind == Kind::kFractional;
  EdgeList edges;
  std::vector<VertexId> ends;
  for (VertexId u = 0; u < 4; ++u) {
    for (VertexId v = u + 1; v < 4; ++v) {
      edges.emplace_back(u, v, fractional ? 0.5 + rng.uniform() : 1.0);
      ends.push_back(u);
      ends.push_back(v);
    }
  }
  std::vector<double> vertex_weights(4, 1.0);
  const auto added =
      testing::attach_preferential(edges, ends, 4, 160, 3, rng, fractional);
  vertex_weights.insert(vertex_weights.end(), added.begin(), added.end());
  vertex_weights.resize(160, 1.0);
  return build(160, edges, vertex_weights);
}

std::vector<VertexId> brute_improving(const PartitionState& s,
                                      const FitnessParams& params,
                                      double min_gain) {
  std::vector<VertexId> out;
  for (VertexId v = 0; v < s.graph().num_vertices(); ++v) {
    if (s.best_move(v, params, min_gain).to >= 0) out.push_back(v);
  }
  return out;
}

void expect_candidates_sound(PartitionState& s, const FitnessParams& params,
                             const std::string& where) {
  const double min_gain = 1e-9;
  const std::vector<VertexId> got = s.improving_candidates(params, min_gain);
  ASSERT_TRUE(std::is_sorted(got.begin(), got.end())) << where;
  const std::vector<VertexId> improving = brute_improving(s, params, min_gain);
  for (const VertexId v : improving) {
    EXPECT_TRUE(std::binary_search(got.begin(), got.end(), v))
        << where << ": improving vertex " << v << " missing";
  }
  // Unit weights and an integral lambda: exact keys, no ties, so the
  // candidates are exactly the improving set.
  if (s.graph().unit_weights() && params.lambda == std::floor(params.lambda)) {
    EXPECT_EQ(got, improving) << where;
  }
  for (const VertexId v : got) {
    EXPECT_TRUE(s.is_boundary(v)) << where << ": interior candidate " << v;
  }
  PartitionState fresh(s.graph(), s.assignment(), s.num_parts());
  EXPECT_EQ(fresh.improving_candidates(params, min_gain), got) << where;

  // The snapshot behind them: sorted by (vertex, pair), the same entries a
  // fresh build finds, and every entry still passes while nothing moved.
  const auto snap = s.candidate_snapshot(params, min_gain);
  const auto fresh_snap = fresh.candidate_snapshot(params, min_gain);
  ASSERT_EQ(snap.size(), fresh_snap.size()) << where;
  std::vector<VertexId> vertices;
  for (std::size_t i = 0; i < snap.size(); ++i) {
    EXPECT_EQ(snap[i].v, fresh_snap[i].v) << where;
    EXPECT_EQ(snap[i].pair, fresh_snap[i].pair) << where;
    EXPECT_EQ(snap[i].key, fresh_snap[i].key) << where;
    EXPECT_TRUE(s.may_still_improve(snap[i], params, min_gain)) << where;
    if (vertices.empty() || vertices.back() != snap[i].v) {
      vertices.push_back(snap[i].v);
    }
  }
  EXPECT_EQ(vertices, got) << where;
}

struct FuzzCase {
  Kind kind;
  PartId k;
  double lambda;
};

class GainIndexFuzz : public ::testing::TestWithParam<int> {};

TEST_P(GainIndexFuzz, CandidatesCoverImprovingSetAndMatchFreshBuild) {
  const FuzzCase cases[] = {
      {Kind::kGrid, 4, 1.0},       {Kind::kBa, 8, 1.0},
      {Kind::kFractional, 5, 1.0}, {Kind::kGrid, 3, 0.37},
      {Kind::kBa, 2, 3.0},         {Kind::kFractional, 8, 2.5},
  };
  const FuzzCase c = cases[GetParam() % 6];
  Rng rng(0x6a1d + static_cast<std::uint64_t>(GetParam()) * 7919);
  FitnessParams params;
  params.lambda = c.lambda;

  // A deque: the state points into it, so snapshots must not move.
  std::deque<Graph> graphs;
  graphs.push_back(base_graph(c.kind, rng));
  Assignment a(static_cast<std::size_t>(graphs.back().num_vertices()));
  for (auto& p : a) p = static_cast<PartId>(rng.uniform_int(c.k));
  PartitionState state(graphs.back(), a, c.k);
  expect_candidates_sound(state, params, "initial");

  for (int step = 0; step < 30; ++step) {
    const std::string where = "step " + std::to_string(step);
    if (step % 5 == 4) {
      const Graph& old_g = graphs.back();
      const auto extra = static_cast<VertexId>(rng.uniform_int(1, 12));
      graphs.push_back(grow(old_g, extra, c.kind, rng));
      const GraphDelta delta = diff_graphs(old_g, graphs.back());
      Assignment new_parts(static_cast<std::size_t>(extra));
      for (auto& p : new_parts) p = static_cast<PartId>(rng.uniform_int(c.k));
      state.rebind_grown(graphs.back(), delta.touched_old, new_parts);
    } else {
      // Random moves, then improving ones (the moves verification makes).
      for (int m = 0; m < 6; ++m) {
        const auto v = static_cast<VertexId>(
            rng.uniform_int(state.graph().num_vertices()));
        state.move(v, static_cast<PartId>(rng.uniform_int(c.k)));
      }
      for (const VertexId v : state.improving_candidates(params, 1e-9)) {
        const BestMove best = state.best_move(v, params, 1e-9);
        if (best.to >= 0) state.move(v, best.to);
      }
    }
    expect_candidates_sound(state, params, where);
  }
}

INSTANTIATE_TEST_SUITE_P(Fuzz, GainIndexFuzz, ::testing::Range(0, 12));

TEST(GainIndex, EmptyCandidatesMeanLocalOptimum) {
  const Graph g = make_grid(16, 16);
  Rng rng(0x10ca1);
  Assignment a(256);
  for (auto& p : a) p = static_cast<PartId>(rng.uniform_int(4));
  PartitionState state(g, a, 4);
  const FitnessParams params;
  for (int guard = 0; guard < 10000; ++guard) {
    const auto candidates = state.improving_candidates(params, 1e-9);
    if (candidates.empty()) break;
    for (const VertexId v : candidates) {
      const BestMove best = state.best_move(v, params, 1e-9);
      if (best.to >= 0) state.move(v, best.to);
    }
  }
  EXPECT_TRUE(state.improving_candidates(params, 1e-9).empty());
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    EXPECT_LT(state.best_move(v, params, 1e-9).to, 0) << "vertex " << v;
  }
}

TEST(GainIndex, SnapshotRecheckFollowsMovesAndPartWeights) {
  // A 2-part path 0-1-2-3-4-5 split 0 | 1..5: part 1 is far heavier, so
  // every boundary vertex of part 1 that touches part 0 is a candidate.
  GraphBuilder b(6);
  for (VertexId v = 0; v + 1 < 6; ++v) b.add_edge(v, v + 1);
  const Graph g = b.build();
  PartitionState state(g, Assignment{0, 1, 1, 1, 1, 1}, 2);
  const FitnessParams params;
  const auto snap = state.candidate_snapshot(params, 1e-9);
  ASSERT_EQ(snap.size(), 1u);
  EXPECT_EQ(snap[0].v, 1);
  // Moving vertex 1 re-keys it: its snapshot entry can no longer be ruled
  // out from the snapshot alone.
  state.move(1, 0);
  EXPECT_TRUE(state.may_still_improve(snap[0], params, 1e-9));
  // Vertex 2 is now a candidate (W: 2 vs 4); once part 0 is the heavier
  // one, its entry stops passing without vertex 2 being re-keyed.
  const auto next = state.candidate_snapshot(params, 1e-9);
  ASSERT_EQ(next.size(), 1u);
  EXPECT_EQ(next[0].v, 2);
  state.move(5, 0);  // far from 2: W becomes 3 vs 3
  EXPECT_FALSE(state.may_still_improve(next[0], params, 1e-9));
  EXPECT_TRUE(state.improving_candidates(params, 1e-9).empty());
}

TEST(GainIndex, CopiesStartWithoutAnIndexAndAgree) {
  const Graph g = make_grid(10, 10);
  Rng rng(0xc0b1);
  Assignment a(100);
  for (auto& p : a) p = static_cast<PartId>(rng.uniform_int(3));
  PartitionState state(g, a, 3);
  const FitnessParams params;
  const auto before = state.improving_candidates(params, 1e-9);
  PartitionState copy = state;
  EXPECT_EQ(copy.improving_candidates(params, 1e-9), before);
  // The copy's upkeep is its own: moving it leaves the original alone.
  for (int m = 0; m < 20; ++m) {
    copy.move(static_cast<VertexId>(rng.uniform_int(100)),
              static_cast<PartId>(rng.uniform_int(3)));
  }
  EXPECT_EQ(state.improving_candidates(params, 1e-9), before);
  PartitionState fresh(g, copy.assignment(), 3);
  EXPECT_EQ(copy.improving_candidates(params, 1e-9),
            fresh.improving_candidates(params, 1e-9));
}

TEST(GainIndex, RejectsWorstCommAndNegativeMinGain) {
  const Graph g = make_grid(4, 4);
  PartitionState state(g, Assignment(16, 0), 2);
  FitnessParams worst;
  worst.objective = Objective::kWorstComm;
  EXPECT_THROW(state.improving_candidates(worst, 1e-9), Error);
  EXPECT_THROW(state.improving_candidates({}, -1.0), Error);
}

}  // namespace
}  // namespace gapart
