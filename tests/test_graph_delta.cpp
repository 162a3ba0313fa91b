#include "core/graph_delta.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "common/assert.hpp"
#include "graph/generators.hpp"
#include "graph/mesh.hpp"

namespace gapart {
namespace {

TEST(GraphDelta, DiffGraphsOnGrownGrid) {
  // Growing a row-major grid by rows appends vertices; exactly the last old
  // row becomes adjacent to the new range.
  const Graph old_g = make_grid(5, 5);  // rows 0..4
  const Graph grown = make_grid(6, 5);  // rows 0..5
  const GraphDelta delta = diff_graphs(old_g, grown);
  EXPECT_EQ(delta.old_num_vertices, 25);
  EXPECT_EQ(delta.num_new(grown), 5);
  ASSERT_EQ(delta.touched_old.size(), 5u);  // row 4
  for (std::size_t i = 0; i < 5; ++i) {
    EXPECT_EQ(delta.touched_old[i], static_cast<VertexId>(20 + i));
  }
  EXPECT_EQ(delta.damage(grown), 10);
}

TEST(GraphDelta, DiffGraphsSeesRewiredSurvivors) {
  // Same vertex count, one edge rewired: both endpoints of the removed and
  // of the added edge are touched.
  GraphBuilder b1(6);
  b1.add_edge(0, 1);
  b1.add_edge(1, 2);
  b1.add_edge(3, 4);
  const Graph g1 = b1.build();
  GraphBuilder b2(6);
  b2.add_edge(0, 1);
  b2.add_edge(1, 2);
  b2.add_edge(4, 5);  // 3-4 removed, 4-5 added
  const Graph g2 = b2.build();
  const GraphDelta d = diff_graphs(g1, g2);
  EXPECT_EQ(d.old_num_vertices, 6);
  EXPECT_EQ(d.touched_old, (std::vector<VertexId>{3, 4, 5}));
}

TEST(GraphDelta, DiffGraphsSeesWeightChanges) {
  GraphBuilder b1(3);
  b1.add_edge(0, 1, 1.0);
  b1.add_edge(1, 2, 1.0);
  const Graph g1 = b1.build();
  GraphBuilder b2(3);
  b2.add_edge(0, 1, 1.0);
  b2.add_edge(1, 2, 2.5);  // weight perturbed, adjacency identical
  const Graph g2 = b2.build();
  const GraphDelta d = diff_graphs(g1, g2);
  EXPECT_EQ(d.touched_old, (std::vector<VertexId>{1, 2}));

  GraphBuilder b3(3);
  b3.add_edge(0, 1, 1.0);
  b3.add_edge(1, 2, 1.0);
  b3.set_vertex_weight(0, 3.0);  // vertex weight perturbed, edges identical
  const Graph g3 = b3.build();
  const GraphDelta dv = diff_graphs(g1, g3);
  EXPECT_EQ(dv.touched_old, (std::vector<VertexId>{0}));
}

TEST(GraphDelta, DiffGraphsOnRetriangulatedMesh) {
  // densify_mesh re-triangulates: the exact diff must at least cover the
  // old vertices adjacent to new ones and stay far below |V| for localized
  // growth.
  const Mesh base = paper_mesh(183);
  const Mesh grown = paper_incremental_mesh(base, 183, 30);
  const GraphDelta exact = diff_graphs(base.graph, grown.graph);
  EXPECT_EQ(exact.num_new(grown.graph), 30);
  for (VertexId v = 0; v < 183; ++v) {
    const auto nbrs = grown.graph.neighbors(v);
    if (nbrs.empty() || nbrs.back() < 183) continue;  // sorted ascending
    EXPECT_TRUE(std::binary_search(exact.touched_old.begin(),
                                   exact.touched_old.end(), v))
        << "vertex " << v << " adjacent to new range but not in exact diff";
  }
  EXPECT_LT(exact.damage(grown.graph), grown.graph.num_vertices() / 2);
}

TEST(GraphDelta, RepairSeedsCoverDamageAndOneHop) {
  const Graph grown = make_grid(6, 5);
  const GraphDelta delta = diff_graphs(make_grid(5, 5), grown);
  const auto seeds = repair_seeds(delta, grown);
  EXPECT_TRUE(std::is_sorted(seeds.begin(), seeds.end()));
  EXPECT_EQ(std::adjacent_find(seeds.begin(), seeds.end()), seeds.end());
  // Every new vertex, every touched survivor, and row 3 (one hop from the
  // touched row 4) are present; rows 0..2 are not.
  for (VertexId v = 15; v < 30; ++v) {
    EXPECT_TRUE(std::binary_search(seeds.begin(), seeds.end(), v)) << v;
  }
  for (VertexId v = 0; v < 15; ++v) {
    EXPECT_FALSE(std::binary_search(seeds.begin(), seeds.end(), v)) << v;
  }
}

TEST(GraphDelta, Validation) {
  const Graph g = make_grid(3, 3);
  GraphDelta bad;
  bad.old_num_vertices = 20;
  EXPECT_THROW(repair_seeds(bad, g), Error);
  GraphDelta bad_touched;
  bad_touched.old_num_vertices = 4;
  bad_touched.touched_old = {7};  // not a survivor
  EXPECT_THROW(repair_seeds(bad_touched, g), Error);
  const Graph big = make_grid(4, 4);
  EXPECT_THROW(diff_graphs(big, g), Error);
}

}  // namespace
}  // namespace gapart
