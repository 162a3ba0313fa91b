#include "core/graph_delta.hpp"

#include <algorithm>

#include "common/assert.hpp"

namespace gapart {

GraphDelta diff_graphs(const Graph& old_graph, const Graph& grown) {
  const VertexId n_old = old_graph.num_vertices();
  GAPART_REQUIRE(n_old <= grown.num_vertices(),
                 "old graph larger than grown graph");
  GraphDelta delta;
  delta.old_num_vertices = n_old;
  for (VertexId v = 0; v < n_old; ++v) {
    const auto a = old_graph.neighbors(v);
    const auto b = grown.neighbors(v);
    const bool same_adj = std::equal(a.begin(), a.end(), b.begin(), b.end());
    const auto wa = old_graph.edge_weights(v);
    const auto wb = grown.edge_weights(v);
    const bool same_wgt =
        same_adj && std::equal(wa.begin(), wa.end(), wb.begin(), wb.end()) &&
        old_graph.vertex_weight(v) == grown.vertex_weight(v);
    if (!same_wgt) delta.touched_old.push_back(v);
  }
  return delta;
}

std::vector<VertexId> repair_seeds(const GraphDelta& delta,
                                   const Graph& grown) {
  const VertexId n = grown.num_vertices();
  GAPART_REQUIRE(delta.old_num_vertices >= 0 && delta.old_num_vertices <= n,
                 "delta old vertex count ", delta.old_num_vertices,
                 " out of range for |V| = ", n);
  std::vector<VertexId> seeds;
  const auto add_with_neighbors = [&](VertexId v) {
    seeds.push_back(v);
    for (const VertexId u : grown.neighbors(v)) seeds.push_back(u);
  };
  for (VertexId v = delta.old_num_vertices; v < n; ++v) {
    add_with_neighbors(v);
  }
  for (const VertexId v : delta.touched_old) {
    GAPART_REQUIRE(v >= 0 && v < delta.old_num_vertices, "touched vertex ", v,
                   " is not a surviving vertex");
    add_with_neighbors(v);
  }
  std::sort(seeds.begin(), seeds.end());
  seeds.erase(std::unique(seeds.begin(), seeds.end()), seeds.end());
  return seeds;
}

}  // namespace gapart
