#include "selftest.hpp"

#include <algorithm>
#include <cstdio>
#include <set>
#include <string>
#include <utility>

#include "graph/delta_codec.hpp"
#include "graph/generators.hpp"
#include "streams.hpp"

namespace e2ebench {
namespace {

using gapart::GraphDelta;

int g_failed = 0;

void check(bool ok, const std::string& what) {
  std::printf("%s %s\n", ok ? "ok  " : "FAIL", what.c_str());
  if (!ok) ++g_failed;
}

bool same_graph(const Graph& a, const Graph& b) {
  return a.xadj() == b.xadj() && a.adjncy() == b.adjncy() &&
         a.ewgt() == b.ewgt() && a.vwgt() == b.vwgt();
}

void check_barabasi_albert() {
  constexpr VertexId n = 5000;
  constexpr int m = 4;
  Rng r1(42);
  Rng r2(42);
  Rng r3(43);
  std::vector<VertexId> ends;
  const EdgeList a = barabasi_albert(n, m, r1, &ends);
  const EdgeList b = barabasi_albert(n, m, r2, nullptr);
  const EdgeList c = barabasi_albert(n, m, r3, nullptr);
  check(a.edges == b.edges, "BA: same seed gives the same edge list");
  check(a.edges != c.edges, "BA: another seed gives another edge list");

  std::set<std::pair<VertexId, VertexId>> seen;
  bool self_loop = false;
  bool duplicate = false;
  std::vector<std::int64_t> degree(static_cast<std::size_t>(n), 0);
  for (const auto& [u, v] : a.edges) {
    self_loop |= u == v;
    duplicate |= !seen.emplace(std::min(u, v), std::max(u, v)).second;
    ++degree[static_cast<std::size_t>(u)];
    ++degree[static_cast<std::size_t>(v)];
  }
  check(!self_loop, "BA: no self-loops");
  check(!duplicate, "BA: no duplicate edges");
  std::int64_t degree_sum = 0;
  for (const std::int64_t d : degree) degree_sum += d;
  const auto num_edges = static_cast<std::int64_t>(a.edges.size());
  check(degree_sum == 2 * num_edges, "BA: degree sum = 2|E|");
  check(static_cast<std::int64_t>(ends.size()) == 2 * num_edges,
        "BA: endpoint list has 2|E| entries");

  const Graph g = graph_from_edges(a);
  check(g.num_edges() == num_edges,
        "BA: Graph keeps every edge (nothing merged)");
  check(same_graph(g, graph_from_edges(b)), "BA: same seed gives the same Graph");
  std::int32_t max_degree = 0;
  for (VertexId v = 0; v < n; ++v) max_degree = std::max(max_degree, g.degree(v));
  check(max_degree > 10 * m, "BA: degree distribution is skewed (hubs exist)");
}

/// A change stream is exact when the adapter's grown graph, the codec's
/// reconstruction and diff_graphs all agree with it.
template <typename Next>
void check_stream(const std::string& name, Graph g, int steps, Next next) {
  bool exact = true;
  bool decodes = true;
  bool simple = true;
  for (int s = 0; s < steps; ++s) {
    const NativeDelta change = next(g);
    const ServiceInput in = to_service_input(g, change);
    const GraphDelta diff = gapart::diff_graphs(g, *in.grown);
    exact &= diff.touched_old == in.delta.touched_old &&
             in.delta.damage(*in.grown) == change.damage();
    decodes &= same_graph(
        gapart::decode_delta(g, gapart::encode_delta(*in.grown, in.delta)).grown,
        *in.grown);
    for (const NativeRow& row : change.rows) {
      const auto nbrs = in.grown->neighbors(row.v);
      simple &= std::equal(nbrs.begin(), nbrs.end(), row.nbrs.begin(),
                           row.nbrs.end());
    }
    g = Graph(*in.grown);
  }
  check(exact, name + ": every delta is exact (diff_graphs agrees)");
  check(decodes, name + ": decode_delta(encode_delta) rebuilds the graph");
  check(simple, name + ": rows match the built adjacency");
}

}  // namespace

int run_selftest() {
  g_failed = 0;
  check_barabasi_albert();

  {
    Rng rng(7);
    std::vector<VertexId> ends;
    const Graph g = graph_from_edges(barabasi_albert(2000, 4, rng, &ends));
    AttachmentStream stream(std::move(ends), 4, Rng(8));
    check_stream("attachment stream", g, 20,
                 [&](const Graph& cur) { return stream.next(cur, 50); });
  }
  {
    GridRowGrowth growth(40, 3);
    check_stream("grid row growth", gapart::make_grid(40, 40), 10,
                 [&](const Graph& cur) { return growth.next(cur); });
  }
  std::printf("selftest: %s\n", g_failed == 0 ? "PASS" : "FAIL");
  return g_failed == 0 ? 0 : 1;
}

}  // namespace e2ebench
