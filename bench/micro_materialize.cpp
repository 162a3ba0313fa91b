// Graph materialisation microbench: the three O(V+E) steps a replicated
// update pays for besides repair, emitted as JSON for BENCH_materialize.json.
//
//   build:    GraphBuilder::build() alone (edges already added) on four
//             inputs over ~n vertices, n = 10^4, 10^5, 10^6:
//               ordered       grid edges, every row arriving ascending
//               shuffled      the same edges in random order and orientation
//               coarsening    the edges of a 2n-vertex grid contracted onto
//                             matched pairs, in fine-edge order: short rows
//                             arrive out of order and full of parallel edges
//               coarsening_ba what graph/coarsen hands the builder for one
//                             matching level of a 2n-vertex Barabasi-Albert
//                             graph: hub rows hundreds of entries long
//   decode:   decode_delta() of one record against its predecessor:
//               grid_row   one appended row of a 1000 x 1000 grid (the
//                          grow_1m stream)
//               ba_100     100 preferentially attached vertices on a
//                          10^5-vertex Barabasi-Albert graph, m = 4
//   snapshot: the Chaco text of a 1000 x 1000 grid and its partition, as a
//             WAL compaction or a replication bootstrap produces it.
//
// Each row reports the median, quartiles and minimum wall time over `reps`
// runs (7, or 3 under --quick).
// --quick (CI smoke runs) drops the 10^6 build size and shrinks the decode
// and snapshot inputs about 10x.
//
//   ./bench/micro_materialize [--quick] > materialize.json
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <string>
#include <utility>
#include <vector>

#include "bench_common.hpp"
#include "common/cli.hpp"
#include "common/rng.hpp"
#include "core/graph_delta.hpp"
#include "graph/coarsen.hpp"
#include "graph/delta_codec.hpp"
#include "graph/graph.hpp"
#include "graph/io.hpp"

namespace {

using namespace gapart;

using EdgeList = std::vector<std::pair<VertexId, VertexId>>;

/// Writes one row: the build, decode or snapshot of an input with `n`
/// vertices and `edges` edges, timed over `reps` runs.
void write_row(JsonWriter& json, const char* section, const std::string& input,
               VertexId n, std::int64_t edges, const Summary& seconds) {
  json.begin_object()
      .field("section", section)
      .field("input", input)
      .field("n", n)
      .field("edges", edges)
      .field("ms_p50", seconds.median * 1e3)
      .field("ms_min", seconds.min * 1e3);
  bench::write_rep_stats(json, seconds);
  json.end_object();
}

/// rows x cols grid, edges listed by lower endpoint then neighbour.
EdgeList grid_edges(VertexId rows, VertexId cols) {
  EdgeList edges;
  for (VertexId v = 0; v < rows * cols; ++v) {
    if ((v + 1) % cols != 0) edges.emplace_back(v, v + 1);
    if (v + cols < rows * cols) edges.emplace_back(v, v + cols);
  }
  return edges;
}

Graph build_from(VertexId n, const EdgeList& edges) {
  GraphBuilder b(n);
  for (const auto& [u, v] : edges) b.add_edge(u, v);
  return b.build();
}

/// Barabasi-Albert edges on n vertices: an (m+1)-clique, then every new
/// vertex links to m distinct endpoints drawn from the degree-weighted
/// endpoint list.
EdgeList barabasi_albert(VertexId n, int m, Rng& rng) {
  EdgeList edges;
  std::vector<VertexId> ends;
  for (VertexId u = 0; u <= m; ++u) {
    for (VertexId v = u + 1; v <= m; ++v) {
      edges.emplace_back(u, v);
      ends.push_back(u);
      ends.push_back(v);
    }
  }
  for (VertexId v = m + 1; v < n; ++v) {
    std::vector<VertexId> targets;
    while (static_cast<int>(targets.size()) < m) {
      const VertexId t = ends[static_cast<std::size_t>(
          rng.uniform_int(static_cast<int>(ends.size())))];
      bool seen = false;
      for (const VertexId x : targets) seen = seen || x == t;
      if (!seen) targets.push_back(t);
    }
    for (const VertexId t : targets) {
      edges.emplace_back(v, t);
      ends.push_back(v);
      ends.push_back(t);
    }
  }
  return edges;
}

void bench_build(JsonWriter& json, const std::string& input, GraphBuilder& b,
                 int reps) {
  std::int64_t built_edges = 0;
  const Summary seconds = bench::repeat(
      0.0, reps, [&] { built_edges = b.build().num_edges(); });
  write_row(json, "build", input, b.num_vertices(), built_edges, seconds);
}

void bench_build(JsonWriter& json, const std::string& input, VertexId n,
                 const EdgeList& edges, int reps) {
  GraphBuilder b(n);
  for (const auto& [u, v] : edges) b.add_edge(u, v);
  bench_build(json, input, b, reps);
}

/// The builder input contract_clusters (graph/coarsen) produces for one
/// heavy-edge matching level of `fine`.
GraphBuilder coarsening_input(const Graph& fine, Rng& rng) {
  const CoarseLevel level = coarsen_once(fine, rng);
  const auto& label = level.fine_to_coarse;
  GraphBuilder b(level.graph.num_vertices());
  for (VertexId c = 0; c < level.graph.num_vertices(); ++c) {
    b.set_vertex_weight(c, level.graph.vertex_weight(c));
  }
  for (VertexId v = 0; v < fine.num_vertices(); ++v) {
    const VertexId cv = label[static_cast<std::size_t>(v)];
    const auto nbrs = fine.neighbors(v);
    const auto wgts = fine.edge_weights(v);
    for (std::size_t i = 0; i < nbrs.size(); ++i) {
      const VertexId cu = label[static_cast<std::size_t>(nbrs[i])];
      if (v < nbrs[i] && cv != cu) b.add_edge(cv, cu, wgts[i]);
    }
  }
  return b;
}

void run_build(JsonWriter& json, const std::vector<VertexId>& sizes,
               int reps) {
  Rng rng(0x3a7e);
  for (const VertexId target : sizes) {
    VertexId side = 1;
    while (side * side < target) ++side;
    const VertexId n = side * side;
    EdgeList ordered = grid_edges(side, side);
    EdgeList shuffled = ordered;
    rng.shuffle(shuffled);
    for (auto& e : shuffled) {
      if (rng.bernoulli(0.5)) std::swap(e.first, e.second);
    }
    // 2n-vertex grid (side x 2*side) whose horizontal pairs (2c, 2c+1)
    // contract onto coarse vertex r*side + c.
    EdgeList coarse;
    for (const auto& [u, v] : grid_edges(side, 2 * side)) {
      const VertexId cu = u / 2;
      const VertexId cv = v / 2;
      if (cu != cv) coarse.emplace_back(cu, cv);
    }
    bench_build(json, "ordered", n, ordered, reps);
    bench_build(json, "shuffled", n, shuffled, reps);
    bench_build(json, "coarsening", n, coarse, reps);
    const Graph ba = build_from(2 * n, barabasi_albert(2 * n, 4, rng));
    GraphBuilder ba_level = coarsening_input(ba, rng);
    bench_build(json, "coarsening_ba", ba_level, reps);
  }
}

void bench_decode(JsonWriter& json, const std::string& input,
                  const Graph& prev, const Graph& grown, int reps) {
  const std::string record = encode_delta(grown, diff_graphs(prev, grown));
  const Summary seconds = bench::repeat(0.0, reps, [&] {
    const DecodedDelta d = decode_delta(prev, record);
    if (d.grown.num_edges() != grown.num_edges()) std::abort();
  });
  write_row(json, "decode", input, grown.num_vertices(), grown.num_edges(),
            seconds);
}

void run_decode(JsonWriter& json, VertexId side, VertexId ba_n, int reps) {
  {
    const EdgeList edges = grid_edges(side + 1, side);
    EdgeList old_edges;
    for (const auto& e : edges) {
      if (e.second < side * side) old_edges.push_back(e);
    }
    const Graph prev = build_from(side * side, old_edges);
    const Graph grown = build_from((side + 1) * side, edges);
    bench_decode(json, "grid_row", prev, grown, reps);
  }
  {
    Rng rng(0xba100);
    const EdgeList edges = barabasi_albert(ba_n + 100, 4, rng);
    EdgeList old_edges;
    for (const auto& e : edges) {
      if (e.first < ba_n && e.second < ba_n) old_edges.push_back(e);
    }
    const Graph prev = build_from(ba_n, old_edges);
    const Graph grown = build_from(ba_n + 100, edges);
    bench_decode(json, "ba_100", prev, grown, reps);
  }
}

void run_snapshot(JsonWriter& json, VertexId side, int reps) {
  const Graph g = build_from(side * side, grid_edges(side, side));
  Assignment a(static_cast<std::size_t>(g.num_vertices()));
  for (std::size_t v = 0; v < a.size(); ++v) {
    a[v] = static_cast<PartId>(v % static_cast<std::size_t>(side) * 8 /
                               static_cast<std::size_t>(side));
  }
  std::size_t bytes = 0;
  const Summary seconds = bench::repeat(0.0, reps, [&] {
    bytes = format_graph(g).size() + format_partition(a).size();
  });
  if (bytes == 0) std::abort();
  write_row(json, "snapshot", "grid_chaco_text", g.num_vertices(),
            g.num_edges(), seconds);
}

}  // namespace

int main(int argc, char** argv) {
  CliArgs args(argc, argv);
  const bool quick = args.flag("quick") || quick_mode_enabled();
  const int reps = quick ? 3 : 7;
  const std::vector<VertexId> sizes =
      quick ? std::vector<VertexId>{10'000, 100'000}
            : std::vector<VertexId>{10'000, 100'000, 1'000'000};

  JsonWriter json(std::cout);
  json.begin_object()
      .field("bench", "micro_materialize")
      .field("quick", quick)
      .key("rows")
      .begin_array();
  run_build(json, sizes, reps);
  run_decode(json, quick ? 300 : 1000, quick ? 10'000 : 100'000, reps);
  run_snapshot(json, quick ? 300 : 1000, reps);
  json.end_array().end_object();
  std::cout << '\n';
  for (const auto& unused : args.unused()) {
    std::fprintf(stderr, "warning: unused flag --%s\n", unused.c_str());
  }
  return 0;
}
