#include "streams.hpp"

#include <algorithm>
#include <iterator>
#include <map>

#include "common/assert.hpp"

namespace e2ebench {

using gapart::GraphBuilder;

ServiceInput to_service_input(const Graph& current, const NativeDelta& change) {
  const VertexId n_old = current.num_vertices();
  const VertexId n_new = change.new_num_vertices;
  GAPART_REQUIRE(change.old_num_vertices == n_old,
                 "change made against ", change.old_num_vertices,
                 " vertices, graph has ", n_old);
  GAPART_REQUIRE(n_new >= n_old, "graphs only grow");

  std::vector<char> in_row(static_cast<std::size_t>(n_new), 0);
  for (const NativeRow& row : change.rows) {
    in_row[static_cast<std::size_t>(row.v)] = 1;
  }
  // Every undirected edge is added once: untouched-untouched edges from the
  // current graph (lower endpoint), every other edge from the rows (an edge
  // between two rows from the lower one's row).
  GraphBuilder b(n_new);
  for (VertexId u = 0; u < n_old; ++u) {
    if (in_row[static_cast<std::size_t>(u)]) continue;
    const auto nbrs = current.neighbors(u);
    const auto wgts = current.edge_weights(u);
    for (std::size_t i = 0; i < nbrs.size(); ++i) {
      const VertexId w = nbrs[i];
      if (w > u && !in_row[static_cast<std::size_t>(w)]) {
        b.add_edge(u, w, wgts[i]);
      }
    }
  }
  for (const NativeRow& row : change.rows) {
    for (const VertexId w : row.nbrs) {
      if (w > row.v || !in_row[static_cast<std::size_t>(w)]) {
        b.add_edge(row.v, w);
      }
    }
  }

  ServiceInput out;
  out.grown = std::make_shared<const Graph>(b.build());
  out.delta.old_num_vertices = n_old;
  for (const NativeRow& row : change.rows) {
    if (row.v < n_old) out.delta.touched_old.push_back(row.v);
  }
  return out;
}

NativeDelta GridRowGrowth::next(const Graph& current) {
  const VertexId n_old = current.num_vertices();
  GAPART_REQUIRE(n_old >= cols_ && n_old % cols_ == 0,
                 "grid growth needs whole rows of ", cols_);
  const VertexId above = n_old - cols_;  // first vertex of the old last row
  NativeDelta d;
  d.old_num_vertices = n_old;
  d.new_num_vertices = n_old + cols_;
  d.rows.resize(static_cast<std::size_t>(2 * cols_));
  for (VertexId c = 0; c < cols_; ++c) {
    NativeRow& up = d.rows[static_cast<std::size_t>(c)];
    const auto nbrs = current.neighbors(above + c);
    up.v = above + c;
    up.nbrs.assign(nbrs.begin(), nbrs.end());
    d.rows[static_cast<std::size_t>(cols_ + c)].v = n_old + c;
  }
  // New neighbours are appended in ascending order: every new id exceeds
  // every old one, and columns are visited left to right.
  const auto link = [&](VertexId old_col, VertexId new_col) {
    d.rows[static_cast<std::size_t>(old_col)].nbrs.push_back(n_old + new_col);
    d.rows[static_cast<std::size_t>(cols_ + new_col)].nbrs.push_back(above +
                                                                     old_col);
  };
  for (VertexId c = 0; c < cols_; ++c) {
    if (c > 0 && rng_.bernoulli(0.1)) link(c, c - 1);  // diagonal up-right
    link(c, c);
  }
  for (VertexId c = 0; c < cols_; ++c) {
    NativeRow& row = d.rows[static_cast<std::size_t>(cols_ + c)];
    if (c > 0) row.nbrs.push_back(n_old + c - 1);
    if (c + 1 < cols_) row.nbrs.push_back(n_old + c + 1);
    std::sort(row.nbrs.begin(), row.nbrs.end());
  }
  return d;
}

namespace {

/// m distinct endpoints drawn uniformly from `endpoints` (degree-weighted).
std::vector<VertexId> draw_targets(const std::vector<VertexId>& endpoints,
                                   int m, Rng& rng) {
  std::vector<VertexId> targets;
  targets.reserve(static_cast<std::size_t>(m));
  while (static_cast<int>(targets.size()) < m) {
    const VertexId t = endpoints[static_cast<std::size_t>(
        rng.uniform_int(static_cast<int>(endpoints.size())))];
    if (std::find(targets.begin(), targets.end(), t) == targets.end()) {
      targets.push_back(t);
    }
  }
  return targets;
}

}  // namespace

EdgeList barabasi_albert(VertexId n, int m, Rng& rng,
                         std::vector<VertexId>* endpoints) {
  GAPART_REQUIRE(m >= 1 && n > m, "BA needs n > m >= 1");
  EdgeList out;
  out.num_vertices = n;
  out.edges.reserve(static_cast<std::size_t>(n) * static_cast<std::size_t>(m));
  std::vector<VertexId> ends;
  ends.reserve(2 * out.edges.capacity());
  for (VertexId u = 0; u <= m; ++u) {
    for (VertexId v = u + 1; v <= m; ++v) {
      out.edges.emplace_back(u, v);
      ends.push_back(u);
      ends.push_back(v);
    }
  }
  for (VertexId v = m + 1; v < n; ++v) {
    for (const VertexId t : draw_targets(ends, m, rng)) {
      out.edges.emplace_back(v, t);
      ends.push_back(v);
      ends.push_back(t);
    }
  }
  if (endpoints != nullptr) *endpoints = std::move(ends);
  return out;
}

Graph graph_from_edges(const EdgeList& list) {
  GraphBuilder b(list.num_vertices);
  for (const auto& [u, v] : list.edges) b.add_edge(u, v);
  return b.build();
}

NativeDelta AttachmentStream::next(const Graph& current, int count) {
  const VertexId n_old = current.num_vertices();
  std::map<VertexId, std::vector<VertexId>> added;
  for (int i = 0; i < count; ++i) {
    const VertexId v = n_old + i;
    // Targets come from the endpoint list as it stands, so a vertex may
    // attach to one appended earlier in the same change.
    for (const VertexId t : draw_targets(endpoints_, m_, rng_)) {
      added[v].push_back(t);
      added[t].push_back(v);
      endpoints_.push_back(v);
      endpoints_.push_back(t);
    }
  }

  NativeDelta d;
  d.old_num_vertices = n_old;
  d.new_num_vertices = n_old + count;
  d.rows.reserve(added.size());
  for (auto& [v, adds] : added) {
    std::sort(adds.begin(), adds.end());
    NativeRow row;
    row.v = v;
    if (v < n_old) {
      const auto nbrs = current.neighbors(v);
      std::merge(nbrs.begin(), nbrs.end(), adds.begin(), adds.end(),
                 std::back_inserter(row.nbrs));
    } else {
      row.nbrs = std::move(adds);
    }
    d.rows.push_back(std::move(row));
  }
  return d;
}

}  // namespace e2ebench
