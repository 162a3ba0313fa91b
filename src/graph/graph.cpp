#include "graph/graph.hpp"

#include <algorithm>
#include <cmath>
#include <functional>
#include <numeric>
#include <sstream>
#include <utility>

#include "common/assert.hpp"

namespace gapart {

bool Graph::has_edge(VertexId u, VertexId v) const {
  const auto nbrs = neighbors(u);
  return std::binary_search(nbrs.begin(), nbrs.end(), v);
}

std::optional<double> Graph::edge_weight(VertexId u, VertexId v) const {
  const auto nbrs = neighbors(u);
  const auto it = std::lower_bound(nbrs.begin(), nbrs.end(), v);
  if (it == nbrs.end() || *it != v) return std::nullopt;
  const auto offset = static_cast<std::size_t>(it - nbrs.begin());
  return edge_weights(u)[offset];
}

double Graph::weighted_degree(VertexId v) const {
  const auto w = edge_weights(v);
  return std::accumulate(w.begin(), w.end(), 0.0);
}

std::string Graph::summary() const {
  std::ostringstream os;
  os << "|V|=" << num_vertices() << " |E|=" << num_edges();
  if (num_vertices() > 0) {
    std::int32_t dmin = degree(0);
    std::int32_t dmax = degree(0);
    for (VertexId v = 1; v < num_vertices(); ++v) {
      dmin = std::min(dmin, degree(v));
      dmax = std::max(dmax, degree(v));
    }
    os << " deg=[" << dmin << "," << dmax << "]";
  }
  os << (unit_weights_ ? " unit-weights" : " weighted");
  if (has_coordinates()) os << " with-coords";
  return os.str();
}

GraphBuilder::GraphBuilder(VertexId num_vertices)
    : num_vertices_(num_vertices) {
  GAPART_REQUIRE(num_vertices >= 0, "negative vertex count ", num_vertices);
}

void GraphBuilder::add_edge(VertexId u, VertexId v, double weight) {
  GAPART_REQUIRE(u >= 0 && u < num_vertices_, "edge endpoint ", u,
                 " out of range [0,", num_vertices_, ")");
  GAPART_REQUIRE(v >= 0 && v < num_vertices_, "edge endpoint ", v,
                 " out of range [0,", num_vertices_, ")");
  GAPART_REQUIRE(weight > 0.0, "edge weight must be positive, got ", weight);
  if (u == v) return;  // self-loops carry no cut information
  edges_.push_back({u, v, weight});
  if (weight != 1.0) nonunit_edge_weights_ = true;
}

void GraphBuilder::set_vertex_weight(VertexId v, double weight) {
  GAPART_REQUIRE(v >= 0 && v < num_vertices_, "vertex ", v, " out of range");
  GAPART_REQUIRE(weight > 0.0, "vertex weight must be positive, got ", weight);
  if (vwgt_.empty()) vwgt_.assign(static_cast<std::size_t>(num_vertices_), 1.0);
  double& slot = vwgt_[static_cast<std::size_t>(v)];
  nonunit_vertex_weights_ += (weight != 1.0) - (slot != 1.0);
  slot = weight;
}

void GraphBuilder::set_coordinate(VertexId v, Point2 p) {
  GAPART_REQUIRE(v >= 0 && v < num_vertices_, "vertex ", v, " out of range");
  if (coords_.empty()) coords_.resize(static_cast<std::size_t>(num_vertices_));
  coords_[static_cast<std::size_t>(v)] = p;
}

void GraphBuilder::set_coordinates(std::vector<Point2> coords) {
  GAPART_REQUIRE(static_cast<VertexId>(coords.size()) == num_vertices_,
                 "coordinate count ", coords.size(), " != vertex count ",
                 num_vertices_);
  coords_ = std::move(coords);
}

namespace {

// Rows up to this length that arrive out of order are insertion-sorted in
// place; longer ones are sorted by the walk in build().
constexpr std::size_t kInsertionSortMaxRow = 32;

}  // namespace

Graph GraphBuilder::build() {
  const auto n = static_cast<std::size_t>(num_vertices_);
  const std::size_t m2 = edges_.size() * 2;
  Graph g;
  auto& xadj = g.xadj_;
  auto& adj = g.adjncy_;
  auto& wgt = g.ewgt_;

  // CSR construction in one scatter, O(V + E).  A counting pass sizes every
  // row (duplicates included), then both directions of every edge are
  // scattered straight into the final arrays in insertion order.  The
  // generators, the Chaco reader and callers that list each row's edges
  // in ascending order produce strictly ascending rows here, and are done.
  xadj.assign(n + 1, 0);
  for (const auto& e : edges_) {
    ++xadj[static_cast<std::size_t>(e.u) + 1];
    ++xadj[static_cast<std::size_t>(e.v) + 1];
  }
  std::partial_sum(xadj.begin(), xadj.end(), xadj.begin());

  adj.resize(m2);
  wgt.resize(m2);
  std::vector<std::int32_t> cursor(xadj.begin(), xadj.end() - 1);
  bool ascending = true;
  const auto place = [&](VertexId row, VertexId nbr, double w) {
    const auto r = static_cast<std::size_t>(row);
    const auto c = static_cast<std::size_t>(cursor[r]++);
    if (c != static_cast<std::size_t>(xadj[r]) && adj[c - 1] >= nbr) {
      ascending = false;
    }
    adj[c] = nbr;
    wgt[c] = w;
  };
  for (const auto& e : edges_) {
    place(e.u, e.v, e.w);
    place(e.v, e.u, e.w);
  }

  // Otherwise fix up only the rows that are not strictly ascending.  Each
  // is sorted stably by neighbour, so duplicates keep their insertion
  // order, and the duplicates merge by summing left to right: the
  // summation order of a stable (row, neighbour) sort, so fractional
  // weights come out bit-identical to it.  Short rows are insertion-sorted
  // in place.  Long rows are sorted together by one walk over all rows in
  // ascending order into a side buffer: the graph is symmetric, so row x
  // lists u once per edge {u, x}, in insertion order, and appending x to
  // u's list for each such entry yields u's row stably sorted.  Rows shrink
  // by their merged duplicates and are compacted in place.
  bool merged = false;
  if (!ascending) {
    const auto row_sorted = [&](std::size_t begin, std::size_t end) {
      const auto first = adj.begin() + static_cast<std::ptrdiff_t>(begin);
      const auto last = adj.begin() + static_cast<std::ptrdiff_t>(end);
      return std::adjacent_find(first, last,
                                std::greater_equal<VertexId>()) == last;
    };
    // cursor[r]: for a long unsorted row, its next slot in the side buffer;
    // -1 for every other row.
    std::size_t side_size = 0;
    for (std::size_t r = 0; r < n; ++r) {
      const auto begin = static_cast<std::size_t>(xadj[r]);
      const auto end = static_cast<std::size_t>(xadj[r + 1]);
      if (end - begin > kInsertionSortMaxRow && !row_sorted(begin, end)) {
        cursor[r] = static_cast<std::int32_t>(side_size);
        side_size += end - begin;
      } else {
        cursor[r] = -1;
      }
    }
    std::vector<VertexId> side_adj(side_size);
    std::vector<double> side_wgt(side_size);
    if (side_size > 0) {
      for (std::size_t x = 0; x < n; ++x) {
        const auto end = static_cast<std::size_t>(xadj[x + 1]);
        for (auto i = static_cast<std::size_t>(xadj[x]); i < end; ++i) {
          auto& c = cursor[static_cast<std::size_t>(adj[i])];
          if (c < 0) continue;
          side_adj[static_cast<std::size_t>(c)] = static_cast<VertexId>(x);
          side_wgt[static_cast<std::size_t>(c)] = wgt[i];
          ++c;
        }
      }
    }

    // Writes the sorted run src[0, len) to [out, ...) with duplicates
    // summed; src may be the row itself (out never passes the read
    // position).  Returns the merged length.
    const auto merge_into = [&](const VertexId* src_adj, const double* src_wgt,
                                std::size_t len, std::size_t out) {
      std::size_t kept = 0;
      for (std::size_t i = 0; i < len; ++i) {
        if (kept > 0 && adj[out + kept - 1] == src_adj[i]) {
          wgt[out + kept - 1] += src_wgt[i];
        } else {
          adj[out + kept] = src_adj[i];
          wgt[out + kept] = src_wgt[i];
          ++kept;
        }
      }
      merged = merged || kept != len;
      return kept;
    };
    std::size_t out = 0;
    for (std::size_t r = 0; r < n; ++r) {
      const auto begin = static_cast<std::size_t>(xadj[r]);
      const auto end = static_cast<std::size_t>(xadj[r + 1]);
      const std::size_t len = end - begin;
      xadj[r] = static_cast<std::int32_t>(out);
      if (cursor[r] >= 0) {
        const auto src = static_cast<std::size_t>(cursor[r]) - len;
        out += merge_into(side_adj.data() + src, side_wgt.data() + src, len,
                          out);
      } else if (!row_sorted(begin, end)) {
        for (std::size_t i = begin + 1; i < end; ++i) {
          const VertexId a = adj[i];
          const double w = wgt[i];
          std::size_t j = i;
          for (; j > begin && adj[j - 1] > a; --j) {
            adj[j] = adj[j - 1];
            wgt[j] = wgt[j - 1];
          }
          adj[j] = a;
          wgt[j] = w;
        }
        out += merge_into(adj.data() + begin, wgt.data() + begin, len, out);
      } else {
        if (out != begin) {
          std::copy_n(adj.data() + begin, len, adj.data() + out);
          std::copy_n(wgt.data() + begin, len, wgt.data() + out);
        }
        out += len;
      }
    }
    xadj[n] = static_cast<std::int32_t>(out);
    adj.resize(out);
    wgt.resize(out);
  }

  // Copy (not move) so the builder stays usable: callers may add more edges
  // and build() again (e.g. connectivity stitching loops).
  if (vwgt_.empty()) {
    g.vwgt_.assign(n, 1.0);
  } else {
    g.vwgt_ = vwgt_;
  }
  // n unit weights sum to n exactly, in any order.
  g.total_vwgt_ = nonunit_vertex_weights_ == 0
                      ? static_cast<double>(n)
                      : std::accumulate(g.vwgt_.begin(), g.vwgt_.end(), 0.0);
  g.coords_ = coords_;

  // Unit inputs stay unit unless duplicates merged (a sum of two unit
  // weights is 2); non-unit inputs merged into unit sums are rare enough to
  // rescan for.
  bool unit_edges = !nonunit_edge_weights_ && !merged;
  if (nonunit_edge_weights_ && merged) {
    unit_edges = std::all_of(wgt.begin(), wgt.end(),
                             [](double w) { return w == 1.0; });
  }
  g.unit_weights_ = nonunit_vertex_weights_ == 0 && unit_edges;
  return g;
}

}  // namespace gapart
