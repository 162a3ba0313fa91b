#include "graph/graph.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <utility>
#include <vector>

#include "common/assert.hpp"
#include "common/rng.hpp"

namespace gapart {
namespace {

TEST(GraphBuilder, EmptyGraph) {
  GraphBuilder b(0);
  const Graph g = b.build();
  EXPECT_EQ(g.num_vertices(), 0);
  EXPECT_EQ(g.num_edges(), 0);
  EXPECT_EQ(g.total_vertex_weight(), 0.0);
}

TEST(GraphBuilder, SingleEdgeSymmetric) {
  GraphBuilder b(2);
  b.add_edge(0, 1);
  const Graph g = b.build();
  EXPECT_EQ(g.num_edges(), 1);
  ASSERT_EQ(g.degree(0), 1);
  ASSERT_EQ(g.degree(1), 1);
  EXPECT_EQ(g.neighbors(0)[0], 1);
  EXPECT_EQ(g.neighbors(1)[0], 0);
}

TEST(GraphBuilder, AdjacencySortedAscending) {
  GraphBuilder b(5);
  b.add_edge(0, 4);
  b.add_edge(0, 2);
  b.add_edge(0, 3);
  b.add_edge(0, 1);
  const Graph g = b.build();
  const auto nbrs = g.neighbors(0);
  EXPECT_TRUE(std::is_sorted(nbrs.begin(), nbrs.end()));
  EXPECT_EQ(nbrs.size(), 4u);
}

TEST(GraphBuilder, DuplicateEdgesMergeWeights) {
  GraphBuilder b(2);
  b.add_edge(0, 1, 1.5);
  b.add_edge(1, 0, 2.5);
  const Graph g = b.build();
  EXPECT_EQ(g.num_edges(), 1);
  EXPECT_DOUBLE_EQ(g.edge_weight(0, 1).value(), 4.0);
  EXPECT_DOUBLE_EQ(g.edge_weight(1, 0).value(), 4.0);
}

TEST(GraphBuilder, SelfLoopsIgnored) {
  GraphBuilder b(3);
  b.add_edge(1, 1);
  b.add_edge(0, 2);
  const Graph g = b.build();
  EXPECT_EQ(g.num_edges(), 1);
  EXPECT_EQ(g.degree(1), 0);
}

TEST(GraphBuilder, OutOfRangeRejected) {
  GraphBuilder b(3);
  EXPECT_THROW(b.add_edge(0, 3), Error);
  EXPECT_THROW(b.add_edge(-1, 1), Error);
  EXPECT_THROW(b.set_vertex_weight(5, 1.0), Error);
}

TEST(GraphBuilder, NonPositiveWeightsRejected) {
  GraphBuilder b(2);
  EXPECT_THROW(b.add_edge(0, 1, 0.0), Error);
  EXPECT_THROW(b.add_edge(0, 1, -1.0), Error);
  EXPECT_THROW(b.set_vertex_weight(0, 0.0), Error);
}

TEST(GraphBuilder, VertexWeightsDefaultToUnit) {
  GraphBuilder b(4);
  const Graph g = b.build();
  EXPECT_TRUE(g.unit_weights());
  EXPECT_DOUBLE_EQ(g.total_vertex_weight(), 4.0);
  for (VertexId v = 0; v < 4; ++v) {
    EXPECT_DOUBLE_EQ(g.vertex_weight(v), 1.0);
  }
}

TEST(GraphBuilder, WeightedGraphDetected) {
  GraphBuilder b(2);
  b.add_edge(0, 1);
  b.set_vertex_weight(0, 3.0);
  const Graph g = b.build();
  EXPECT_FALSE(g.unit_weights());
  EXPECT_DOUBLE_EQ(g.total_vertex_weight(), 4.0);
}

TEST(GraphBuilder, ReusableAfterBuild) {
  GraphBuilder b(3);
  b.add_edge(0, 1);
  const Graph g1 = b.build();
  b.add_edge(1, 2);
  const Graph g2 = b.build();
  EXPECT_EQ(g1.num_edges(), 1);
  EXPECT_EQ(g2.num_edges(), 2);
  EXPECT_DOUBLE_EQ(g2.total_vertex_weight(), 3.0);
}

TEST(Graph, HasEdgeAndWeightLookup) {
  GraphBuilder b(4);
  b.add_edge(0, 1, 2.0);
  b.add_edge(1, 2);
  const Graph g = b.build();
  EXPECT_TRUE(g.has_edge(0, 1));
  EXPECT_TRUE(g.has_edge(2, 1));
  EXPECT_FALSE(g.has_edge(0, 2));
  EXPECT_FALSE(g.has_edge(0, 3));
  EXPECT_DOUBLE_EQ(g.edge_weight(0, 1).value(), 2.0);
  EXPECT_FALSE(g.edge_weight(0, 2).has_value());
}

TEST(Graph, WeightedDegree) {
  GraphBuilder b(3);
  b.add_edge(0, 1, 2.0);
  b.add_edge(0, 2, 0.5);
  const Graph g = b.build();
  EXPECT_DOUBLE_EQ(g.weighted_degree(0), 2.5);
  EXPECT_DOUBLE_EQ(g.weighted_degree(1), 2.0);
}

TEST(Graph, CoordinatesRoundTrip) {
  GraphBuilder b(2);
  b.add_edge(0, 1);
  b.set_coordinate(0, {1.0, 2.0});
  b.set_coordinate(1, {-3.0, 4.5});
  const Graph g = b.build();
  ASSERT_TRUE(g.has_coordinates());
  EXPECT_EQ(g.coordinate(0), (Point2{1.0, 2.0}));
  EXPECT_EQ(g.coordinate(1), (Point2{-3.0, 4.5}));
}

TEST(Graph, SetCoordinatesBulkSizeChecked) {
  GraphBuilder b(3);
  EXPECT_THROW(b.set_coordinates({{0, 0}, {1, 1}}), Error);
}

TEST(Graph, NoCoordinatesByDefault) {
  GraphBuilder b(3);
  b.add_edge(0, 1);
  EXPECT_FALSE(b.build().has_coordinates());
}

TEST(Graph, EdgeWeightsParallelToNeighbors) {
  GraphBuilder b(3);
  b.add_edge(1, 0, 10.0);
  b.add_edge(1, 2, 20.0);
  const Graph g = b.build();
  const auto nbrs = g.neighbors(1);
  const auto wgts = g.edge_weights(1);
  ASSERT_EQ(nbrs.size(), 2u);
  ASSERT_EQ(wgts.size(), 2u);
  EXPECT_EQ(nbrs[0], 0);
  EXPECT_DOUBLE_EQ(wgts[0], 10.0);
  EXPECT_EQ(nbrs[1], 2);
  EXPECT_DOUBLE_EQ(wgts[1], 20.0);
}

TEST(Graph, SummaryMentionsSizes) {
  GraphBuilder b(3);
  b.add_edge(0, 1);
  const auto s = b.build().summary();
  EXPECT_NE(s.find("|V|=3"), std::string::npos);
  EXPECT_NE(s.find("|E|=1"), std::string::npos);
}

// ---------------------------------------------------------------------------
// has_edge / edge_weight use binary search over the sorted adjacency rows;
// guard them (and the sortedness invariant they rely on) against a linear
// ground-truth scan across random weighted multigraph inputs.
TEST(Graph, BinarySearchLookupsMatchLinearScan) {
  Rng rng(0x10c4);
  for (int round = 0; round < 8; ++round) {
    const VertexId n = 2 + static_cast<VertexId>(rng.uniform_int(40));
    GraphBuilder b(n);
    const int edges = rng.uniform_int(4 * n);
    for (int e = 0; e < edges; ++e) {
      const auto u = static_cast<VertexId>(rng.uniform_int(n));
      const auto v = static_cast<VertexId>(rng.uniform_int(n));
      if (u != v) b.add_edge(u, v, 1.0 + rng.uniform_int(9));
    }
    const Graph g = b.build();

    for (VertexId u = 0; u < n; ++u) {
      ASSERT_TRUE(std::is_sorted(g.neighbors(u).begin(),
                                 g.neighbors(u).end()));
      for (VertexId v = 0; v < n; ++v) {
        // Linear ground truth.
        bool found = false;
        double weight = 0.0;
        const auto nbrs = g.neighbors(u);
        const auto wgts = g.edge_weights(u);
        for (std::size_t i = 0; i < nbrs.size(); ++i) {
          if (nbrs[i] == v) {
            found = true;
            weight = wgts[i];
            break;
          }
        }
        ASSERT_EQ(g.has_edge(u, v), found) << u << "->" << v;
        const auto w = g.edge_weight(u, v);
        ASSERT_EQ(w.has_value(), found) << u << "->" << v;
        if (found) {
          ASSERT_DOUBLE_EQ(*w, weight) << u << "->" << v;
        }
      }
    }
  }
}

// The counting-sort CSR construction must produce the same canonical graph
// as a naive map-based symmetrize/merge, duplicates and all.
TEST(GraphBuilder, CountingSortConstructionMatchesNaiveMerge) {
  Rng rng(0xcc01);
  for (int round = 0; round < 6; ++round) {
    const VertexId n = 1 + static_cast<VertexId>(rng.uniform_int(30));
    GraphBuilder b(n);
    std::map<std::pair<VertexId, VertexId>, double> naive;
    const int edges = rng.uniform_int(5 * n);
    for (int e = 0; e < edges; ++e) {
      const auto u = static_cast<VertexId>(rng.uniform_int(n));
      const auto v = static_cast<VertexId>(rng.uniform_int(n));
      const double w = 1.0 + rng.uniform_int(5);
      if (u == v) continue;
      b.add_edge(u, v, w);
      naive[{std::min(u, v), std::max(u, v)}] += w;
    }
    const Graph g = b.build();

    EXPECT_EQ(g.num_edges(), static_cast<std::int64_t>(naive.size()));
    for (const auto& [uv, w] : naive) {
      ASSERT_TRUE(g.has_edge(uv.first, uv.second));
      ASSERT_DOUBLE_EQ(g.edge_weight(uv.first, uv.second).value(), w);
      ASSERT_DOUBLE_EQ(g.edge_weight(uv.second, uv.first).value(), w);
    }
    // No phantom edges beyond the naive set.
    for (VertexId u = 0; u < n; ++u) {
      for (const VertexId v : g.neighbors(u)) {
        ASSERT_TRUE(naive.count({std::min(u, v), std::max(u, v)}));
      }
    }
  }
}

// The one-scatter construction (with its per-row fix-up) must agree with a
// per-row comparison sort on graphs with heavy duplicate multiplicity and
// fractional weights.  Weight sums may associate in a different order than
// the sorted-pair reference, hence the near (not bitwise) comparison for the
// fractional case.
TEST(GraphBuilder, ScatterConstructionMatchesPerRowSortReference) {
  Rng rng(0xadd1);
  for (int round = 0; round < 8; ++round) {
    const bool fractional = round % 2 == 1;
    const VertexId n = 2 + static_cast<VertexId>(rng.uniform_int(40));
    struct E {
      VertexId u, v;
      double w;
    };
    std::vector<E> raw;
    GraphBuilder b(n);
    const int edges = rng.uniform_int(8 * n);
    for (int e = 0; e < edges; ++e) {
      const auto u = static_cast<VertexId>(rng.uniform_int(n));
      auto v = static_cast<VertexId>(rng.uniform_int(n));
      if (rng.bernoulli(0.3)) v = (u + 1) % n;  // force duplicate pile-ups
      if (u == v) continue;
      const double w = fractional ? 0.25 + rng.uniform() : 1.0 + rng.uniform_int(5);
      b.add_edge(u, v, w);
      raw.push_back({u, v, w});
    }
    const Graph g = b.build();

    // Reference: per-row (neighbour, weight) sort + duplicate merge.
    std::vector<std::vector<std::pair<VertexId, double>>> rows(
        static_cast<std::size_t>(n));
    for (const E& e : raw) {
      rows[static_cast<std::size_t>(e.u)].emplace_back(e.v, e.w);
      rows[static_cast<std::size_t>(e.v)].emplace_back(e.u, e.w);
    }
    for (VertexId u = 0; u < n; ++u) {
      auto& row = rows[static_cast<std::size_t>(u)];
      std::sort(row.begin(), row.end());
      std::vector<VertexId> expect_adj;
      std::vector<double> expect_wgt;
      for (const auto& [v, w] : row) {
        if (!expect_adj.empty() && expect_adj.back() == v) {
          expect_wgt.back() += w;
        } else {
          expect_adj.push_back(v);
          expect_wgt.push_back(w);
        }
      }
      const auto nbrs = g.neighbors(u);
      ASSERT_EQ(std::vector<VertexId>(nbrs.begin(), nbrs.end()), expect_adj)
          << "row " << u;
      const auto wgts = g.edge_weights(u);
      ASSERT_EQ(wgts.size(), expect_wgt.size());
      for (std::size_t i = 0; i < wgts.size(); ++i) {
        if (fractional) {
          ASSERT_NEAR(wgts[i], expect_wgt[i], 1e-12) << "row " << u;
        } else {
          ASSERT_EQ(wgts[i], expect_wgt[i]) << "row " << u;
        }
      }
    }
  }
}

// Bitwise contract of build(): every row is its edges in insertion order,
// stably sorted by neighbour, with duplicates summed left to right.  Checked
// on random multigraphs with fractional weights, self-loops, vertex weights
// and coordinates, on inputs that arrive already ascending (the fast path)
// and ones that need the fix-up, with short and long rows, and across
// build() calls on one reused builder.
TEST(GraphBuilder, BuildMatchesInsertionOrderStableReference) {
  struct E {
    VertexId u, v;
    double w;
  };
  const auto reference_check = [](const Graph& g, VertexId n,
                                  const std::vector<E>& raw,
                                  const std::vector<double>& vwgt,
                                  const std::vector<Point2>& coords) {
    std::vector<std::vector<std::pair<VertexId, double>>> rows(
        static_cast<std::size_t>(n));
    for (const E& e : raw) {
      if (e.u == e.v) continue;
      rows[static_cast<std::size_t>(e.u)].emplace_back(e.v, e.w);
      rows[static_cast<std::size_t>(e.v)].emplace_back(e.u, e.w);
    }
    std::vector<std::int32_t> xadj = {0};
    std::vector<VertexId> adj;
    std::vector<double> wgt;
    for (auto& row : rows) {
      std::stable_sort(row.begin(), row.end(), [](const auto& a, const auto& b) {
        return a.first < b.first;
      });
      const std::size_t row_start = adj.size();
      for (const auto& [v, w] : row) {
        if (adj.size() > row_start && adj.back() == v) {
          wgt.back() += w;
        } else {
          adj.push_back(v);
          wgt.push_back(w);
        }
      }
      xadj.push_back(static_cast<std::int32_t>(adj.size()));
    }
    ASSERT_EQ(g.xadj(), xadj);
    ASSERT_EQ(g.adjncy(), adj);
    ASSERT_EQ(g.ewgt(), wgt);  // exact: same summation order
    ASSERT_EQ(g.vwgt(), vwgt);
    double total = 0.0;
    for (const double w : vwgt) total += w;
    EXPECT_EQ(g.total_vertex_weight(), total);
    const auto unit = [](double w) { return w == 1.0; };
    EXPECT_EQ(g.unit_weights(), std::all_of(vwgt.begin(), vwgt.end(), unit) &&
                                    std::all_of(wgt.begin(), wgt.end(), unit));
    EXPECT_EQ(g.coordinates(), coords);
  };

  Rng rng(0xb1d5);
  for (int round = 0; round < 24; ++round) {
    const bool fractional = round % 2 == 1;
    const bool ascending = round % 4 == 0;   // rows arrive in order
    const bool hubby = round % 6 == 3;       // some rows beyond insertion sort
    const VertexId n = 2 + static_cast<VertexId>(rng.uniform_int(60));
    GraphBuilder b(n);
    std::vector<E> raw;
    std::vector<double> vwgt(static_cast<std::size_t>(n), 1.0);
    std::vector<Point2> coords;
    const auto add = [&](VertexId u, VertexId v, double w) {
      b.add_edge(u, v, w);
      raw.push_back({u, v, w});
    };
    const auto weight = [&] {
      return fractional ? 0.1 + rng.uniform() / 3.0 : 1.0;
    };
    if (ascending) {
      // Lower endpoint ascending, then neighbour ascending: every row is
      // strictly ascending as scattered.
      for (VertexId u = 0; u < n; ++u) {
        for (VertexId v = u + 1; v < n; ++v) {
          if (rng.bernoulli(0.2)) add(u, v, weight());
        }
      }
    } else {
      const int edges = rng.uniform_int(8 * n) + (hubby ? 200 : 0);
      for (int e = 0; e < edges; ++e) {
        auto u = static_cast<VertexId>(rng.uniform_int(n));
        auto v = static_cast<VertexId>(rng.uniform_int(n));
        if (hubby && rng.bernoulli(0.5)) u = 0;  // a long row
        if (rng.bernoulli(0.3)) v = (u + 1) % n;  // duplicate pile-ups
        add(u, v, weight());                      // u == v: a dropped self-loop
      }
    }
    if (round % 3 == 1) {
      for (VertexId v = 0; v < n; v += 3) {
        const double w = 0.5 + rng.uniform();
        b.set_vertex_weight(v, w);
        vwgt[static_cast<std::size_t>(v)] = w;
      }
    }
    if (round % 5 == 2) {
      coords.resize(static_cast<std::size_t>(n));
      for (VertexId v = 1; v < n; v += 2) {
        const Point2 p{rng.uniform(), rng.uniform()};
        b.set_coordinate(v, p);
        coords[static_cast<std::size_t>(v)] = p;
      }
    }
    reference_check(b.build(), n, raw, vwgt, coords);
    if (::testing::Test::HasFatalFailure()) return;

    // Reuse: the builder keeps its edges, takes more, and builds again.
    for (int e = 0; e < n; ++e) {
      add(static_cast<VertexId>(rng.uniform_int(n)),
          static_cast<VertexId>(rng.uniform_int(n)), weight());
    }
    reference_check(b.build(), n, raw, vwgt, coords);
    if (::testing::Test::HasFatalFailure()) return;
  }
}

// unit_weights() is a property of the built graph, not of the inputs.
TEST(GraphBuilder, UnitWeightsReflectMergedAndResetWeights) {
  GraphBuilder dup(3);
  dup.add_edge(0, 1);
  dup.add_edge(1, 0);  // merges to weight 2
  EXPECT_FALSE(dup.build().unit_weights());

  GraphBuilder halves(3);
  halves.add_edge(0, 1, 0.5);
  halves.add_edge(1, 0, 0.5);  // merges to weight 1
  halves.add_edge(1, 2);
  EXPECT_TRUE(halves.build().unit_weights());

  GraphBuilder reset(3);
  reset.add_edge(0, 1);
  reset.set_vertex_weight(2, 4.0);
  EXPECT_FALSE(reset.build().unit_weights());
  reset.set_vertex_weight(2, 1.0);
  const Graph g = reset.build();
  EXPECT_TRUE(g.unit_weights());
  EXPECT_EQ(g.total_vertex_weight(), 3.0);
  EXPECT_FALSE(g.has_coordinates());
}

TEST(Graph, CsrConsistencyOnRandomGraph) {
  Rng rng(7);
  GraphBuilder b(50);
  for (int e = 0; e < 200; ++e) {
    const auto u = static_cast<VertexId>(rng.uniform_int(50));
    const auto v = static_cast<VertexId>(rng.uniform_int(50));
    if (u != v) b.add_edge(u, v);
  }
  const Graph g = b.build();
  // Symmetry + sortedness + no self loops + degree sums.
  std::int64_t directed = 0;
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    const auto nbrs = g.neighbors(v);
    EXPECT_TRUE(std::is_sorted(nbrs.begin(), nbrs.end()));
    EXPECT_TRUE(std::adjacent_find(nbrs.begin(), nbrs.end()) == nbrs.end());
    for (VertexId u : nbrs) {
      EXPECT_NE(u, v);
      EXPECT_TRUE(g.has_edge(u, v)) << u << "<->" << v;
    }
    directed += g.degree(v);
  }
  EXPECT_EQ(directed, 2 * g.num_edges());
}

}  // namespace
}  // namespace gapart
