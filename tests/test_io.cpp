#include "graph/io.hpp"

#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "common/rng.hpp"
#include "graph/generators.hpp"

namespace gapart {
namespace {

TEST(GraphIo, UnweightedRoundTrip) {
  const Graph g = make_grid(4, 4);
  std::stringstream ss;
  write_graph(ss, g);
  const Graph h = read_graph(ss);
  ASSERT_EQ(h.num_vertices(), g.num_vertices());
  ASSERT_EQ(h.num_edges(), g.num_edges());
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    const auto a = g.neighbors(v);
    const auto b = h.neighbors(v);
    ASSERT_EQ(a.size(), b.size()) << "vertex " << v;
    for (std::size_t i = 0; i < a.size(); ++i) EXPECT_EQ(a[i], b[i]);
  }
  EXPECT_TRUE(h.unit_weights());
}

TEST(GraphIo, WeightedRoundTrip) {
  GraphBuilder b(4);
  b.add_edge(0, 1, 2.5);
  b.add_edge(1, 2, 1.25);
  b.add_edge(2, 3, 4.0);
  b.set_vertex_weight(0, 3.0);
  b.set_vertex_weight(2, 1.5);
  const Graph g = b.build();
  std::stringstream ss;
  write_graph(ss, g);
  const Graph h = read_graph(ss);
  EXPECT_FALSE(h.unit_weights());
  EXPECT_DOUBLE_EQ(h.vertex_weight(0), 3.0);
  EXPECT_DOUBLE_EQ(h.vertex_weight(1), 1.0);
  EXPECT_DOUBLE_EQ(h.edge_weight(0, 1).value(), 2.5);
  EXPECT_DOUBLE_EQ(h.edge_weight(2, 3).value(), 4.0);
}

// Weights that six significant digits would round (1/3, 1234567, 0.1+0.2)
// must read back as the same doubles.
TEST(GraphIo, WeightedRoundTripIsBitExact) {
  const double awkward[] = {1.0 / 3.0, 1234567.0,       0.1 + 0.2,
                            2.0 / 3.0 * 1e10, 1e-7 / 3.0, 123456789.123,
                            1.0 + 1e-15,      1e300};
  GraphBuilder b(6);
  int i = 0;
  for (VertexId v = 0; v < 6; ++v) {
    b.set_vertex_weight(v, awkward[i++ % 8]);
    for (VertexId u = v + 1; u < 6; u += 2) b.add_edge(v, u, awkward[i++ % 8]);
  }
  const Graph g = b.build();
  std::stringstream ss;
  write_graph(ss, g);
  const Graph h = read_graph(ss);
  EXPECT_EQ(h.xadj(), g.xadj());
  EXPECT_EQ(h.adjncy(), g.adjncy());
  EXPECT_EQ(h.ewgt(), g.ewgt());
  EXPECT_EQ(h.vwgt(), g.vwgt());
  EXPECT_EQ(h.total_vertex_weight(), g.total_vertex_weight());
}

// Unit-weight snapshot bytes are fixed: they must equal the stream-formatted
// reference below ("n m" header, 1-based neighbour ids, one line per
// vertex; one part id per line).
TEST(GraphIo, UnitWeightSnapshotBytesUnchanged) {
  const Graph g = make_grid(300, 200);
  std::ostringstream expect;
  expect << g.num_vertices() << ' ' << g.num_edges() << '\n';
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    const auto nbrs = g.neighbors(v);
    for (std::size_t i = 0; i < nbrs.size(); ++i) {
      if (i > 0) expect << ' ';
      expect << (nbrs[i] + 1);
    }
    expect << '\n';
  }
  std::ostringstream got;
  write_graph(got, g);
  EXPECT_EQ(got.str(), expect.str());
  EXPECT_EQ(format_graph(g), expect.str());

  Assignment a(static_cast<std::size_t>(g.num_vertices()));
  for (std::size_t v = 0; v < a.size(); ++v) {
    a[v] = static_cast<PartId>((v * 7) % 13);
  }
  std::ostringstream expect_part;
  for (const PartId p : a) expect_part << p << '\n';
  std::ostringstream got_part;
  write_partition(got_part, a);
  EXPECT_EQ(got_part.str(), expect_part.str());
  EXPECT_EQ(format_partition(a), expect_part.str());
}

TEST(GraphIo, HeaderFormatCode) {
  const Graph g = make_path(3);
  std::stringstream ss;
  write_graph(ss, g);
  std::string first;
  std::getline(ss, first);
  EXPECT_EQ(first, "3 2");  // unweighted: no fmt code
}

TEST(GraphIo, CommentsSkipped) {
  std::stringstream ss("% a comment\n3 2\n% another\n2\n1 3\n2\n");
  const Graph g = read_graph(ss);
  EXPECT_EQ(g.num_vertices(), 3);
  EXPECT_EQ(g.num_edges(), 2);
  EXPECT_TRUE(g.has_edge(0, 1));
  EXPECT_TRUE(g.has_edge(1, 2));
}

TEST(GraphIo, EdgeCountMismatchRejected) {
  std::stringstream ss("3 5\n2\n1 3\n2\n");
  EXPECT_THROW(read_graph(ss), Error);
}

TEST(GraphIo, NeighborOutOfRangeRejected) {
  std::stringstream ss("3 2\n2\n1 9\n2\n");
  EXPECT_THROW(read_graph(ss), Error);
}

TEST(GraphIo, EmptyInputRejected) {
  std::stringstream ss("");
  EXPECT_THROW(read_graph(ss), Error);
}

TEST(GraphIo, IsolatedVerticesSurvive) {
  GraphBuilder b(5);
  b.add_edge(1, 3);
  std::stringstream ss;
  write_graph(ss, b.build());
  const Graph h = read_graph(ss);
  EXPECT_EQ(h.num_vertices(), 5);
  EXPECT_EQ(h.num_edges(), 1);
  EXPECT_EQ(h.degree(0), 0);
}

TEST(CoordinateIo, RoundTrip) {
  const Graph g = make_grid(3, 3);
  std::stringstream ss;
  write_coordinates(ss, g);
  // Strip coordinates by rebuilding, then re-attach.
  GraphBuilder b(g.num_vertices());
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    for (VertexId u : g.neighbors(v)) {
      if (u > v) b.add_edge(v, u);
    }
  }
  const Graph bare = b.build();
  EXPECT_FALSE(bare.has_coordinates());
  const Graph withc = attach_coordinates(bare, ss);
  ASSERT_TRUE(withc.has_coordinates());
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    EXPECT_EQ(withc.coordinate(v), g.coordinate(v));
  }
}

TEST(CoordinateIo, CountMismatchRejected) {
  const Graph g = make_path(3);
  std::stringstream ss("0 0\n1 1\n");
  EXPECT_THROW(attach_coordinates(g, ss), Error);
}

TEST(CoordinateIo, NoCoordinatesToWriteRejected) {
  GraphBuilder b(2);
  b.add_edge(0, 1);
  std::stringstream ss;
  EXPECT_THROW(write_coordinates(ss, b.build()), Error);
}

TEST(PartitionIo, RoundTrip) {
  const Assignment a = {0, 1, 2, 1, 0, 3};
  std::stringstream ss;
  write_partition(ss, a);
  const Assignment b = read_partition(ss);
  EXPECT_EQ(a, b);
}

TEST(PartitionIo, NegativePartRejected) {
  std::stringstream ss("0\n-1\n2\n");
  EXPECT_THROW(read_partition(ss), Error);
}

TEST(FileIo, GraphAndPartitionFiles) {
  const Graph g = make_cycle(7);
  const std::string dir = ::testing::TempDir();
  const std::string gpath = dir + "/gapart_test.graph";
  const std::string ppath = dir + "/gapart_test.part";
  write_graph_file(gpath, g);
  const Graph h = read_graph_file(gpath);
  EXPECT_EQ(h.num_edges(), 7);

  const Assignment a = {0, 0, 1, 1, 2, 2, 0};
  write_partition_file(ppath, a);
  EXPECT_EQ(read_partition_file(ppath), a);
}

TEST(FileIo, MissingFileThrows) {
  EXPECT_THROW(read_graph_file("/nonexistent/path/graph.txt"), Error);
}

}  // namespace
}  // namespace gapart
