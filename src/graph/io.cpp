#include "graph/io.hpp"

#include <charconv>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "common/assert.hpp"
#include "common/fault_injection.hpp"

namespace gapart {

namespace {

std::string next_data_line(std::istream& is) {
  std::string line;
  while (std::getline(is, line)) {
    if (!line.empty() && line[0] != '%') return line;
  }
  return {};
}

/// Like next_data_line but keeps empty lines: a vertex with no neighbours is
/// written as an empty line, which must stay aligned with its vertex id.
/// nullopt at EOF — the caller decides whether running out of lines is a
/// truncated file (it is, whenever vertex lines are still owed).
std::optional<std::string> next_vertex_line(std::istream& is) {
  std::string line;
  while (std::getline(is, line)) {
    if (line.empty() || line[0] != '%') return line;
  }
  return std::nullopt;
}

std::ofstream open_out(const std::string& path) {
  std::ofstream os(path);
  if (!os.good()) throw IoError("cannot open '" + path + "' for writing");
  return os;
}

std::ifstream open_in(const std::string& path) {
  std::ifstream is(path);
  if (!is.good()) throw IoError("cannot open '" + path + "' for reading");
  return is;
}

/// Every writer funnels through this after its last insertion: flush, then
/// check the stream state, so a full disk / failed write surfaces as a typed
/// IoError instead of a silently truncated file.  The fault point simulates
/// exactly that failure mode (ENOSPC / short write) for tests.
void finish_write(std::ostream& os, const char* what) {
  if (GAPART_FAULT_POINT(FaultSite::kFileWrite)) {
    os.setstate(std::ios::badbit);  // as a real short write would
  }
  os.flush();
  if (!os.good()) {
    throw IoError(std::string("write failed (") + what +
                  "): stream went bad — disk full or device error?");
  }
}

void write_buffer(std::ostream& os, const std::string& text,
                  const char* what) {
  os.write(text.data(), static_cast<std::streamsize>(text.size()));
  finish_write(os, what);
}

// Upper bounds on the characters std::to_chars emits.
constexpr std::size_t kMaxIntChars = 20;     // -9223372036854775808
constexpr std::size_t kMaxInt32Chars = 11;   // -2147483648
constexpr std::size_t kMaxDoubleChars = 24;  // -2.2250738585072014e-308

// The formatters write into a buffer sized by these bounds up front, so
// std::to_chars never runs out of room.
char* put_int(char* p, char* end, std::int64_t value) {
  return std::to_chars(p, end, value).ptr;
}

char* put_double(char* p, char* end, double value) {
  // Shortest representation that round-trips: read_graph's `>>` recovers
  // the exact double.
  return std::to_chars(p, end, value).ptr;
}

std::size_t decimal_digits(std::int64_t value) {
  std::size_t digits = 1;
  for (; value >= 10; value /= 10) ++digits;
  return digits;
}

}  // namespace

std::string format_graph(const Graph& g) {
  const bool weighted = !g.unit_weights();
  const auto n = static_cast<std::size_t>(g.num_vertices());
  const std::size_t entries = g.adjncy().size();
  // Every entry is a 1-based id and a separator, plus " weight" when
  // weighted; every line ends in '\n' after an optional vertex weight.
  const std::size_t id_chars = decimal_digits(g.num_vertices()) + 1;
  const std::size_t bound =
      2 * kMaxIntChars + 8 +
      entries * (id_chars + (weighted ? kMaxDoubleChars + 1 : 0)) +
      n * (1 + (weighted ? kMaxDoubleChars : 0));
  std::string out(bound, '\0');
  char* p = out.data();
  char* const end = out.data() + out.size();
  p = put_int(p, end, g.num_vertices());
  *p++ = ' ';
  p = put_int(p, end, g.num_edges());
  if (weighted) {
    std::memcpy(p, " 11", 3);
    p += 3;
  }
  *p++ = '\n';
  const auto& xadj = g.xadj();
  const auto& adj = g.adjncy();
  const auto& wgt = g.ewgt();
  for (std::size_t v = 0; v < n; ++v) {
    const auto first = static_cast<std::size_t>(xadj[v]);
    const auto last = static_cast<std::size_t>(xadj[v + 1]);
    if (weighted) {
      p = put_double(p, end, g.vertex_weight(static_cast<VertexId>(v)));
      for (std::size_t i = first; i < last; ++i) {
        *p++ = ' ';
        p = put_int(p, end, adj[i] + 1);
        *p++ = ' ';
        p = put_double(p, end, wgt[i]);
      }
    } else {
      for (std::size_t i = first; i < last; ++i) {
        if (i > first) *p++ = ' ';
        p = put_int(p, end, adj[i] + 1);
      }
    }
    *p++ = '\n';
  }
  out.resize(static_cast<std::size_t>(p - out.data()));
  return out;
}

void write_graph(std::ostream& os, const Graph& g) {
  write_buffer(os, format_graph(g), "graph");
}

void write_graph_file(const std::string& path, const Graph& g) {
  auto os = open_out(path);
  write_graph(os, g);
}

Graph read_graph(std::istream& is) {
  const std::string header = next_data_line(is);
  GAPART_REQUIRE(!header.empty(), "missing graph header line");
  std::istringstream hs(header);
  long long n = 0;
  long long m = 0;
  std::string fmt = "00";
  hs >> n >> m;
  GAPART_REQUIRE(!hs.fail(), "malformed graph header '", header, "'");
  hs >> fmt;
  const bool has_vwgt = fmt.size() >= 2 && fmt[fmt.size() - 2] == '1';
  const bool has_ewgt = !fmt.empty() && fmt.back() == '1';
  GAPART_REQUIRE(n >= 0 && m >= 0, "negative counts in header");

  GraphBuilder b(static_cast<VertexId>(n));
  for (long long v = 0; v < n; ++v) {
    const auto maybe_line = next_vertex_line(is);
    if (!maybe_line.has_value()) {
      // EOF with vertex lines still owed: the file was truncated (a crashed
      // or disk-full writer).  Surface it; a graph silently missing rows
      // would corrupt every downstream consumer.
      throw IoError("truncated graph file: header promises " +
                    std::to_string(n) + " vertex lines, found " +
                    std::to_string(v));
    }
    std::istringstream ls(*maybe_line);
    if (has_vwgt) {
      double w = 1.0;
      ls >> w;
      GAPART_REQUIRE(!ls.fail(), "missing vertex weight on line ", v + 1);
      b.set_vertex_weight(static_cast<VertexId>(v), w);
    }
    long long u = 0;
    while (ls >> u) {
      GAPART_REQUIRE(u >= 1 && u <= n, "neighbour ", u, " out of range");
      double w = 1.0;
      if (has_ewgt) {
        ls >> w;
        GAPART_REQUIRE(!ls.fail(), "missing edge weight on line ", v + 1);
      }
      // Each undirected edge appears on both endpoint lines; add from the
      // lower side only.
      if (u - 1 > v) {
        b.add_edge(static_cast<VertexId>(v), static_cast<VertexId>(u - 1), w);
      }
    }
  }
  Graph g = b.build();
  GAPART_REQUIRE(g.num_edges() == m, "header claims ", m, " edges, file has ",
                 g.num_edges());
  return g;
}

Graph read_graph_file(const std::string& path) {
  auto is = open_in(path);
  return read_graph(is);
}

void write_coordinates(std::ostream& os, const Graph& g) {
  GAPART_REQUIRE(g.has_coordinates(), "graph has no coordinates");
  for (const auto& p : g.coordinates()) {
    os << p.x << ' ' << p.y << '\n';
  }
  finish_write(os, "coordinates");
}

void write_coordinates_file(const std::string& path, const Graph& g) {
  auto os = open_out(path);
  write_coordinates(os, g);
}

Graph attach_coordinates(const Graph& g, std::istream& is) {
  std::vector<Point2> coords;
  coords.reserve(static_cast<std::size_t>(g.num_vertices()));
  std::string line;
  while (std::getline(is, line)) {
    if (line.empty() || line[0] == '%') continue;
    std::istringstream ls(line);
    Point2 p;
    ls >> p.x >> p.y;
    GAPART_REQUIRE(!ls.fail(), "malformed coordinate line '", line, "'");
    coords.push_back(p);
  }
  GAPART_REQUIRE(static_cast<VertexId>(coords.size()) == g.num_vertices(),
                 "coordinate count ", coords.size(), " != |V| ",
                 g.num_vertices());

  // Rebuild with coordinates attached.
  GraphBuilder b(g.num_vertices());
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    b.set_vertex_weight(v, g.vertex_weight(v));
    const auto nbrs = g.neighbors(v);
    const auto wgts = g.edge_weights(v);
    for (std::size_t i = 0; i < nbrs.size(); ++i) {
      if (nbrs[i] > v) b.add_edge(v, nbrs[i], wgts[i]);
    }
  }
  b.set_coordinates(std::move(coords));
  return b.build();
}

std::string format_partition(const Assignment& a) {
  std::string out(a.size() * (kMaxInt32Chars + 1), '\0');
  char* p = out.data();
  char* const end = out.data() + out.size();
  for (const PartId part : a) {
    p = put_int(p, end, part);
    *p++ = '\n';
  }
  out.resize(static_cast<std::size_t>(p - out.data()));
  return out;
}

void write_partition(std::ostream& os, const Assignment& a) {
  write_buffer(os, format_partition(a), "partition");
}

void write_partition_file(const std::string& path, const Assignment& a) {
  auto os = open_out(path);
  write_partition(os, a);
}

Assignment read_partition(std::istream& is) {
  Assignment a;
  std::string line;
  while (std::getline(is, line)) {
    if (line.empty() || line[0] == '%') continue;
    std::istringstream ls(line);
    long long p = 0;
    ls >> p;
    GAPART_REQUIRE(!ls.fail(), "malformed partition line '", line, "'");
    GAPART_REQUIRE(p >= 0, "negative part id ", p);
    a.push_back(static_cast<PartId>(p));
  }
  return a;
}

Assignment read_partition_file(const std::string& path) {
  auto is = open_in(path);
  return read_partition(is);
}

}  // namespace gapart
