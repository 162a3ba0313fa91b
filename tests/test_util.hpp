// Shared helpers for the gapart test suite.
#pragma once

#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <cstring>
#include <string>
#include <tuple>
#include <vector>

#include "common/rng.hpp"
#include "graph/graph.hpp"
#include "graph/partition.hpp"
#include "graph/types.hpp"

namespace gapart::testing {

/// Brute-force metric computation, structured completely differently from
/// compute_metrics (edge-list scan instead of CSR row scan) so the two
/// implementations cross-check each other.
inline PartitionMetrics brute_force_metrics(const Graph& g,
                                            const Assignment& a,
                                            PartId num_parts) {
  PartitionMetrics m;
  m.part_weight.assign(static_cast<std::size_t>(num_parts), 0.0);
  m.part_cut.assign(static_cast<std::size_t>(num_parts), 0.0);
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    m.part_weight[static_cast<std::size_t>(a[static_cast<std::size_t>(v)])] +=
        g.vertex_weight(v);
  }
  for (VertexId u = 0; u < g.num_vertices(); ++u) {
    const auto nbrs = g.neighbors(u);
    const auto wgts = g.edge_weights(u);
    for (std::size_t i = 0; i < nbrs.size(); ++i) {
      const VertexId v = nbrs[i];
      if (v <= u) continue;  // visit each undirected edge once
      const PartId pu = a[static_cast<std::size_t>(u)];
      const PartId pv = a[static_cast<std::size_t>(v)];
      if (pu != pv) {
        m.part_cut[static_cast<std::size_t>(pu)] += wgts[i];
        m.part_cut[static_cast<std::size_t>(pv)] += wgts[i];
      }
    }
  }
  const double mean = g.total_vertex_weight() / static_cast<double>(num_parts);
  for (PartId q = 0; q < num_parts; ++q) {
    const double d = m.part_weight[static_cast<std::size_t>(q)] - mean;
    m.imbalance_sq += d * d;
    m.sum_part_cut += m.part_cut[static_cast<std::size_t>(q)];
    m.max_part_cut =
        std::max(m.max_part_cut, m.part_cut[static_cast<std::size_t>(q)]);
  }
  return m;
}

/// Asserts the two metric breakdowns agree to floating-point noise.
inline void expect_metrics_near(const PartitionMetrics& x,
                                const PartitionMetrics& y, double tol = 1e-9) {
  ASSERT_EQ(x.part_weight.size(), y.part_weight.size());
  for (std::size_t q = 0; q < x.part_weight.size(); ++q) {
    EXPECT_NEAR(x.part_weight[q], y.part_weight[q], tol) << "part " << q;
    EXPECT_NEAR(x.part_cut[q], y.part_cut[q], tol) << "part " << q;
  }
  EXPECT_NEAR(x.sum_part_cut, y.sum_part_cut, tol);
  EXPECT_NEAR(x.max_part_cut, y.max_part_cut, tol);
  EXPECT_NEAR(x.imbalance_sq, y.imbalance_sq, tol);
}

/// Part sizes (vertex counts) of an assignment.
inline std::vector<int> part_sizes(const Assignment& a, PartId num_parts) {
  std::vector<int> sizes(static_cast<std::size_t>(num_parts), 0);
  for (PartId p : a) ++sizes[static_cast<std::size_t>(p)];
  return sizes;
}

/// Max |size - n/k| over parts.
inline int max_size_deviation(const Assignment& a, PartId num_parts) {
  const auto sizes = part_sizes(a, num_parts);
  const double ideal =
      static_cast<double>(a.size()) / static_cast<double>(num_parts);
  double dev = 0.0;
  for (int s : sizes) {
    dev = std::max(dev, std::abs(static_cast<double>(s) - ideal));
  }
  return static_cast<int>(dev + 0.999999);
}

/// True when every part id in [0, num_parts) is used at least once.
inline bool all_parts_used(const Assignment& a, PartId num_parts) {
  const auto sizes = part_sizes(a, num_parts);
  for (int s : sizes) {
    if (s == 0) return false;
  }
  return true;
}

/// Preferential attachment (Barabási–Albert): each vertex of [from, to)
/// links to m distinct earlier vertices drawn from `ends`, the endpoint
/// multiset of the edges so far, so targets are picked by degree.  Edges go
/// to `edges` and their endpoints onto `ends`.  `fractional` draws edge
/// weights from (0.25, 4) and returns vertex weights drawn the same way
/// (empty otherwise).
inline std::vector<double> attach_preferential(
    std::vector<std::tuple<VertexId, VertexId, double>>& edges,
    std::vector<VertexId>& ends, VertexId from, VertexId to, int m, Rng& rng,
    bool fractional = false) {
  std::vector<double> vertex_weights;
  for (VertexId v = from; v < to; ++v) {
    std::vector<VertexId> targets;
    while (static_cast<int>(targets.size()) < m) {
      const VertexId t = ends[static_cast<std::size_t>(
          rng.uniform_int(static_cast<int>(ends.size())))];
      if (t != v &&
          std::find(targets.begin(), targets.end(), t) == targets.end()) {
        targets.push_back(t);
      }
    }
    for (const VertexId t : targets) {
      edges.emplace_back(v, t, fractional ? 0.25 + 3.75 * rng.uniform() : 1.0);
      ends.push_back(v);
      ends.push_back(t);
    }
    if (fractional) vertex_weights.push_back(0.25 + 3.75 * rng.uniform());
  }
  return vertex_weights;
}

/// A Barabási–Albert graph on n vertices: an (m+1)-clique, then
/// attach_preferential for the rest.  `edges` and `ends` come back filled
/// so a caller can keep growing the same graph.
inline Graph barabasi_albert_graph(
    VertexId n, int m, Rng& rng,
    std::vector<std::tuple<VertexId, VertexId, double>>& edges,
    std::vector<VertexId>& ends) {
  for (VertexId u = 0; u <= m; ++u) {
    for (VertexId v = u + 1; v <= m; ++v) {
      edges.emplace_back(u, v, 1.0);
      ends.push_back(u);
      ends.push_back(v);
    }
  }
  attach_preferential(edges, ends, m + 1, n, m, rng);
  GraphBuilder b(n);
  for (const auto& [u, v, w] : edges) b.add_edge(u, v, w);
  return b.build();
}

/// Tiny recursive-descent JSON validator — enough to assert emitted JSON
/// (Chrome traces, metric dumps, bench reports) is well formed without a
/// JSON library dependency.
class JsonCursor {
 public:
  explicit JsonCursor(const std::string& text) : s_(text) {}

  bool valid_value() {
    skip_ws();
    if (!value()) return false;
    skip_ws();
    return pos_ == s_.size();
  }

 private:
  bool value() {
    if (pos_ >= s_.size()) return false;
    const char c = s_[pos_];
    if (c == '{') return object();
    if (c == '[') return array();
    if (c == '"') return string();
    if (c == 't') return literal("true");
    if (c == 'f') return literal("false");
    if (c == 'n') return literal("null");
    return number();
  }
  bool object() {
    ++pos_;  // '{'
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      return true;
    }
    for (;;) {
      skip_ws();
      if (!string()) return false;
      skip_ws();
      if (peek() != ':') return false;
      ++pos_;
      skip_ws();
      if (!value()) return false;
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      if (peek() == '}') {
        ++pos_;
        return true;
      }
      return false;
    }
  }
  bool array() {
    ++pos_;  // '['
    skip_ws();
    if (peek() == ']') {
      ++pos_;
      return true;
    }
    for (;;) {
      skip_ws();
      if (!value()) return false;
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      if (peek() == ']') {
        ++pos_;
        return true;
      }
      return false;
    }
  }
  bool string() {
    if (peek() != '"') return false;
    ++pos_;
    while (pos_ < s_.size() && s_[pos_] != '"') {
      if (s_[pos_] == '\\') ++pos_;
      ++pos_;
    }
    if (pos_ >= s_.size()) return false;
    ++pos_;  // closing quote
    return true;
  }
  bool number() {
    const std::size_t start = pos_;
    if (peek() == '-') ++pos_;
    while (pos_ < s_.size() &&
           (std::isdigit(static_cast<unsigned char>(s_[pos_])) != 0 ||
            s_[pos_] == '.' || s_[pos_] == 'e' || s_[pos_] == 'E' ||
            s_[pos_] == '+' || s_[pos_] == '-')) {
      ++pos_;
    }
    return pos_ > start;
  }
  bool literal(const char* lit) {
    const std::size_t len = std::strlen(lit);
    if (s_.compare(pos_, len, lit) != 0) return false;
    pos_ += len;
    return true;
  }
  char peek() const { return pos_ < s_.size() ? s_[pos_] : '\0'; }
  void skip_ws() {
    while (pos_ < s_.size() &&
           std::isspace(static_cast<unsigned char>(s_[pos_])) != 0) {
      ++pos_;
    }
  }

  const std::string& s_;
  std::size_t pos_ = 0;
};

}  // namespace gapart::testing
