// Client-side change streams for the end-to-end delta benchmark.
//
// A client holds its change in native form: the new vertex count plus the
// full adjacency row of every new vertex and of every surviving vertex whose
// neighbours changed — the same content encode_delta writes.  Generating a
// change is the client's business and stays outside the timed path.
//
// to_service_input() is the one client adapter from that native form to the
// service's current input (a grown Graph built with GraphBuilder plus a
// GraphDelta).  The benchmark times it as part of the acknowledgement, so a
// delta-native service API replaces this one function without moving the
// timing boundary.
#pragma once

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "core/graph_delta.hpp"
#include "graph/graph.hpp"

namespace e2ebench {

using gapart::Graph;
using gapart::GraphDelta;
using gapart::Rng;
using gapart::VertexId;

/// One adjacency row (unit edge weights), neighbours sorted ascending.
struct NativeRow {
  VertexId v = 0;
  std::vector<VertexId> nbrs;
};

/// A change in the client's native form.  `rows` lists every new vertex and
/// every survivor whose adjacency changed (exactly those), sorted by vertex.
struct NativeDelta {
  VertexId old_num_vertices = 0;
  VertexId new_num_vertices = 0;
  std::vector<NativeRow> rows;

  /// New vertices plus rewired survivors — GraphDelta::damage.
  VertexId damage() const { return static_cast<VertexId>(rows.size()); }
};

struct ServiceInput {
  std::shared_ptr<const Graph> grown;
  GraphDelta delta;
};

/// The client adapter: rebuilds the grown snapshot from `current` plus the
/// change (O(V + E) — what the service API requires today) and derives the
/// exact GraphDelta.
ServiceInput to_service_input(const Graph& current, const NativeDelta& change);

/// grow_1m: a rows x cols grid that grows by one appended row per change.
/// The appended row's vertices link left/right and up, and one in ten also
/// up-right (seeded); the old last row is the only survivor touched, so
/// damage = 2 * cols.
class GridRowGrowth {
 public:
  GridRowGrowth(VertexId cols, std::uint64_t seed) : cols_(cols), rng_(seed) {}
  NativeDelta next(const Graph& current);

 private:
  VertexId cols_;
  Rng rng_;
};

/// Undirected simple edge list (u < v not required; no self-loops, no
/// duplicates by construction).
struct EdgeList {
  VertexId num_vertices = 0;
  std::vector<std::pair<VertexId, VertexId>> edges;
};

/// Seeded Barabási–Albert graph: a clique on m + 1 vertices, then every
/// further vertex attaches to m distinct earlier vertices chosen with
/// probability proportional to degree (uniform draws from the endpoint
/// list, as KaGen's BA generator does).  `endpoints` receives that list so
/// an AttachmentStream can keep growing the same graph.
EdgeList barabasi_albert(VertexId n, int m, Rng& rng,
                         std::vector<VertexId>* endpoints);

Graph graph_from_edges(const EdgeList& list);

/// skew_100k: preferential-attachment growth continuing a BA graph.  Each
/// change appends `count` vertices with m edges each; targets are drawn by
/// degree, so the touched survivors are mostly hubs.
class AttachmentStream {
 public:
  AttachmentStream(std::vector<VertexId> endpoints, int m, Rng rng)
      : endpoints_(std::move(endpoints)), m_(m), rng_(rng) {}
  NativeDelta next(const Graph& current, int count);

 private:
  std::vector<VertexId> endpoints_;
  int m_;
  Rng rng_;
};

}  // namespace e2ebench
