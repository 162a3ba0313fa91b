// Binary codec for graph deltas: the wire format the durability layer logs.
//
// A serialized delta carries exactly what the grown graph changed relative
// to its predecessor — the appended vertex range and the *new* adjacency of
// every touched survivor — so one record costs O(damage * degree) bytes,
// never O(V + E), and `decode_delta` can rebuild the grown graph from the
// previous snapshot plus the record alone.  This is what makes a delta WAL
// cheaper than logging graph snapshots.
//
// Replay is not damage-proportional.  decode_delta parses and checks the
// record in O(damage * degree), then splices the grown CSR arrays: runs of
// untouched rows are bulk-copied from the predecessor (their offsets shift
// by a constant), recorded rows come from the record.  That copy is O(V + E)
// memory traffic per record; a delta-native session API that keeps the
// graph mutable (ROADMAP item 2) is the route to O(damage) replay.
//
// The reconstruction contract requires the delta to be *exact* (diff_graphs
// exact: touched_old lists every survivor whose adjacency, edge weights, or
// vertex weight changed).  An untouched survivor's row is copied from the
// previous graph verbatim; a recorded vertex's row comes from the record.
// decode_delta cross-checks every seam, in O(damage * degree): an edge
// between a recorded and an untouched vertex must exist identically in the
// previous graph, a touched survivor must keep every untouched neighbour it
// had, and two recorded rows must list their shared edge with the same
// weight.  It throws gapart::Error on any inconsistency — a corrupt or
// inexact record is a typed error, never a silently wrong graph.  The result
// equals GraphBuilder's canonical graph field for field.
//
// Coordinates are deliberately not carried: the repair/refinement pipeline
// never reads them after initialization, and the Chaco checkpoint format the
// snapshots use does not persist them either.  Reconstructed graphs are
// coordinate-free.
#pragma once

#include <string>
#include <string_view>

#include "core/graph_delta.hpp"
#include "graph/graph.hpp"

namespace gapart {

/// Serializes (grown, delta) into a self-contained record payload of
/// O(damage * degree) bytes.  `delta` must be exact for `grown` (see file
/// comment); old_num_vertices must not exceed |grown|.
std::string encode_delta(const Graph& grown, const GraphDelta& delta);

struct DecodedDelta {
  Graph grown;       ///< Reconstructed grown graph (no coordinates).
  GraphDelta delta;  ///< The delta as originally described.
};

/// Rebuilds the grown graph from the previous snapshot and a record written
/// by encode_delta.  Throws gapart::Error on malformed/inconsistent bytes
/// (framing CRCs upstream make this unreachable for honest torn writes; the
/// validation here is the defense against logic-level corruption).
DecodedDelta decode_delta(const Graph& prev, std::string_view bytes);

}  // namespace gapart
