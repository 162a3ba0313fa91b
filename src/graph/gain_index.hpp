// Part-pair gain index: the boundary vertices that may hold an improving
// move under the total-communication objective (Fitness1), found without
// scanning the boundary.
//
// Moving v (weight w) from its part p to a part q changes Fitness1 by
//   gain(v, q) = 2 lambda (c_q - c_p) - 2 w (W_q - W_p + w),
// where c_r is v's edge weight into part r and W_r is the weight of part r.
// Dividing by 2w separates what v owns from what the two parts own:
//   gain(v, q) > 0   <=>   key(v, q) = lambda (c_q - c_p) / w - w  >  W_q - W_p.
// A key changes only when v's row, v's part or a neighbour's part changes —
// never when a distant move shifts the part weights.  So for every ordered
// part pair (p, q) the index keeps the boundary vertices of p adjacent to q
// in a max-heap by key, and the vertices that may improve toward q form the
// heap's top above the pair's threshold W_q - W_p: one query costs
// O(k^2 + output), not O(boundary).  This is the FM-style gain structure of
// Fiduccia–Mattheyses and of KaFFPaE's refinement core, keyed so that part
// weights stay out of the heaps.
//
// Keys are recomputed from the vertex's adjacency row in CSR order, the same
// summation order PartitionState::best_move uses, so every key is a pure
// function of (graph, assignment); so is every query, whatever the history
// of insertions (lazy deletion leaves stale entries behind, but they are
// never reported).  Recovery and a follower that rebuild the index from a
// snapshot therefore get the same candidates as the live run.
//
// Not under kWorstComm: its max-cut term does not split by part pair.
#pragma once

#include <cmath>
#include <cstdint>
#include <span>
#include <vector>

#include "graph/connectivity_scratch.hpp"
#include "graph/graph.hpp"
#include "graph/types.hpp"

namespace gapart {

class PartPairGainIndex {
 public:
  /// Keys every vertex of `boundary` against (g, a): O(sum of their degrees)
  /// plus one heapify per pair.
  PartPairGainIndex(const Graph& g, const Assignment& a, PartId num_parts,
                    double lambda, std::span<const VertexId> boundary);

  double lambda() const { return lambda_; }

  /// Re-derives v's keys from its row after v's part, a neighbour's part,
  /// v's row or v's weight changed: O(deg(v) + k_adj(v) log).  v's previous
  /// entries turn stale; an interior v simply leaves the index.  Vertex ids
  /// past the current range grow the index.
  void rekey(const Graph& g, const Assignment& a, VertexId v);

  /// One entry that cleared its pair's threshold: v may improve toward the
  /// pair's second part.  Key and stamp are kept as found, so
  /// still_passes() can re-check it in O(1) after later moves.
  struct Candidate {
    VertexId v;
    std::uint32_t pair;  ///< p * k + q
    double key;
    std::uint32_t stamp;
  };

  /// Appends to `out` (unordered) every live entry whose key toward q
  /// clears the pair's threshold W_q - W_p minus a rounding slack: their
  /// vertices are a superset of the vertices with a move of gain above
  /// `min_gain` >= 0.  `comm_scale` is |imbalance| + |lambda| * sum of part
  /// cuts, the magnitude best_move's gain is a difference of; it sizes the
  /// slack.  With unit weights and an integral lambda keys and thresholds
  /// are exact integers and a real gain is at least 2, so exact ties (gain
  /// 0) are left out.  O(k^2 + output).
  void collect(const Graph& g, std::span<const double> part_weight,
               double comm_scale, double min_gain,
               std::vector<Candidate>& out);

  /// Whether a candidate collect() returned may still improve under the
  /// current part weights: true when its vertex was re-keyed since (its
  /// keys are no longer known here) or its key still clears the pair's
  /// threshold.  O(1).
  bool still_passes(const Graph& g, const Candidate& c,
                    std::span<const double> part_weight, double comm_scale,
                    double min_gain) const;

 private:
  struct Entry {
    double key;
    VertexId v;
    std::uint32_t stamp;  ///< valid iff equal to stamp_[v]
  };

  /// One pair's threshold test: key passes iff key + rel * |key| > cut,
  /// monotone in key, so the passing entries are a heap's top subtree.
  struct Cut {
    double cut = 0.0;
    double rel = 0.0;  ///< relative key slack (0 on exact integer keys)
    bool passes(double key) const { return key + rel * std::abs(key) > cut; }
  };

  static bool key_less(const Entry& x, const Entry& y) { return x.key < y.key; }
  bool stale(const Entry& e) const {
    return e.stamp != stamp_[static_cast<std::size_t>(e.v)];
  }
  /// rekey() body; the constructor appends without heap upkeep and
  /// heapifies once at the end.
  void append_keys(const Graph& g, const Assignment& a, VertexId v,
                   bool keep_heap);
  void push(std::size_t pair, Entry e);
  Cut pair_cut(const Graph& g, std::size_t pair,
               std::span<const double> part_weight, double comm_scale,
               double min_gain) const;
  /// Drops the pair's stale entries and re-heapifies: O(heap size).
  void compact(std::size_t pair);

  PartId num_parts_;
  double lambda_;
  /// heaps_[p * k + q]: boundary vertices of p adjacent to q, max-heap by
  /// key(v, q), with lazily deleted (stale) entries.
  std::vector<std::vector<Entry>> heaps_;
  /// Heap size right after its last compaction; growing past twice that
  /// triggers the next one, so upkeep stays amortized O(log) per entry.
  std::vector<std::size_t> settled_;
  /// Per-vertex generation: bumping it retires every entry the vertex holds.
  std::vector<std::uint32_t> stamp_;
  ConnectivityScratch conn_;
  std::vector<std::size_t> dfs_;  ///< collect()'s heap-walk stack
};

}  // namespace gapart
