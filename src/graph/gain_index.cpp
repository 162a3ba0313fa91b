#include "graph/gain_index.hpp"

#include <algorithm>
#include <cmath>

#include "common/assert.hpp"

namespace gapart {

namespace {

/// Relative rounding slack of the general (non-integral) threshold test.  A
/// key is a handful of operations on its row's connectivity sums, and
/// best_move's gain is a difference of fitness values of magnitude
/// comm_scale: both err by a few ulps of those magnitudes, far below this.
constexpr double kRelSlack = 1e-12;

/// Stale entries a query may walk past in one pair before it compacts it.
constexpr std::size_t kStaleWalk = 16;

/// Entries a pair may gain over twice its compacted size before upkeep
/// compacts it (keeps tiny heaps from compacting on every push).
constexpr std::size_t kCompactSlack = 64;

}  // namespace

PartPairGainIndex::PartPairGainIndex(const Graph& g, const Assignment& a,
                                     PartId num_parts, double lambda,
                                     std::span<const VertexId> boundary)
    : num_parts_(num_parts), lambda_(lambda) {
  GAPART_REQUIRE(num_parts_ >= 1, "need at least one part");
  GAPART_REQUIRE(std::isfinite(lambda_), "lambda must be finite, got ",
                 lambda_);
  const auto pairs =
      static_cast<std::size_t>(num_parts_) * static_cast<std::size_t>(num_parts_);
  heaps_.resize(pairs);
  settled_.assign(pairs, 0);
  stamp_.assign(static_cast<std::size_t>(g.num_vertices()), 0);
  conn_.resize(static_cast<std::size_t>(num_parts_));
  // Key everything first, heapify once per pair: O(entries), not
  // O(entries log) of one push_heap each.
  for (const VertexId v : boundary) append_keys(g, a, v, /*keep_heap=*/false);
  for (std::size_t pair = 0; pair < pairs; ++pair) {
    auto& heap = heaps_[pair];
    std::make_heap(heap.begin(), heap.end(), key_less);
    settled_[pair] = heap.size();
  }
}

void PartPairGainIndex::rekey(const Graph& g, const Assignment& a,
                              VertexId v) {
  append_keys(g, a, v, /*keep_heap=*/true);
}

void PartPairGainIndex::append_keys(const Graph& g, const Assignment& a,
                                    VertexId v, bool keep_heap) {
  const auto i = static_cast<std::size_t>(v);
  if (i >= stamp_.size()) stamp_.resize(i + 1, 0);
  const std::uint32_t stamp = ++stamp_[i];  // retires v's old entries
  const PartId p = a[i];
  const auto nbrs = g.neighbors(v);
  const auto wgts = g.edge_weights(v);
  conn_.begin();
  for (std::size_t j = 0; j < nbrs.size(); ++j) {
    conn_.add(a[static_cast<std::size_t>(nbrs[j])], wgts[j]);
  }
  const double own = conn_[p];
  const double w = g.vertex_weight(v);
  const std::size_t row = static_cast<std::size_t>(p) *
                          static_cast<std::size_t>(num_parts_);
  for (const PartId q : conn_.touched()) {
    if (q == p) continue;
    const Entry e{lambda_ * (conn_[q] - own) / w - w, v, stamp};
    const std::size_t pair = row + static_cast<std::size_t>(q);
    if (keep_heap) {
      push(pair, e);
    } else {
      heaps_[pair].push_back(e);
    }
  }
}

void PartPairGainIndex::push(std::size_t pair, Entry e) {
  auto& heap = heaps_[pair];
  heap.push_back(e);
  std::push_heap(heap.begin(), heap.end(), key_less);
  if (heap.size() > 2 * settled_[pair] + kCompactSlack) compact(pair);
}

void PartPairGainIndex::compact(std::size_t pair) {
  auto& heap = heaps_[pair];
  std::erase_if(heap, [this](const Entry& e) { return stale(e); });
  std::make_heap(heap.begin(), heap.end(), key_less);
  settled_[pair] = heap.size();
}

PartPairGainIndex::Cut PartPairGainIndex::pair_cut(
    const Graph& g, std::size_t pair, std::span<const double> part_weight,
    double comm_scale, double min_gain) const {
  const auto k = static_cast<std::size_t>(num_parts_);
  const double wp = part_weight[pair / k];
  const double wq = part_weight[pair % k];
  Cut c;
  c.cut = wq - wp;
  if (g.unit_weights() && lambda_ == std::floor(lambda_)) {
    // Exact integer keys and thresholds, and gain = 2 (key - threshold): a
    // gain above min_gain >= 0 means key - threshold >= 1, or > min_gain / 2.
    c.cut += std::max(0.5, 0.5 * min_gain - 0.5);
  } else {
    // gain > min_gain needs key - threshold > min_gain / (2w), and w <= W_p
    // because v sits in p.
    c.rel = kRelSlack;
    c.cut += min_gain / (2.0 * wp) -
             kRelSlack * (std::abs(wp) + std::abs(wq) + comm_scale);
  }
  return c;
}

void PartPairGainIndex::collect(const Graph& g,
                                std::span<const double> part_weight,
                                double comm_scale, double min_gain,
                                std::vector<Candidate>& out) {
  GAPART_REQUIRE(min_gain >= 0.0, "improving candidates need min_gain >= 0, "
                 "got ", min_gain);
  for (std::size_t pair = 0; pair < heaps_.size(); ++pair) {
    auto& heap = heaps_[pair];
    while (!heap.empty() && stale(heap.front())) {
      std::pop_heap(heap.begin(), heap.end(), key_less);
      heap.pop_back();
    }
    if (heap.empty()) continue;
    const Cut cut = pair_cut(g, pair, part_weight, comm_scale, min_gain);
    // cut.passes is monotone in the key, so in the max-heap the passing
    // entries form a subtree at the root: walk only them and their children.
    std::size_t stale_seen = 0;
    std::size_t live = 0;
    dfs_.assign(cut.passes(heap.front().key) ? 1 : 0, 0);
    while (!dfs_.empty()) {
      const std::size_t i = dfs_.back();
      dfs_.pop_back();
      const Entry& e = heap[i];
      if (!cut.passes(e.key)) continue;
      if (stale(e)) {
        ++stale_seen;
      } else {
        out.push_back({e.v, static_cast<std::uint32_t>(pair), e.key, e.stamp});
        ++live;
      }
      for (std::size_t c = 2 * i + 1; c <= 2 * i + 2 && c < heap.size(); ++c) {
        dfs_.push_back(c);
      }
    }
    // Stale entries near the top are the vertices that just moved or were
    // re-keyed; once they outnumber the live hits, drop them.
    if (stale_seen > kStaleWalk && stale_seen > live) compact(pair);
  }
}

bool PartPairGainIndex::still_passes(const Graph& g, const Candidate& c,
                                     std::span<const double> part_weight,
                                     double comm_scale,
                                     double min_gain) const {
  if (c.stamp != stamp_[static_cast<std::size_t>(c.v)]) return true;
  return pair_cut(g, c.pair, part_weight, comm_scale, min_gain).passes(c.key);
}

}  // namespace gapart
