#include "graph/partition.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "common/assert.hpp"
#include "common/byte_codec.hpp"

namespace gapart {

namespace {

// One content-hash item: two differently-seeded CRC32s over the item's raw
// bytes widened to 64 bits, then scrambled through a SplitMix64-style
// finalizer.  CRC alone is linear over GF(2); the finalizer breaks that
// linearity so the commutative (wrapping-add) combination below cannot be
// cancelled by a second coordinated change.
std::uint64_t hash_item(const void* data, std::size_t len) {
  const auto lo = static_cast<std::uint64_t>(crc32(data, len, 0x9e3779b9u));
  const auto hi = static_cast<std::uint64_t>(crc32(data, len, 0x85ebca6bu));
  std::uint64_t z = (hi << 32) | lo;
  z ^= z >> 30;
  z *= 0xbf58476d1ce4e5b9ULL;
  z ^= z >> 27;
  z *= 0x94d049bb133111ebULL;
  z ^= z >> 31;
  return z;
}

/// hash_item over two fields laid out back to back.
template <typename A, typename B>
std::uint64_t hash_pair(A a, B b) {
  char buf[sizeof(A) + sizeof(B)];
  std::memcpy(buf, &a, sizeof(A));
  std::memcpy(buf + sizeof(A), &b, sizeof(B));
  return hash_item(buf, sizeof(buf));
}

/// The content hash of (graph size, k, assignment, part weights): a
/// wrapping sum of per-item hashes, so it can be recomputed in any order.
std::uint64_t content_hash_of(VertexId n, PartId k, const Assignment& a,
                              const std::vector<double>& part_weight) {
  std::uint64_t h = hash_pair(static_cast<std::uint64_t>(n),
                              static_cast<std::int32_t>(k));
  for (VertexId v = 0; v < n; ++v) {
    h += hash_pair(static_cast<std::uint64_t>(v),
                   static_cast<std::int32_t>(a[static_cast<std::size_t>(v)]));
  }
  for (PartId q = 0; q < k; ++q) {
    h += hash_pair(static_cast<std::int32_t>(q),
                   part_weight[static_cast<std::size_t>(q)]);
  }
  return h;
}

}  // namespace

const char* objective_name(Objective o) {
  switch (o) {
    case Objective::kTotalComm:
      return "fitness1 (total communication)";
    case Objective::kWorstComm:
      return "fitness2 (worst-case communication)";
  }
  return "unknown";
}

bool is_valid_assignment(const Graph& g, const Assignment& a,
                         PartId num_parts) {
  if (static_cast<VertexId>(a.size()) != g.num_vertices()) return false;
  return std::all_of(a.begin(), a.end(),
                     [num_parts](PartId p) { return p >= 0 && p < num_parts; });
}

PartitionMetrics compute_metrics(const Graph& g, const Assignment& a,
                                 PartId num_parts) {
  GAPART_REQUIRE(num_parts >= 1, "need at least one part");
  GAPART_REQUIRE(is_valid_assignment(g, a, num_parts),
                 "invalid assignment for ", num_parts, " parts");
  PartitionMetrics m;
  m.part_weight.assign(static_cast<std::size_t>(num_parts), 0.0);
  m.part_cut.assign(static_cast<std::size_t>(num_parts), 0.0);

  const VertexId n = g.num_vertices();
  for (VertexId v = 0; v < n; ++v) {
    const auto q = static_cast<std::size_t>(a[static_cast<std::size_t>(v)]);
    m.part_weight[q] += g.vertex_weight(v);
    const auto nbrs = g.neighbors(v);
    const auto wgts = g.edge_weights(v);
    for (std::size_t i = 0; i < nbrs.size(); ++i) {
      if (a[static_cast<std::size_t>(nbrs[i])] !=
          a[static_cast<std::size_t>(v)]) {
        m.part_cut[q] += wgts[i];
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

double fitness_from_metrics(const PartitionMetrics& m,
                            const FitnessParams& params) {
  const double comm = params.objective == Objective::kTotalComm
                          ? m.sum_part_cut
                          : m.max_part_cut;
  return -(m.imbalance_sq + params.lambda * comm);
}

double evaluate_fitness(const Graph& g, const Assignment& a, PartId num_parts,
                        const FitnessParams& params) {
  return fitness_from_metrics(compute_metrics(g, a, num_parts), params);
}

PartitionState::PartitionState(const Graph& g, Assignment a, PartId num_parts)
    : g_(&g), num_parts_(num_parts), assign_(std::move(a)) {
  GAPART_REQUIRE(num_parts_ >= 1, "need at least one part");
  GAPART_REQUIRE(is_valid_assignment(g, assign_, num_parts_),
                 "invalid assignment for ", num_parts_, " parts");
  auto m = compute_metrics(g, assign_, num_parts_);
  part_weight_ = std::move(m.part_weight);
  part_cut_ = std::move(m.part_cut);
  sum_part_cut_ = m.sum_part_cut;
  imbalance_sq_ = m.imbalance_sq;
  mean_weight_ = g.total_vertex_weight() / static_cast<double>(num_parts_);

  const auto it = std::max_element(part_cut_.begin(), part_cut_.end());
  max_cut_cache_ = *it;
  max_cut_part_ = static_cast<PartId>(it - part_cut_.begin());
  max_cut_dirty_ = false;

  const auto n = static_cast<std::size_t>(g.num_vertices());
  ext_deg_.assign(n, 0);
  frontier_pos_.assign(n, -1);
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    const PartId p = assign_[static_cast<std::size_t>(v)];
    std::int32_t ext = 0;
    for (VertexId u : g.neighbors(v)) {
      ext += assign_[static_cast<std::size_t>(u)] != p;
    }
    ext_deg_[static_cast<std::size_t>(v)] = ext;
    if (ext > 0) {
      frontier_pos_[static_cast<std::size_t>(v)] =
          static_cast<std::int32_t>(frontier_.size());
      frontier_.push_back(v);
    }
  }

  conn_.resize(static_cast<std::size_t>(num_parts_));
  visit_flags_.resize(n);
}

double PartitionState::max_part_cut() const {
  if (max_cut_dirty_) {
    const auto it = std::max_element(part_cut_.begin(), part_cut_.end());
    max_cut_cache_ = *it;
    max_cut_part_ = static_cast<PartId>(it - part_cut_.begin());
    max_cut_dirty_ = false;
  }
  return max_cut_cache_;
}

double PartitionState::fitness(const FitnessParams& params) const {
  const double comm = params.objective == Objective::kTotalComm
                          ? sum_part_cut_
                          : max_part_cut();
  return -(imbalance_sq_ + params.lambda * comm);
}

void PartitionState::sync_frontier(VertexId u) {
  const auto i = static_cast<std::size_t>(u);
  const bool boundary = ext_deg_[i] > 0;
  const std::int32_t pos = frontier_pos_[i];
  if (boundary && pos < 0) {
    frontier_pos_[i] = static_cast<std::int32_t>(frontier_.size());
    frontier_.push_back(u);
  } else if (!boundary && pos >= 0) {
    const VertexId last = frontier_.back();
    frontier_[static_cast<std::size_t>(pos)] = last;
    frontier_pos_[static_cast<std::size_t>(last)] = pos;
    frontier_.pop_back();
    frontier_pos_[i] = -1;
  }
}

void PartitionState::move(VertexId v, PartId to) {
  GAPART_ASSERT(v >= 0 && v < g_->num_vertices());
  GAPART_ASSERT(to >= 0 && to < num_parts_);
  const PartId from = assign_[static_cast<std::size_t>(v)];
  if (from == to) return;

  const auto nbrs = g_->neighbors(v);
  const auto wgts = g_->edge_weights(v);

  // Single scan: connectivity of v into `from`/`to` plus the neighbours'
  // external-degree updates (v's part flips from `from` to `to`, so only
  // neighbours sitting in one of those two parts change boundary status).
  double wdeg = 0.0;
  double cf = 0.0;  // weight of v's edges into `from`
  double ct = 0.0;
  std::int32_t ext_after = 0;
  for (std::size_t i = 0; i < nbrs.size(); ++i) {
    const VertexId u = nbrs[i];
    const PartId p = assign_[static_cast<std::size_t>(u)];
    wdeg += wgts[i];
    ext_after += p != to;
    if (p == from) {
      cf += wgts[i];
      ++ext_deg_[static_cast<std::size_t>(u)];
      sync_frontier(u);
    } else if (p == to) {
      ct += wgts[i];
      --ext_deg_[static_cast<std::size_t>(u)];
      sync_frontier(u);
    }
  }

  // Cut update: only C(from) and C(to) change — an edge into a third part
  // stays cut either way.
  part_cut_[static_cast<std::size_t>(from)] += 2.0 * cf - wdeg;
  part_cut_[static_cast<std::size_t>(to)] += wdeg - 2.0 * ct;
  sum_part_cut_ += 2.0 * (cf - ct);

  // Load / imbalance update.
  const double w = g_->vertex_weight(v);
  const double wf = part_weight_[static_cast<std::size_t>(from)];
  const double wt = part_weight_[static_cast<std::size_t>(to)];
  imbalance_sq_ -= (wf - mean_weight_) * (wf - mean_weight_);
  imbalance_sq_ -= (wt - mean_weight_) * (wt - mean_weight_);
  part_weight_[static_cast<std::size_t>(from)] = wf - w;
  part_weight_[static_cast<std::size_t>(to)] = wt + w;
  imbalance_sq_ += (wf - w - mean_weight_) * (wf - w - mean_weight_);
  imbalance_sq_ += (wt + w - mean_weight_) * (wt + w - mean_weight_);

  assign_[static_cast<std::size_t>(v)] = to;
  ext_deg_[static_cast<std::size_t>(v)] = ext_after;
  sync_frontier(v);

  // Every key that read v's part: v's own and its neighbours'.
  if (gain_.index) {
    gain_.index->rekey(*g_, assign_, v);
    for (const VertexId u : nbrs) gain_.index->rekey(*g_, assign_, u);
  }

  // Max-cut cache: O(1) refresh, unless the arg-max part shrank.
  if (!max_cut_dirty_) {
    if (max_cut_part_ == from || max_cut_part_ == to) {
      const double at = part_cut_[static_cast<std::size_t>(max_cut_part_)];
      if (at < max_cut_cache_) {
        max_cut_dirty_ = true;
      } else {
        max_cut_cache_ = at;
      }
    }
    if (!max_cut_dirty_) {
      for (const PartId q : {from, to}) {
        if (part_cut_[static_cast<std::size_t>(q)] > max_cut_cache_) {
          max_cut_cache_ = part_cut_[static_cast<std::size_t>(q)];
          max_cut_part_ = q;
        }
      }
    }
  }
}

void PartitionState::rebind_grown(const Graph& grown,
                                  std::span<const VertexId> touched_old,
                                  std::span<const PartId> new_parts) {
  const Graph& old_g = *g_;
  const VertexId n_old = old_g.num_vertices();
  const VertexId n_new = grown.num_vertices();
  GAPART_REQUIRE(n_new >= n_old, "grown graph smaller than current graph");
  GAPART_REQUIRE(static_cast<VertexId>(new_parts.size()) == n_new - n_old,
                 "new_parts covers ", new_parts.size(), " vertices, expected ",
                 n_new - n_old);
  for (const PartId p : new_parts) {
    GAPART_REQUIRE(p >= 0 && p < num_parts_, "new part ", p,
                   " out of range for ", num_parts_, " parts");
  }
  VertexId prev = -1;
  for (const VertexId v : touched_old) {
    GAPART_REQUIRE(v >= 0 && v < n_old, "touched vertex ", v,
                   " is not a surviving vertex");
    GAPART_REQUIRE(v > prev, "touched_old must be strictly ascending");
    prev = v;
  }

  // Retract the touched survivors' old cut contributions and weights.  Cut
  // terms are per-endpoint (part_cut_[q] sums the outgoing edges of every
  // vertex in q), so retract-then-re-add per damaged vertex is exact: an
  // unchanged edge to an untouched neighbour keeps that neighbour's side
  // untouched, and its own side is re-added below.
  for (const VertexId v : touched_old) {
    const auto p = static_cast<std::size_t>(assign_[static_cast<std::size_t>(v)]);
    const auto nbrs = old_g.neighbors(v);
    const auto wgts = old_g.edge_weights(v);
    for (std::size_t i = 0; i < nbrs.size(); ++i) {
      if (assign_[static_cast<std::size_t>(nbrs[i])] !=
          assign_[static_cast<std::size_t>(v)]) {
        part_cut_[p] -= wgts[i];
      }
    }
    part_weight_[p] += grown.vertex_weight(v) - old_g.vertex_weight(v);
  }

  // Append the new vertices (parts from the caller, boundary synced below).
  // Growth is geometric (no exact reserve), so a stream of small deltas pays
  // amortized O(new) here, not O(V) per rebind.
  const auto sz_new = static_cast<std::size_t>(n_new);
  ext_deg_.resize(sz_new, 0);
  frontier_pos_.resize(sz_new, -1);
  for (std::size_t i = 0; i < new_parts.size(); ++i) {
    assign_.push_back(new_parts[i]);
    part_weight_[static_cast<std::size_t>(new_parts[i])] +=
        grown.vertex_weight(n_old + static_cast<VertexId>(i));
  }

  g_ = &grown;
  visit_flags_.grow(sz_new);

  // Re-add the damage set's cut contributions and boundary state from the
  // grown graph.  A neighbour of a new vertex, and either endpoint of a
  // changed edge, is in the damage set by precondition, so untouched
  // survivors' ext_deg_ / frontier membership stay valid.
  const auto readd = [&](VertexId v) {
    const PartId pv = assign_[static_cast<std::size_t>(v)];
    const auto nbrs = grown.neighbors(v);
    const auto wgts = grown.edge_weights(v);
    std::int32_t ext = 0;
    double cut = 0.0;
    for (std::size_t i = 0; i < nbrs.size(); ++i) {
      if (assign_[static_cast<std::size_t>(nbrs[i])] != pv) {
        cut += wgts[i];
        ++ext;
      }
    }
    part_cut_[static_cast<std::size_t>(pv)] += cut;
    ext_deg_[static_cast<std::size_t>(v)] = ext;
    sync_frontier(v);
  };
  for (const VertexId v : touched_old) readd(v);
  for (VertexId v = n_old; v < n_new; ++v) readd(v);
  // Only damaged rows changed, and every neighbour of a changed row is
  // damaged too, so the damage set holds every key that moved.
  if (gain_.index) {
    for (const VertexId v : touched_old) gain_.index->rekey(grown, assign_, v);
    for (VertexId v = n_old; v < n_new; ++v) {
      gain_.index->rekey(grown, assign_, v);
    }
  }

  // Derived O(k) state: the mean load moved with the total weight, so the
  // imbalance term is recomputed wholesale rather than patched per part.
  mean_weight_ = grown.total_vertex_weight() / static_cast<double>(num_parts_);
  sum_part_cut_ = 0.0;
  imbalance_sq_ = 0.0;
  for (PartId q = 0; q < num_parts_; ++q) {
    sum_part_cut_ += part_cut_[static_cast<std::size_t>(q)];
    const double d = part_weight_[static_cast<std::size_t>(q)] - mean_weight_;
    imbalance_sq_ += d * d;
  }
  const auto it = std::max_element(part_cut_.begin(), part_cut_.end());
  max_cut_cache_ = *it;
  max_cut_part_ = static_cast<PartId>(it - part_cut_.begin());
  max_cut_dirty_ = false;
}

double PartitionState::scan_connectivity(VertexId v) const {
  const auto nbrs = g_->neighbors(v);
  const auto wgts = g_->edge_weights(v);
  conn_.begin();
  double wdeg = 0.0;
  for (std::size_t i = 0; i < nbrs.size(); ++i) {
    conn_.add(assign_[static_cast<std::size_t>(nbrs[i])], wgts[i]);
    wdeg += wgts[i];
  }
  return wdeg;
}

PartitionState::ScanGainContext PartitionState::make_scan_context(
    VertexId v, PartId from, double wdeg,
    const FitnessParams& params) const {
  ScanGainContext ctx;
  ctx.from = from;
  ctx.wdeg = wdeg;
  ctx.w = g_->vertex_weight(v);
  const double wf = part_weight_[static_cast<std::size_t>(from)];
  ctx.imb_base = imbalance_sq_ -
                 (wf - mean_weight_) * (wf - mean_weight_) +
                 (wf - ctx.w - mean_weight_) * (wf - ctx.w - mean_weight_);
  ctx.base_fitness = fitness(params);
  return ctx;
}

double PartitionState::gain_from_scan(const ScanGainContext& ctx, PartId to,
                                      double others_max,
                                      const FitnessParams& params) const {
  const double cf = conn_[ctx.from];
  const double ct = conn_[to];

  const double wt = part_weight_[static_cast<std::size_t>(to)];
  const double new_imb =
      ctx.imb_base - (wt - mean_weight_) * (wt - mean_weight_) +
      (wt + ctx.w - mean_weight_) * (wt + ctx.w - mean_weight_);

  double new_comm = 0.0;
  if (params.objective == Objective::kTotalComm) {
    new_comm = sum_part_cut_ + 2.0 * (cf - ct);
  } else {
    const double d_from = 2.0 * cf - ctx.wdeg;
    const double d_to = ctx.wdeg - 2.0 * ct;
    double mx = others_max;
    mx = std::max(mx,
                  part_cut_[static_cast<std::size_t>(ctx.from)] + d_from);
    mx = std::max(mx, part_cut_[static_cast<std::size_t>(to)] + d_to);
    new_comm = mx;
  }
  return -(new_imb + params.lambda * new_comm) - ctx.base_fitness;
}

BestMove PartitionState::best_move(VertexId v, const FitnessParams& params,
                                   double min_gain) const {
  GAPART_ASSERT(v >= 0 && v < g_->num_vertices());
  BestMove best;
  if (!is_boundary(v)) return best;

  const PartId from = assign_[static_cast<std::size_t>(v)];
  const double wdeg = scan_connectivity(v);

  // Under kWorstComm every candidate needs max C(q) over q not in
  // {from, to}: precompute the top-2 cuts over q != from once (floored at 0,
  // like the legacy full scan), then each candidate is O(1).
  double top1 = 0.0;
  double top2 = 0.0;
  PartId top1_part = -1;
  if (params.objective == Objective::kWorstComm) {
    for (PartId q = 0; q < num_parts_; ++q) {
      if (q == from) continue;
      const double c = part_cut_[static_cast<std::size_t>(q)];
      if (c > top1) {
        top2 = top1;
        top1 = c;
        top1_part = q;
      } else if (c > top2) {
        top2 = c;
      }
    }
  }

  // Candidates come straight from the scan's touched list (unsorted); the
  // tie-break clause resolves equal gains to the lowest part id, exactly
  // like the legacy ascending neighbor_parts() probe loop.  Gains that
  // compare equal as doubles are bitwise identical, so this is
  // order-independent and deterministic.
  const ScanGainContext ctx = make_scan_context(v, from, wdeg, params);
  double best_gain = min_gain;
  for (const PartId to : conn_.touched()) {
    if (to == from) continue;
    const double others = to == top1_part ? top2 : top1;
    const double gain = gain_from_scan(ctx, to, others, params);
    ++best.candidates;
    if (gain > best_gain ||
        (gain == best_gain && best.to >= 0 && to < best.to)) {
      best_gain = gain;
      best.to = to;
    }
  }
  if (best.to >= 0) best.gain = best_gain;
  return best;
}

PartPairGainIndex& PartitionState::gain_index(const FitnessParams& params) {
  GAPART_REQUIRE(params.objective == Objective::kTotalComm,
                 "the gain index needs the total-communication objective: "
                 "the max-cut term does not split by part pair");
  if (!gain_.index || gain_.index->lambda() != params.lambda) {
    gain_.index = std::make_unique<PartPairGainIndex>(
        *g_, assign_, num_parts_, params.lambda, frontier_);
  }
  return *gain_.index;
}

std::vector<PartPairGainIndex::Candidate> PartitionState::candidate_snapshot(
    const FitnessParams& params, double min_gain) {
  std::vector<PartPairGainIndex::Candidate> out;
  gain_index(params).collect(*g_, part_weight_, comm_scale(params), min_gain,
                             out);
  std::sort(out.begin(), out.end(), [](const auto& x, const auto& y) {
    return x.v != y.v ? x.v < y.v : x.pair < y.pair;
  });
  return out;
}

bool PartitionState::may_still_improve(const PartPairGainIndex::Candidate& c,
                                       const FitnessParams& params,
                                       double min_gain) const {
  GAPART_ASSERT(gain_.index != nullptr);
  return gain_.index->still_passes(*g_, c, part_weight_, comm_scale(params),
                                   min_gain);
}

std::vector<VertexId> PartitionState::improving_candidates(
    const FitnessParams& params, double min_gain) {
  std::vector<VertexId> out;
  for (const auto& c : candidate_snapshot(params, min_gain)) {
    if (out.empty() || out.back() != c.v) out.push_back(c.v);
  }
  return out;
}

double PartitionState::move_gain(VertexId v, PartId to,
                                 const FitnessParams& params) const {
  GAPART_ASSERT(v >= 0 && v < g_->num_vertices());
  GAPART_ASSERT(to >= 0 && to < num_parts_);
  const PartId from = assign_[static_cast<std::size_t>(v)];
  if (from == to) return 0.0;

  const double wdeg = scan_connectivity(v);
  double others_max = 0.0;
  if (params.objective == Objective::kWorstComm) {
    for (PartId q = 0; q < num_parts_; ++q) {
      if (q == from || q == to) continue;
      others_max =
          std::max(others_max, part_cut_[static_cast<std::size_t>(q)]);
    }
  }
  return gain_from_scan(make_scan_context(v, from, wdeg, params), to,
                        others_max, params);
}

std::vector<VertexId> PartitionState::boundary_vertices() const {
  std::vector<VertexId> out = frontier_;
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<VertexId> PartitionState::filter_boundary(
    std::span<const VertexId> seeds) const {
  std::vector<VertexId> out;
  out.reserve(seeds.size());
  for (const VertexId v : seeds) {
    GAPART_REQUIRE(v >= 0 && v < g_->num_vertices(), "seed vertex ", v,
                   " out of range for |V| = ", g_->num_vertices());
    if (is_boundary(v)) out.push_back(v);
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

std::vector<PartId> PartitionState::neighbor_parts(VertexId v) const {
  const PartId from = assign_[static_cast<std::size_t>(v)];
  scan_connectivity(v);
  std::vector<PartId> out;
  for (const PartId p : conn_.touched()) {
    if (p != from) out.push_back(p);
  }
  std::sort(out.begin(), out.end());
  return out;
}

PartitionMetrics PartitionState::metrics() const {
  PartitionMetrics m;
  m.part_weight = part_weight_;
  m.part_cut = part_cut_;
  m.sum_part_cut = sum_part_cut_;
  m.max_part_cut = max_part_cut();
  m.imbalance_sq = imbalance_sq_;
  return m;
}

std::uint64_t PartitionState::content_hash() const {
  return content_hash_of(g_->num_vertices(), num_parts_, assign_,
                         part_weight_);
}

std::uint64_t assignment_content_hash(const Graph& g, const Assignment& a,
                                      PartId num_parts) {
  GAPART_REQUIRE(is_valid_assignment(g, a, num_parts),
                 "invalid assignment for ", num_parts, " parts");
  std::vector<double> weight(static_cast<std::size_t>(num_parts), 0.0);
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    weight[static_cast<std::size_t>(a[static_cast<std::size_t>(v)])] +=
        g.vertex_weight(v);
  }
  return content_hash_of(g.num_vertices(), num_parts, a, weight);
}

}  // namespace gapart
