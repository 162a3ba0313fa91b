#include "graph/delta_codec.hpp"

#include <algorithm>
#include <limits>
#include <numeric>
#include <optional>
#include <vector>

#include "common/assert.hpp"
#include "common/byte_codec.hpp"

namespace gapart {

namespace {

constexpr std::uint32_t kCodecMagic = 0x31434447u;  // "GDC1"

void append_vertex_row(ByteWriter& out, const Graph& g, VertexId v) {
  out.put<double>(g.vertex_weight(v));
  const auto nbrs = g.neighbors(v);
  const auto wgts = g.edge_weights(v);
  out.put<std::uint64_t>(nbrs.size());
  for (std::size_t i = 0; i < nbrs.size(); ++i) {
    out.put<std::uint64_t>(static_cast<std::uint64_t>(nbrs[i]));
    out.put<double>(wgts[i]);
  }
}

}  // namespace

std::string encode_delta(const Graph& grown, const GraphDelta& delta) {
  const VertexId n_new = grown.num_vertices();
  GAPART_REQUIRE(delta.old_num_vertices >= 0 &&
                     delta.old_num_vertices <= n_new,
                 "delta old vertex count ", delta.old_num_vertices,
                 " out of range for |V| = ", n_new);
  std::string bytes;
  ByteWriter out(bytes);
  out.put<std::uint32_t>(kCodecMagic)
      .put<std::uint64_t>(static_cast<std::uint64_t>(delta.old_num_vertices))
      .put<std::uint64_t>(static_cast<std::uint64_t>(n_new))
      .put<std::uint64_t>(delta.touched_old.size());
  VertexId prev_id = -1;
  for (const VertexId v : delta.touched_old) {
    GAPART_REQUIRE(v > prev_id && v < delta.old_num_vertices,
                   "touched list must be sorted survivors; got ", v);
    prev_id = v;
    out.put<std::uint64_t>(static_cast<std::uint64_t>(v));
  }
  for (const VertexId v : delta.touched_old) append_vertex_row(out, grown, v);
  for (VertexId v = delta.old_num_vertices; v < n_new; ++v) {
    append_vertex_row(out, grown, v);
  }
  return bytes;
}

DecodedDelta decode_delta(const Graph& prev, std::string_view bytes) {
  ByteReader in(bytes, "delta record");
  GAPART_REQUIRE(in.get<std::uint32_t>() == kCodecMagic,
                 "delta record has wrong magic");
  const auto old_n64 = in.get<std::uint64_t>();
  const auto new_n64 = in.get<std::uint64_t>();
  GAPART_REQUIRE(old_n64 == static_cast<std::uint64_t>(prev.num_vertices()),
                 "delta record expects a ", old_n64,
                 "-vertex predecessor, got ", prev.num_vertices());
  GAPART_REQUIRE(new_n64 >= old_n64 && new_n64 <= (1ull << 31),
                 "implausible grown vertex count ", new_n64);
  const auto old_n = static_cast<VertexId>(old_n64);
  const auto new_n = static_cast<VertexId>(new_n64);

  const auto touched_count = in.get<std::uint64_t>();
  GAPART_REQUIRE(touched_count <= old_n64, "touched count ", touched_count,
                 " exceeds survivor count ", old_n64);
  // Every touched id takes 8 bytes and every recorded row at least 16, so a
  // count the remaining bytes cannot hold is corrupt — reject it before
  // sizing anything by it.
  GAPART_REQUIRE((touched_count * 3 + (new_n64 - old_n64) * 2) * 8 <=
                     in.remaining(),
                 "delta record too short for ", touched_count,
                 " touched and ", new_n64 - old_n64, " appended vertices");
  DecodedDelta out;
  auto& touched = out.delta.touched_old;
  out.delta.old_num_vertices = old_n;
  touched.reserve(static_cast<std::size_t>(touched_count));
  VertexId prev_id = -1;
  for (std::uint64_t i = 0; i < touched_count; ++i) {
    const auto v64 = in.get<std::uint64_t>();
    GAPART_REQUIRE(v64 < old_n64, "touched vertex ", v64, " not a survivor");
    const auto v = static_cast<VertexId>(v64);
    GAPART_REQUIRE(v > prev_id, "touched list not sorted ascending at ", v);
    prev_id = v;
    touched.push_back(v);
  }

  // Recorded vertices — touched survivors, then the appended range — are
  // numbered 0..recorded-1 in record order; -1 marks an untouched survivor.
  const auto slot_of = [&](VertexId v) -> std::ptrdiff_t {
    if (v >= old_n) {
      return static_cast<std::ptrdiff_t>(touched.size()) + (v - old_n);
    }
    const auto it = std::lower_bound(touched.begin(), touched.end(), v);
    return it != touched.end() && *it == v ? it - touched.begin() : -1;
  };
  const auto id_of = [&](std::size_t slot) {
    return slot < touched.size()
               ? touched[slot]
               : old_n + static_cast<VertexId>(slot - touched.size());
  };

  // Pass 1, O(damage * degree): parse the recorded rows into a small CSR.
  const std::size_t recorded =
      touched.size() + static_cast<std::size_t>(new_n - old_n);
  std::vector<std::size_t> rec_xadj{0};
  std::vector<VertexId> rec_adj;
  std::vector<double> rec_wgt;
  std::vector<double> rec_vwgt;
  rec_xadj.reserve(recorded + 1);
  rec_vwgt.reserve(recorded);
  bool rec_unit = true;
  for (std::size_t slot = 0; slot < recorded; ++slot) {
    const VertexId r = id_of(slot);
    const double vwgt = in.get<double>();
    GAPART_REQUIRE(vwgt > 0.0, "vertex ", r, " has weight ", vwgt);
    rec_vwgt.push_back(vwgt);
    rec_unit = rec_unit && vwgt == 1.0;
    const auto deg = in.get<std::uint64_t>();
    GAPART_REQUIRE(deg < new_n64, "vertex ", r, " claims degree ", deg,
                   " in a ", new_n64, "-vertex graph");
    VertexId prev_nbr = -1;
    for (std::uint64_t i = 0; i < deg; ++i) {
      const auto x64 = in.get<std::uint64_t>();
      const double w = in.get<double>();
      GAPART_REQUIRE(x64 < new_n64, "neighbour ", x64, " out of range");
      const auto x = static_cast<VertexId>(x64);
      GAPART_REQUIRE(x != r, "self-loop on vertex ", r);
      GAPART_REQUIRE(x > prev_nbr, "adjacency of ", r, " not sorted at ", x);
      GAPART_REQUIRE(w > 0.0, "edge (", r, ", ", x, ") has weight ", w);
      prev_nbr = x;
      rec_adj.push_back(x);
      rec_wgt.push_back(w);
      rec_unit = rec_unit && w == 1.0;
    }
    rec_xadj.push_back(rec_adj.size());
  }
  in.expect_end();

  // The seam checks, O(damage * degree).  Untouched rows are copied
  // verbatim, so the record must agree with them and with itself:
  //  - a recorded-untouched edge exists in the predecessor with the same
  //    weight (the untouched endpoint's row did not change);
  //  - a touched survivor's new row still lists every untouched neighbour
  //    it had, whose unchanged row still lists it;
  //  - two recorded rows list their shared edge on both sides with the
  //    same weight.
  const auto rec_weight = [&](std::size_t slot,
                              VertexId x) -> std::optional<double> {
    const VertexId* first = rec_adj.data() + rec_xadj[slot];
    const VertexId* last = rec_adj.data() + rec_xadj[slot + 1];
    const VertexId* it = std::lower_bound(first, last, x);
    if (it == last || *it != x) return std::nullopt;
    return rec_wgt[static_cast<std::size_t>(it - rec_adj.data())];
  };
  for (std::size_t slot = 0; slot < recorded; ++slot) {
    const VertexId r = id_of(slot);
    for (std::size_t i = rec_xadj[slot]; i < rec_xadj[slot + 1]; ++i) {
      const VertexId x = rec_adj[i];
      const double w = rec_wgt[i];
      const std::ptrdiff_t x_slot = slot_of(x);
      if (x_slot < 0) {
        const auto prev_w = prev.edge_weight(x, r);
        GAPART_REQUIRE(prev_w.has_value() && *prev_w == w,
                       "record edge (", r, ", ", x, ") disagrees with the ",
                       "predecessor at its untouched endpoint");
      } else {
        const auto back = rec_weight(static_cast<std::size_t>(x_slot), r);
        GAPART_REQUIRE(back.has_value() && *back == w, "recorded rows ", r,
                       " and ", x, " disagree on their shared edge");
      }
    }
  }
  for (std::size_t slot = 0; slot < touched.size(); ++slot) {
    const VertexId t = touched[slot];
    for (const VertexId x : prev.neighbors(t)) {
      GAPART_REQUIRE(slot_of(x) >= 0 || rec_weight(slot, x).has_value(),
                     "record drops edge (", t, ", ", x,
                     ") but lists untouched vertex ", x, " as unchanged");
    }
  }

  // Pass 2: splice.  Runs of untouched rows are copied in bulk with their
  // offsets shifted by a constant; recorded rows come from pass 1.
  const auto& pxadj = prev.xadj();
  std::size_t size = prev.adjncy().size() + rec_adj.size();
  for (const VertexId t : touched) {
    size -= static_cast<std::size_t>(prev.degree(t));
  }
  GAPART_REQUIRE(size <= static_cast<std::size_t>(
                             std::numeric_limits<std::int32_t>::max()),
                 "grown graph has ", size, " adjacency entries");
  Graph& g = out.grown;
  g.xadj_.resize(static_cast<std::size_t>(new_n) + 1);  // xadj_[0] = 0
  g.adjncy_.reserve(size);
  g.ewgt_.reserve(size);
  const auto at = [](VertexId v) { return static_cast<std::size_t>(v); };
  const auto append = [&g](const VertexId* adj, const double* wgt,
                           std::size_t len) {
    g.adjncy_.insert(g.adjncy_.end(), adj, adj + len);
    g.ewgt_.insert(g.ewgt_.end(), wgt, wgt + len);
  };
  const auto copy_untouched = [&](VertexId from, VertexId to) {
    const std::int32_t src = pxadj[at(from)];
    const std::int32_t shift =
        static_cast<std::int32_t>(g.adjncy_.size()) - src;
    append(prev.adjncy().data() + src, prev.ewgt().data() + src,
           static_cast<std::size_t>(pxadj[at(to)] - src));
    for (std::size_t v = at(from); v < at(to); ++v) {
      g.xadj_[v + 1] = pxadj[v + 1] + shift;
    }
  };
  const auto copy_recorded = [&](std::size_t slot) {
    const std::size_t first = rec_xadj[slot];
    append(rec_adj.data() + first, rec_wgt.data() + first,
           rec_xadj[slot + 1] - first);
    g.xadj_[at(id_of(slot)) + 1] = static_cast<std::int32_t>(g.adjncy_.size());
  };
  VertexId next = 0;
  for (std::size_t slot = 0; slot < touched.size(); ++slot) {
    copy_untouched(next, touched[slot]);
    copy_recorded(slot);
    next = touched[slot] + 1;
  }
  copy_untouched(next, old_n);
  for (std::size_t slot = touched.size(); slot < recorded; ++slot) {
    copy_recorded(slot);
  }

  g.vwgt_.reserve(static_cast<std::size_t>(new_n));
  g.vwgt_.assign(prev.vwgt().begin(), prev.vwgt().end());
  for (std::size_t slot = 0; slot < touched.size(); ++slot) {
    g.vwgt_[static_cast<std::size_t>(touched[slot])] = rec_vwgt[slot];
  }
  g.vwgt_.insert(g.vwgt_.end(),
                 rec_vwgt.begin() + static_cast<std::ptrdiff_t>(touched.size()),
                 rec_vwgt.end());
  // Summed in vertex order, as GraphBuilder does; n unit weights sum to n.
  if (prev.unit_weights() && rec_unit) {
    g.total_vwgt_ = static_cast<double>(new_n);
    g.unit_weights_ = true;
  } else {
    const auto is_unit = [](double w) { return w == 1.0; };
    g.total_vwgt_ = std::accumulate(g.vwgt_.begin(), g.vwgt_.end(), 0.0);
    g.unit_weights_ = std::all_of(g.vwgt_.begin(), g.vwgt_.end(), is_unit) &&
                      std::all_of(g.ewgt_.begin(), g.ewgt_.end(), is_unit);
  }
  return out;
}

}  // namespace gapart
