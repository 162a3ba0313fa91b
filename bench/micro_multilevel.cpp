// Multilevel-engine microbench: V-cycle GA vs flat GA at equal wall-clock,
// plus a million-vertex end-to-end partition + delta-repair row.
//
// Two question sets, emitted as JSON for the BENCH_multilevel.json
// trajectory:
//
//   equal_wallclock: on n x n grids, run the V-cycle engine to completion,
//             then give a flat DPGA-style GA (random init, DKNUX, offspring
//             hill climbing) the same wall-clock budget on the same mesh.
//             The acceptance claim — the V-cycle's cut beats the flat GA's
//             at >= 512^2 — is recorded per row as "vcycle_beats_flat".
//
//   end_to_end: partition a 1000 x 1000 grid (10^6 vertices) with the
//             V-cycle, open a PartitionSession on it, grow it by appended
//             rows, and repair the delta through apply_update — the full
//             partition-then-evolve lifecycle at a scale the flat GA cannot
//             touch.  The partition and the repair each repeat 5 times
//             (once under --quick); the row's `partition_seconds` and
//             `repair_seconds` are their medians.
//
//   ./bench/micro_multilevel [--quick] > multilevel.json
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <iostream>
#include <memory>
#include <vector>

#include "bench_common.hpp"
#include "common/cli.hpp"
#include "common/rng.hpp"
#include "common/timer.hpp"
#include "core/ga_engine.hpp"
#include "core/graph_delta.hpp"
#include "core/init.hpp"
#include "core/presets.hpp"
#include "core/vcycle_ga.hpp"
#include "graph/generators.hpp"
#include "graph/partition.hpp"
#include "service/session.hpp"

namespace {

using namespace gapart;

VcycleGaOptions bench_vcycle_options(PartId k) {
  VcycleGaOptions opt;
  opt.dpga = paper_dpga_config(k, Objective::kTotalComm);
  opt.dpga.ga.max_generations = 60;
  opt.dpga.ga.stall_generations = 12;
  opt.max_evolve_vertices = 4096;
  opt.level_population = 24;
  opt.level_max_generations = 15;
  opt.level_stall = 4;
  return opt;
}

/// Writes one equal-wallclock row; returns whether the V-cycle's cut beat
/// the flat GA's.
bool bench_equal_wallclock(JsonWriter& json, VertexId n, PartId k) {
  const Graph g = make_grid(n, n);

  Rng rng(0x5C1994 ^ static_cast<std::uint64_t>(n));
  const VcycleGaResult res = vcycle_ga_partition(g, bench_vcycle_options(k), rng);

  // The flat GA gets at least the V-cycle's budget on the same mesh.  A
  // smaller population than the paper's 320 keeps generations cheap at this
  // |V| — the flat GA's best configuration for a fixed wall-clock.
  const double budget = std::max(res.wall_seconds, 1.0);
  GaConfig flat = paper_ga_config(k, Objective::kTotalComm);
  flat.population_size = 64;
  flat.hill_climb_offspring = true;
  Rng frng(0x5C1994 ^ static_cast<std::uint64_t>(n));
  auto initial =
      make_random_population(g.num_vertices(), k, flat.population_size, frng);
  GaEngine engine(g, flat, std::move(initial), frng.split());
  WallTimer timer;
  while (timer.seconds() < budget) engine.step();
  const double flat_seconds = timer.seconds();
  const double flat_cut = engine.best().metrics.total_cut();
  const bool beats = res.metrics.total_cut() < flat_cut;
  json.begin_object()
      .field("n", n)
      .field("k", k)
      .field("levels", res.levels)
      .field("evolved_levels", res.evolved_levels)
      .field("vcycle_seconds", res.wall_seconds)
      .field("vcycle_cut", res.metrics.total_cut())
      .field("vcycle_imbalance", res.metrics.imbalance_sq)
      .field("flat_seconds", flat_seconds)
      .field("flat_cut", flat_cut)
      .field("flat_generations", engine.generation())
      .field("vcycle_beats_flat", beats)
      .end_object();
  return beats;
}

void bench_end_to_end(JsonWriter& json, VertexId n, VertexId grow_rows,
                      PartId k, int min_reps) {
  const auto g = std::make_shared<const Graph>(make_grid(n, n));

  // Every rep re-seeds the same Rng, so every rep returns this result.
  VcycleGaResult res;
  const Summary partition = bench::repeat(0.0, min_reps, [&] {
    Rng rng(0xE2E ^ static_cast<std::uint64_t>(n));
    res = vcycle_ga_partition(*g, bench_vcycle_options(k), rng);
  });

  // Grow by appended rows and repair through a session's per-delta path:
  // greedy extension, O(damage) rebind, seeded cascade, then at most 4
  // verification rounds under a budget that never binds.  The session's
  // O(V+E) construction at open is untimed setup.
  SessionConfig cfg;
  cfg.num_parts = k;
  cfg.repair_budget_seconds = 1e9;
  cfg.repair_max_verify_rounds = 4;
  const auto grown =
      std::make_shared<const Graph>(make_grid(n + grow_rows, n));
  const GraphDelta delta = diff_graphs(*g, *grown);
  VertexId damage = 0;
  double repaired_cut = 0.0;
  const Summary repair = bench::repeat(
      0.0, min_reps, [&] { return PartitionSession(g, res.assignment, cfg); },
      [&](PartitionSession& session) {
        damage = session.apply_update(grown, delta).damage;
        repaired_cut = session.snapshot()->total_cut;
      });
  json.begin_object()
      .field("n", n)
      .field("vertices", g->num_vertices())
      .field("edges", g->num_edges())
      .field("k", k)
      .field("levels", res.levels)
      .field("evolved_levels", res.evolved_levels)
      .field("partition_seconds", partition.median)
      .field("cut", res.metrics.total_cut())
      .field("imbalance", res.metrics.imbalance_sq)
      .field("grow_rows", grow_rows)
      .field("damage", damage)
      .field("repair_seconds", repair.median)
      .field("repaired_cut", repaired_cut);
  json.key("partition_timing").begin_object();
  bench::write_rep_stats(json, partition);
  json.end_object().key("repair_timing").begin_object();
  bench::write_rep_stats(json, repair);
  json.end_object().end_object();
}

}  // namespace

int main(int argc, char** argv) {
  CliArgs args(argc, argv);
  const bool quick = args.flag("quick") || quick_mode_enabled();

  const std::vector<VertexId> sizes = quick ? std::vector<VertexId>{64, 128}
                                            : std::vector<VertexId>{256, 512};
  JsonWriter json(std::cout);
  json.begin_object()
      .field("bench", "micro_multilevel")
      .key("equal_wallclock")
      .begin_array();
  bool all_beat = true;
  for (const VertexId n : sizes) all_beat &= bench_equal_wallclock(json, n, 8);
  json.end_array()
      .field("vcycle_beats_flat", all_beat)
      .key("end_to_end")
      .begin_array();
  bench_end_to_end(json, quick ? 256 : 1000, /*grow_rows=*/4, 8,
                   bench::min_reps(quick));
  json.end_array().end_object();
  std::cout << '\n';
  for (const auto& unused : args.unused()) {
    std::fprintf(stderr, "warning: unused flag --%s\n", unused.c_str());
  }
  return 0;
}
