// Incremental-repair microbench: damage size vs repair cost.
//
// Two question sets, emitted as JSON for the BENCH_incremental_repair.json
// trajectory:
//
//   repair:   on an n x n grid with a contiguous block partition and d
//             scrambled vertices (localized damage), how much work does each
//             repair strategy do?  Strategies: worklist-seeded frontier
//             climb (with and without the full-boundary verification
//             rounds), full-boundary frontier, and the paper-faithful
//             sweep.  "examined" (gain-kernel probes) is the work unit; the
//             seeded cascade should track d while sweep tracks |V| — and,
//             at >= 512^2 / k=2, the thin-front regime ROADMAP asks about,
//             frontier vs sweep is answered by the same rows.
//
//   pipeline: one PartitionSession per row (service/session.hpp) absorbs
//             a grid grown by appended rows through apply_update — greedy
//             extension, O(damage) state rebind, seeded cascade and up to 4
//             verification rounds under a budget that never binds: moves /
//             probes / seconds of the whole per-delta repair, so its
//             damage-proportionality — not just the climb's — is on record.
//
// Every row repeats until --seconds is spent (at least 5 reps, 1 under
// --quick) and reports its reps' median / p25 / p75 seconds; a repair row's
// `seconds` is its climb time summed over the reps, a pipeline row's the
// median apply_update.
//
//   ./bench/micro_incremental_repair [--seconds=0.2] [--quick] > repair.json
#include <cstdint>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "common/cli.hpp"
#include "core/graph_delta.hpp"
#include "core/hill_climb.hpp"
#include "graph/generators.hpp"
#include "graph/partition.hpp"
#include "service/session.hpp"

namespace {

using namespace gapart;

void bench_repair(JsonWriter& json, const Graph& g, VertexId n, PartId k,
                  int damage, const std::string& method, double budget,
                  int min_reps) {
  // Same generator as the seeded-repair fuzz tests (bench_common).
  const bench::DamagedGrid d = bench::damaged_block_grid(
      n, k, damage,
      0xDA11A6E ^ (static_cast<std::uint64_t>(n) * 17 +
                   static_cast<std::uint64_t>(k)));

  HillClimbOptions opt;
  opt.max_passes = 50;
  const bool seeded = method == "seeded" || method == "seeded_noverify";
  if (method == "seeded_noverify") opt.verify_fixed_point = false;
  if (method == "frontier") opt.mode = HillClimbMode::kFrontier;
  if (method == "sweep") opt.mode = HillClimbMode::kSweep;

  // The O(V+E) PartitionState rebuild is untimed setup but counts against
  // the budget, so total bench wall-clock stays ~rows x budget even for
  // methods whose climbs are far cheaper than the rebuild.
  std::int64_t moves = 0;
  std::int64_t examined = 0;
  std::int64_t passes = 0;
  double fitness = 0.0;
  const Summary timing = bench::repeat(
      budget, min_reps, [&] { return PartitionState(g, d.start, k); },
      [&](PartitionState& state) {
        const HillClimbResult res = seeded
                                        ? hill_climb_from(state, d.damaged, opt)
                                        : hill_climb(state, opt);
        moves += res.moves;
        examined += res.examined;
        passes += res.passes;
        fitness = state.fitness(opt.fitness);
      });
  json.begin_object()
      .field("method", method)
      .field("n", n)
      .field("k", k)
      .field("damage", damage)
      .field("moves", moves)
      .field("examined", examined)
      .field("passes", passes)
      .field("seconds", bench::total_seconds(timing))
      .field("examined_per_rep",
             static_cast<double>(examined) / static_cast<double>(timing.count))
      .field("final_fitness", fitness);
  bench::write_rep_stats(json, timing);
  json.end_object();
}

void bench_pipeline(JsonWriter& json, VertexId n, VertexId grow_rows,
                    PartId k, double budget, int min_reps) {
  const auto old_g = std::make_shared<const Graph>(make_grid(n, n));
  const auto grown = std::make_shared<const Graph>(make_grid(n + grow_rows, n));

  // Previous partition: repaired block partition of the old grid (the
  // shared generator with zero damage).
  Assignment prev = bench::damaged_block_grid(n, k, /*damage=*/0, 0).start;
  HillClimbOptions settle;
  settle.mode = HillClimbMode::kFrontier;
  settle.max_passes = 10;
  hill_climb(*old_g, prev, k, settle);

  SessionConfig cfg;
  cfg.num_parts = k;
  cfg.repair_budget_seconds = 1e9;  // never binds: rounds are capped below
  cfg.repair_max_verify_rounds = 4;
  const GraphDelta delta = diff_graphs(*old_g, *grown);
  // A fresh session per rep, opened on the old grid as untimed setup.
  RepairReport r;
  const Summary timing = bench::repeat(
      budget, min_reps, [&] { return PartitionSession(old_g, prev, cfg); },
      [&](PartitionSession& session) {
        r = session.apply_update(grown, delta);
      });
  json.begin_object()
      .field("n", n)
      .field("grow_rows", grow_rows)
      .field("k", k)
      .field("damage", r.damage)
      .field("extend_moves", r.extend_moves)
      .field("repair_moves", r.repair_moves)
      .field("examined", r.examined)
      .field("verify_rounds", r.verify_rounds)
      .field("fitness_after", r.fitness_after)
      .field("seconds", timing.median);
  bench::write_rep_stats(json, timing);
  json.end_object();
}

}  // namespace

int main(int argc, char** argv) {
  CliArgs args(argc, argv);
  const bool quick = args.flag("quick") || quick_mode_enabled();
  const double budget = args.real("seconds", quick ? 0.02 : 0.2);

  std::vector<VertexId> sizes = quick ? std::vector<VertexId>{64, 128}
                                      : std::vector<VertexId>{128, 256, 512};
  std::vector<int> damages =
      quick ? std::vector<int>{8, 64} : std::vector<int>{8, 32, 128, 512};

  const int min_reps = bench::min_reps(quick);

  JsonWriter json(std::cout);
  json.begin_object()
      .field("bench", "micro_incremental_repair")
      .key("repair")
      .begin_array();
  for (const VertexId n : sizes) {
    const Graph g = make_grid(n, n);
    for (const PartId k : {PartId{2}, PartId{16}}) {
      for (const int d : damages) {
        if (d > static_cast<int>(n)) continue;  // keep damage localized
        bench_repair(json, g, n, k, d, "seeded", budget, min_reps);
        bench_repair(json, g, n, k, d, "seeded_noverify", budget, min_reps);
      }
      // Repartition-style baselines at one representative damage, also the
      // >= 512^2 / k=2 thin-front frontier-vs-sweep datapoint ROADMAP asks
      // to re-measure.
      const int d_rep = quick ? 64 : 128;
      bench_repair(json, g, n, k, d_rep, "frontier", budget, min_reps);
      bench_repair(json, g, n, k, d_rep, "sweep", budget, min_reps);
    }
  }

  json.end_array().key("pipeline").begin_array();
  const std::vector<VertexId> pipe_sizes =
      quick ? std::vector<VertexId>{64} : std::vector<VertexId>{64, 128, 256};
  for (const VertexId n : pipe_sizes) {
    for (const VertexId grow : {VertexId{1}, VertexId{4}, VertexId{16}}) {
      bench_pipeline(json, n, grow, 8, budget, min_reps);
    }
  }
  json.end_array().end_object();
  std::cout << '\n';
  return 0;
}
