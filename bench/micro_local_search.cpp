// Local-search throughput microbench: the hill-climb / KL hot path.
//
// Measures moves/second and passes/second of sweep- and frontier-mode hill
// climbing and a capped KL refinement across mesh sizes and part counts,
// emitting JSON so the BENCH_local_search.json trajectory can track the
// boundary-driven refinement work.  Every row repeats its climb until
// --seconds is spent (at least 5 reps, 1 under --quick); `seconds` is the
// climb time summed over the reps:
//   ./bench/micro_local_search [--seconds=1.0] [--quick] > local_search.json
#include <algorithm>
#include <cstdint>
#include <iostream>
#include <vector>

#include "baselines/kl.hpp"
#include "bench_common.hpp"
#include "common/cli.hpp"
#include "common/rng.hpp"
#include "core/hill_climb.hpp"
#include "graph/generators.hpp"
#include "graph/partition.hpp"

namespace {

using namespace gapart;

/// How the initial assignment is produced.  `kRandom` is the GA-offspring
/// regime (boundary covers most of the mesh); `kPerturbed` is the
/// refinement / incremental-repartitioning regime: contiguous blocks with 2%
/// of vertices scrambled, so the boundary stays a thin front.
enum class StartKind { kRandom, kPerturbed };

struct Case {
  VertexId rows = 0;
  VertexId cols = 0;
  PartId k = 2;
  Objective objective = Objective::kTotalComm;
  StartKind start = StartKind::kRandom;
};

Assignment start_assignment(const Graph& g, PartId k, StartKind start,
                            std::uint64_t salt) {
  const VertexId n = g.num_vertices();
  Rng rng(0x5eed0000ULL ^ salt);
  Assignment a(static_cast<std::size_t>(n));
  if (start == StartKind::kRandom) {
    for (auto& p : a) p = static_cast<PartId>(rng.uniform_int(k));
    return a;
  }
  for (VertexId v = 0; v < n; ++v) {
    a[static_cast<std::size_t>(v)] = static_cast<PartId>(
        std::min<std::int64_t>(k - 1, static_cast<std::int64_t>(v) * k / n));
  }
  const int flips = std::max(1, static_cast<int>(n) / 50);  // 2% damage
  for (int i = 0; i < flips; ++i) {
    a[static_cast<std::size_t>(rng.uniform_int(n))] =
        static_cast<PartId>(rng.uniform_int(k));
  }
  return a;
}

std::uint64_t case_salt(const Case& c) {
  return static_cast<std::uint64_t>(c.rows) * 1000003ULL +
         static_cast<std::uint64_t>(c.k) * 101ULL +
         (c.objective == Objective::kWorstComm ? 7ULL : 0ULL) +
         (c.start == StartKind::kPerturbed ? 13ULL : 0ULL);
}

/// Writes one row: `timing` of the reps, the moves and passes summed over
/// them, and the fitness the last rep reached.
void write_row(JsonWriter& json, const char* name, const Case& c,
               const Summary& timing, std::int64_t moves, std::int64_t passes,
               double final_fitness) {
  const double seconds = bench::total_seconds(timing);
  json.begin_object()
      .field("name", name)
      .field("rows", c.rows)
      .field("cols", c.cols)
      .field("k", c.k)
      .field("objective", c.objective == Objective::kTotalComm ? "total_comm"
                                                              : "worst_comm")
      .field("start", c.start == StartKind::kPerturbed ? "perturbed" : "random")
      .field("moves", moves)
      .field("passes", passes)
      .field("seconds", seconds)
      .field("moves_per_sec", static_cast<double>(moves) / seconds)
      .field("passes_per_sec", static_cast<double>(passes) / seconds)
      .field("final_fitness", final_fitness);
  bench::write_rep_stats(json, timing);
  json.end_object();
}

/// Repeats full hill climbs from the same start assignment until the budget
/// is spent; state construction stays outside the timed region.
void bench_hill_climb(JsonWriter& json, const Graph& g, const Case& c,
                      HillClimbMode mode, double budget, int min_reps) {
  const Assignment start = start_assignment(g, c.k, c.start, case_salt(c));
  HillClimbOptions opt;
  opt.fitness = {c.objective, 1.0};
  opt.mode = mode;
  opt.max_passes = 50;
  std::int64_t moves = 0;
  std::int64_t passes = 0;
  double fitness = 0.0;
  const Summary timing = bench::repeat(
      budget, min_reps, [&] { return PartitionState(g, start, c.k); },
      [&](PartitionState& state) {
        const HillClimbResult res = hill_climb(state, opt);
        moves += res.moves;
        passes += res.passes;
        fitness = state.fitness(opt.fitness);
      });
  write_row(json,
            mode == HillClimbMode::kFrontier ? "hill_climb_frontier_ordered"
                                             : "hill_climb_sweep",
            c, timing, moves, passes, fitness);
}

/// KL with a per-pass move cap (full KL is quadratic in |V| and would drown
/// the bench); reported as moves applied per second of refinement.
void bench_kl(JsonWriter& json, const Graph& g, const Case& c, double budget,
              int min_reps) {
  const Assignment start = start_assignment(g, c.k, c.start, case_salt(c));
  KlOptions opt;
  opt.fitness = {c.objective, 1.0};
  opt.max_passes = 1;
  opt.max_moves_per_pass = 128;
  std::int64_t moves = 0;
  std::int64_t passes = 0;
  double fitness = 0.0;
  const Summary timing = bench::repeat(
      budget, min_reps, [&] { return PartitionState(g, start, c.k); },
      [&](PartitionState& state) {
        const KlResult res = kl_refine(state, opt);
        moves += res.moves_applied;
        passes += res.passes;
        fitness = state.fitness(opt.fitness);
      });
  write_row(json, "kl_capped", c, timing, moves, passes, fitness);
}

}  // namespace

int main(int argc, char** argv) {
  CliArgs args(argc, argv);
  const bool quick = args.flag("quick") || quick_mode_enabled();
  const double budget = args.real("seconds", quick ? 0.1 : 1.0);

  std::vector<Case> cases = {
      {32, 32, 4, Objective::kTotalComm, StartKind::kRandom},
      {64, 64, 16, Objective::kTotalComm, StartKind::kRandom},
      {64, 64, 16, Objective::kWorstComm, StartKind::kRandom},
      {64, 64, 16, Objective::kTotalComm, StartKind::kPerturbed},
      {64, 64, 16, Objective::kWorstComm, StartKind::kPerturbed},
  };
  if (!quick) {
    cases.push_back({128, 128, 16, Objective::kTotalComm, StartKind::kRandom});
    cases.push_back(
        {128, 128, 16, Objective::kTotalComm, StartKind::kPerturbed});
  }

  const int min_reps = bench::min_reps(quick);

  JsonWriter json(std::cout);
  json.begin_object()
      .field("bench", "micro_local_search")
      .key("results")
      .begin_array();
  for (const Case& c : cases) {
    const Graph g = make_grid(c.rows, c.cols);
    bench_hill_climb(json, g, c, HillClimbMode::kSweep, budget, min_reps);
    bench_hill_climb(json, g, c, HillClimbMode::kFrontier, budget, min_reps);
    if (c.rows <= 32) bench_kl(json, g, c, budget, min_reps);
  }
  json.end_array().end_object();
  std::cout << '\n';
  return 0;
}
