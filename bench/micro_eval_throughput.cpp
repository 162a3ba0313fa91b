// Evaluation-throughput microbench for the unified evaluation core.
//
// Reports evaluations/second on a >=10k-vertex mesh for:
//   * full O(V+E) chromosome evaluations, serial and batched on the Executor
//     at 1/2/4/8 threads (batch = one GA generation's worth of offspring),
//   * delta evaluations (PartitionState move_gain + move, the currency of
//     hill climbing and KL), and
//   * end-to-end offspring evaluation: GaEngine generations with hill
//     climbing enabled, serial vs pooled — the number that bounds GA wall
//     time.
//
// Every row repeats until --seconds is spent (at least 5 reps, 1 under
// --quick); `seconds` and `evaluations` are totals over the reps.  Emits a
// single JSON object so the perf trajectory can be tracked:
//   ./bench/micro_eval_throughput [--threads=1,2,4,8] [--quick] > eval.json
#include <algorithm>
#include <cstdio>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "common/cli.hpp"
#include "common/executor.hpp"
#include "common/rng.hpp"
#include "core/eval.hpp"
#include "core/ga_engine.hpp"
#include "core/init.hpp"
#include "graph/generators.hpp"

namespace {

using namespace gapart;

/// Writes one row: `evaluations` and `seconds` are totals over the reps of
/// `timing`; `serial_rate` is the serial row's evals/sec of the same family
/// (0 for a serial row itself).  Returns this row's evals/sec.
double write_row(JsonWriter& json, const char* name, int threads,
                 std::int64_t evaluations, const Summary& timing,
                 double serial_rate = 0.0) {
  const double seconds = bench::total_seconds(timing);
  const double rate = static_cast<double>(evaluations) / seconds;
  json.begin_object()
      .field("name", name)
      .field("threads", threads)
      .field("evaluations", evaluations)
      .field("seconds", seconds)
      .field("evals_per_sec", rate)
      .field("speedup_vs_serial", serial_rate > 0.0 ? rate / serial_rate : 1.0);
  bench::write_rep_stats(json, timing);
  json.end_object();
  return rate;
}

/// Defeats dead-code elimination of the measured evaluations.
void benchmark_sink(const std::vector<double>& results) {
  volatile double guard = 0.0;
  for (const double r : results) guard = r;
  (void)guard;
}

std::vector<int> parse_thread_list(const std::string& spec) {
  std::vector<int> out;
  std::stringstream ss(spec);
  std::string item;
  while (std::getline(ss, item, ',')) {
    try {
      const int t = std::stoi(item);
      if (t >= 1) out.push_back(t);
    } catch (const std::exception&) {
      std::fprintf(stderr, "ignoring bad thread count '%s'\n", item.c_str());
    }
  }
  if (out.empty()) out = {1, 2, 4, 8};
  return out;
}

/// Full evaluations of a pre-built chromosome batch, one batch per rep, on
/// `pool` (null = serial loop).
double bench_full(JsonWriter& json, const EvalContext& eval,
                  const std::vector<Assignment>& batch, Executor* pool,
                  double budget, int min_reps, double serial_rate = 0.0) {
  // Per-index result slots keep the evaluations observable without any
  // cross-thread writes to shared state.
  std::vector<double> results(batch.size(), 0.0);
  const Summary timing = bench::repeat(budget, min_reps, [&] {
    if (pool != nullptr) {
      pool->parallel_for(batch.size(), [&](std::size_t i) {
        results[i] = eval.evaluate(batch[i]);
      });
    } else {
      for (std::size_t i = 0; i < batch.size(); ++i) {
        results[i] = eval.evaluate(batch[i]);
      }
    }
  });
  benchmark_sink(results);
  return write_row(json,
                   pool != nullptr ? "full_eval_pooled" : "full_eval_serial",
                   pool != nullptr ? pool->num_threads() : 1,
                   static_cast<std::int64_t>(timing.count * batch.size()),
                   timing, serial_rate);
}

/// Delta evaluations: sweep boundary vertices via the single-scan gain
/// kernel and apply the best move — the hill-climb inner loop, one sweep per
/// rep.  One "delta" is one candidate part evaluated, matching the per-part
/// move_gain() count this bench used before the kernel existed.
void bench_delta(JsonWriter& json, const EvalContext& eval,
                 const Assignment& start, double budget, int min_reps) {
  PartitionState state(eval.graph(), start, eval.num_parts());
  std::int64_t deltas = 0;
  const Summary timing = bench::repeat(budget, min_reps, [&] {
    for (VertexId v = 0; v < eval.graph().num_vertices(); ++v) {
      if (!state.is_boundary(v)) continue;
      const BestMove best = state.best_move(v, eval.params(), 0.0);
      deltas += best.candidates;
      if (best.to >= 0) state.move(v, best.to);
    }
  });
  write_row(json, "delta_eval", 1, deltas, timing);
}

/// End-to-end offspring evaluation: GA generations with §3.6 hill climbing,
/// one whole run per rep, measuring (full + delta) evaluations per second.
double bench_offspring(JsonWriter& json, const Graph& g,
                       const std::vector<Assignment>& init, Executor* pool,
                       int generations, double budget, int min_reps,
                       double serial_rate = 0.0) {
  GaConfig cfg;
  cfg.num_parts = 8;
  cfg.population_size = 64;
  cfg.hill_climb_offspring = true;
  cfg.hill_climb_fraction = 0.25;
  cfg.max_generations = generations;

  std::int64_t evaluations = 0;
  const Summary timing = bench::repeat(budget, min_reps, [&] {
    GaEngine engine(g, cfg, init, Rng(42), pool);
    for (int s = 0; s < generations; ++s) engine.step();
    evaluations += engine.evaluations();
  });
  return write_row(
      json, pool != nullptr ? "offspring_eval_pooled" : "offspring_eval_serial",
      pool != nullptr ? pool->num_threads() : 1, evaluations, timing,
      serial_rate);
}

}  // namespace

int main(int argc, char** argv) {
  CliArgs args(argc, argv);
  const bool quick = args.flag("quick") || quick_mode_enabled();
  const double budget = args.real("seconds", quick ? 0.1 : 1.0);
  const auto thread_list =
      parse_thread_list(args.str("threads", "1,2,4,8"));
  const int generations = args.integer("gens", quick ? 2 : 8);

  // >=10k-vertex mesh workload (structured FE-style grid).
  const Graph g = make_grid(100, 100);
  Rng rng(0x9a94);
  EvalContext eval(g, 8, FitnessParams{});

  const int batch_size = 64;  // one generation's worth of offspring
  std::vector<Assignment> batch;
  for (int i = 0; i < batch_size; ++i) {
    batch.push_back(random_balanced_assignment(g.num_vertices(), 8, rng));
  }
  const auto init = make_random_population(g.num_vertices(), 8, 16, rng);

  const int min_reps = bench::min_reps(quick);
  JsonWriter json(std::cout);
  json.begin_object()
      .field("bench", "micro_eval_throughput")
      .key("graph")
      .begin_object()
      .field("vertices", g.num_vertices())
      .field("edges", g.num_edges())
      .end_object()
      .key("results")
      .begin_array();
  const double serial_full =
      bench_full(json, eval, batch, nullptr, budget, min_reps);
  for (const int t : thread_list) {
    Executor pool(t);
    bench_full(json, eval, batch, &pool, budget, min_reps, serial_full);
  }
  bench_delta(json, eval, batch.front(), budget, min_reps);
  const double serial_off =
      bench_offspring(json, g, init, nullptr, generations, budget, min_reps);
  for (const int t : thread_list) {
    Executor pool(t);
    bench_offspring(json, g, init, &pool, generations, budget, min_reps,
                    serial_off);
  }
  json.end_array().end_object();
  std::cout << '\n';
  return 0;
}
