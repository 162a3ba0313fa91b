#include "bench_common.hpp"

#include <algorithm>
#include <cstdio>

#include "common/assert.hpp"
#include "common/table.hpp"
#include "common/timer.hpp"
#include "core/init.hpp"

namespace gapart::bench {

RunSettings RunSettings::from_cli(const CliArgs& args, int default_gens,
                                  int default_stall,
                                  bool default_hill_climb) {
  RunSettings s;
  s.quick = args.flag("quick", quick_mode_enabled());
  s.runs = args.integer("runs", s.quick ? 2 : 5);
  s.max_generations = args.integer("gens", s.quick ? 60 : default_gens);
  s.stall_generations = args.integer("stall", s.quick ? 0 : default_stall);
  s.hill_climb = args.flag("hc", default_hill_climb);
  s.hill_climb_fraction = args.real("hc-fraction", s.hill_climb_fraction);
  s.base_seed = static_cast<std::uint64_t>(
      args.integer("seed", static_cast<int>(s.base_seed)));
  return s;
}

Assignment column_bands(VertexId rows, VertexId cols, PartId k) {
  Assignment a(static_cast<std::size_t>(rows * cols));
  for (VertexId v = 0; v < rows * cols; ++v) {
    a[static_cast<std::size_t>(v)] = static_cast<PartId>(
        std::min<std::int64_t>(k - 1, static_cast<std::int64_t>(v % cols) * k /
                                          cols));
  }
  return a;
}

DamagedGrid damaged_block_grid(VertexId n, PartId k, int damage,
                               std::uint64_t seed) {
  DamagedGrid out;
  const VertexId total = n * n;
  out.start.resize(static_cast<std::size_t>(total));
  for (VertexId v = 0; v < total; ++v) {
    out.start[static_cast<std::size_t>(v)] = static_cast<PartId>(
        std::min<std::int64_t>(k - 1, static_cast<std::int64_t>(v) * k / total));
  }
  // The scramble window is the 8n+1 cells around the centre — fewer on
  // grids small enough for the clamp below to fold it onto the edges.
  // Re-drawing on collision keeps `damaged` duplicate-free (the nominal
  // damage count is the number of distinct scrambled vertices), so the
  // window must stay strictly larger than the damage or the redraw loop
  // could never find a free cell.
  const std::int64_t window =
      std::min<std::int64_t>(8 * static_cast<std::int64_t>(n) + 1, total);
  GAPART_REQUIRE(damage < window, "damage ", damage, " not below the ",
                 window, "-cell scramble window of an n = ", n, " grid");
  Rng rng(seed);
  const VertexId center = total / 2;
  std::vector<char> hit(static_cast<std::size_t>(total), 0);
  for (int i = 0; i < damage; ++i) {
    // Scramble within a window around the centre so the damage is localized.
    VertexId v;
    do {
      v = static_cast<VertexId>(std::clamp<std::int64_t>(
          center + rng.uniform_int(-4 * static_cast<int>(n),
                                   4 * static_cast<int>(n)),
          0, total - 1));
    } while (hit[static_cast<std::size_t>(v)]);
    hit[static_cast<std::size_t>(v)] = 1;
    out.start[static_cast<std::size_t>(v)] =
        static_cast<PartId>(rng.uniform_int(k));
    out.damaged.push_back(v);
  }
  return out;
}

DpgaConfig harness_dpga_config(PartId num_parts, Objective objective,
                               const RunSettings& settings) {
  DpgaConfig cfg = paper_dpga_config(num_parts, objective);
  cfg.ga.max_generations = settings.max_generations;
  cfg.ga.stall_generations = settings.stall_generations;
  cfg.ga.hill_climb_offspring = settings.hill_climb;
  cfg.ga.hill_climb_fraction = settings.hill_climb_fraction;
  return cfg;
}

CellResult best_of_runs(const Graph& g, const DpgaConfig& config,
                        const InitFactory& init, const RunSettings& settings,
                        std::uint64_t salt) {
  CellResult cell;
  WallTimer timer;
  bool first = true;
  double sum_total = 0.0;
  double sum_max = 0.0;
  for (int run = 0; run < settings.runs; ++run) {
    Rng rng(settings.base_seed ^ (salt * 0x9e3779b97f4a7c15ULL) ^
            (static_cast<std::uint64_t>(run) << 32));
    auto initial = init(rng);
    const DpgaResult res = run_dpga(g, config, std::move(initial), rng.split());
    sum_total += res.best_metrics.total_cut();
    sum_max += res.best_metrics.max_part_cut;
    if (first || res.best_fitness > cell.best_fitness) {
      first = false;
      cell.best_fitness = res.best_fitness;
      cell.total_cut = res.best_metrics.total_cut();
      cell.max_part_cut = res.best_metrics.max_part_cut;
      cell.imbalance_sq = res.best_metrics.imbalance_sq;
      cell.generations = res.generations;
    }
  }
  cell.mean_total_cut = sum_total / settings.runs;
  cell.mean_max_part_cut = sum_max / settings.runs;
  cell.seconds = timer.seconds();
  return cell;
}

InitFactory random_init(const Graph& g, PartId num_parts, int population) {
  const VertexId n = g.num_vertices();
  return [n, num_parts, population](Rng& rng) {
    return make_random_population(n, num_parts, population, rng);
  };
}

InitFactory seeded_init(const Assignment& seed, int population,
                        double swap_fraction) {
  return [seed, population, swap_fraction](Rng& rng) {
    return make_seeded_population(seed, population, swap_fraction, rng);
  };
}

InitFactory incremental_init(const Graph& grown, const Assignment& previous,
                             PartId num_parts, int population,
                             double swap_fraction) {
  return [&grown, previous, num_parts, population,
          swap_fraction](Rng& rng) {
    return make_incremental_population(grown, previous, num_parts, population,
                                       swap_fraction, rng);
  };
}

void write_rep_stats(JsonWriter& json, const Summary& seconds) {
  json.field("reps", seconds.count)
      .field("median_s", seconds.median)
      .field("p25_s", seconds.p25)
      .field("p75_s", seconds.p75);
}

std::string paper_vs(double paper_value, double measured) {
  return format_double(paper_value, 0) + " / " + format_double(measured, 0);
}

void print_banner(const std::string& title, const std::string& paper_ref,
                  const RunSettings& settings) {
  std::printf("==================================================================\n");
  std::printf("%s\n", title.c_str());
  std::printf("Reproduces: %s\n", paper_ref.c_str());
  std::printf(
      "GA settings: DPGA, population 320 (16 islands, 4-cube), p_c=0.7, "
      "p_m=0.01\n");
  std::printf("Runs per cell: %d (tables report best run)  gens<=%d  stall=%d"
              "  hill-climb(3.6)=%s%s\n",
              settings.runs, settings.max_generations,
              settings.stall_generations,
              settings.hill_climb ? "on" : "off",
              settings.quick ? "  [QUICK MODE]" : "");
  std::printf(
      "Note: graphs are regenerated FE-style meshes (the paper's graphs were\n"
      "never published); compare shapes and ratios, not absolute values.\n");
  std::printf("==================================================================\n\n");
}

}  // namespace gapart::bench
