// Telemetry overhead microbench: the per-record cost of each instrumentation
// primitive, and the end-to-end cost of a fully instrumented session repair
// loop, emitted as JSON for the BENCH_telemetry.json trajectory.
//
// Two sections:
//
//   micro:      ns/op for counter add, gauge set, sharded-histogram record,
//               plain LogHistogram record, a scoped span with the tracer
//               disabled (two clock reads + histogram record) and enabled
//               (+ ring append), plus the raw steady_clock read for scale.
//
//   end_to_end: a PartitionSession repair loop on a growth trace (appended
//               grid rows, the soak_service regime) run twice — tracer off,
//               tracer on — reporting updates/sec for each.  The span/counter
//               macros are live in both runs when GAPART_TELEMETRY is
//               compiled in; re-running the same binary from a
//               -DGAPART_TELEMETRY=OFF build gives the compiled-out baseline
//               (the emitted JSON is keyed by "telemetry_compiled_in" so the
//               two builds' outputs can sit side by side in
//               BENCH_telemetry.json).
//
// Every row repeats 5 times (once under --quick): ns/op and updates/sec
// come from the median rep, and each row carries its reps' median / p25 /
// p75 seconds (the micro rows under "micro_timing").
//
//   ./bench/micro_telemetry [--quick] > telemetry.json
#include <chrono>
#include <cstdint>
#include <iostream>
#include <memory>
#include <utility>
#include <vector>

#include "bench_common.hpp"
#include "common/cli.hpp"
#include "common/telemetry.hpp"
#include "core/graph_delta.hpp"
#include "graph/generators.hpp"
#include "graph/partition.hpp"
#include "service/session.hpp"

namespace {

using namespace gapart;

/// Keeps `v` observable so timed loops don't fold away.
inline void keep(double v) {
  static volatile double sink = 0.0;
  sink = sink + v;
}

/// Seconds per rep of `iters` calls of each instrumentation primitive.
std::vector<std::pair<const char*, Summary>> run_micro(std::int64_t iters,
                                                       int min_reps) {
  std::vector<std::pair<const char*, Summary>> rows;
  auto& reg = TelemetryRegistry::instance();
  const auto time_row = [&](const char* name, auto&& op) {
    rows.emplace_back(name, bench::repeat(0.0, min_reps, [&] {
                        for (std::int64_t i = 0; i < iters; ++i) op(i);
                      }));
  };

  time_row("steady_clock_now", [](std::int64_t) {
    keep(std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
             .count());
  });
  time_row("counter_add", [](std::int64_t i) {
    GAPART_COUNTER_ADD("bench.micro.counter", i & 1);
  });
  time_row("gauge_set",
           [](std::int64_t i) { GAPART_GAUGE_SET("bench.micro.gauge", i); });
  time_row("sharded_histogram_record", [](std::int64_t i) {
    GAPART_HISTOGRAM_RECORD("bench.micro.hist",
                            1e-6 * static_cast<double>(1 + (i & 1023)));
  });

  LogHistogram plain;
  time_row("plain_histogram_record", [&](std::int64_t i) {
    plain.record(1e-6 * static_cast<double>(1 + (i & 1023)));
  });
  keep(static_cast<double>(plain.count()));

  Tracer::instance().disable();
  time_row("span_tracer_disabled",
           [](std::int64_t) { GAPART_SPAN("bench.micro.span"); });

  Tracer::instance().enable();
  time_row("span_tracer_enabled",
           [](std::int64_t) { GAPART_SPAN("bench.micro.span"); });
  Tracer::instance().disable();
  Tracer::instance().clear();
  reg.reset_for_tests();
  return rows;
}

/// The soak_service growth regime: n x n grid growing by one appended row per
/// update, column-band start, synchronous repair only.  Each rep opens a
/// fresh session (untimed) and replays the trace.  Writes the row unless
/// `json` is null; returns updates/sec of the median rep.
double run_end_to_end(JsonWriter* json, const char* mode, VertexId n,
                      int updates, int min_reps) {
  SessionConfig cfg;
  cfg.num_parts = 8;
  cfg.repair_budget_seconds = 0.0;

  const auto base = std::make_shared<const Graph>(make_grid(n, n));
  double p50_repair_ms = 0.0;  // of the last rep's session
  const Summary timing = bench::repeat(
      0.0, min_reps,
      [&] { return PartitionSession(base, bench::column_bands(n, n, 8), cfg); },
      [&](PartitionSession& session) {
        auto prev = base;
        for (int u = 1; u <= updates; ++u) {
          auto next = std::make_shared<const Graph>(
              make_grid(n + static_cast<VertexId>(u), n));
          const GraphDelta delta = diff_graphs(*prev, *next);
          session.apply_update(next, delta);
          prev = std::move(next);
        }
        p50_repair_ms = session.stats().p50_repair_seconds * 1e3;
      });
  const double updates_per_sec = updates / timing.median;
  if (json != nullptr) {
    json->begin_object()
        .field("mode", mode)
        .field("updates", updates)
        .field("seconds", timing.median)
        .field("updates_per_sec", updates_per_sec)
        .field("p50_repair_ms", p50_repair_ms);
    bench::write_rep_stats(*json, timing);
    json->end_object();
  }
  return updates_per_sec;
}

}  // namespace

int main(int argc, char** argv) {
  CliArgs args(argc, argv);
  const bool quick = args.flag("quick") || quick_mode_enabled();
  const std::int64_t iters = quick ? 200'000 : 2'000'000;
  const VertexId n = quick ? 64 : 128;
  const int updates = quick ? 20 : 60;
  const int min_reps = bench::min_reps(quick);

  // Warm up the per-thread shard/ring registrations so the micro loops time
  // the steady state, not first-touch setup.
  GAPART_COUNTER_ADD("bench.micro.counter", 0);
  GAPART_HISTOGRAM_RECORD("bench.micro.hist", 1.0);

  const auto micro = run_micro(iters, min_reps);
  JsonWriter json(std::cout);
  json.begin_object()
      .field("bench", "micro_telemetry")
      .field("telemetry_compiled_in", kTelemetryCompiledIn)
      .key("micro_ns_per_op")
      .begin_object();
  for (const auto& [name, s] : micro) {
    json.field(name, s.median * 1e9 / static_cast<double>(iters));
  }
  json.end_object().key("micro_timing").begin_object();
  for (const auto& [name, s] : micro) {
    json.key(name).begin_object();
    bench::write_rep_stats(json, s);
    json.end_object();
  }
  json.end_object().key("end_to_end").begin_array();
  Tracer::instance().disable();
  // Discarded: page faults, allocator pools.
  run_end_to_end(nullptr, "warmup", n, updates, 1);
  const double off = run_end_to_end(&json, "tracer_off", n, updates, min_reps);
  Tracer::instance().enable();
  const double on = run_end_to_end(&json, "tracer_on", n, updates, min_reps);
  Tracer::instance().disable();
  json.end_array()
      .field("tracer_overhead_pct", (off - on) / off * 100.0)
      .end_object();
  std::cout << '\n';
  return 0;
}
