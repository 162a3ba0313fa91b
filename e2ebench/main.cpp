// e2e_delta: drives PartitionService through one named workload and prints
// one JSON object (last stdout line) with the end-to-end and per-layer
// numbers; e2ebench/run.py turns that into the benchmark's result line.
//
//   e2e_delta --workload=grow_1m|skew_100k --seed=N --seconds=S
//             [--trace=0|1] [--trace-out=trace.json] [--setups=N]
//             [--updates=N] [--work-dir=DIR]
//   e2e_delta --selftest
//
// Each workload replays a fixed, seeded trace of round(S * rate) client
// changes (the rate is per workload, see kWorkloads), so every build under
// test does the same work and final quality is comparable; on a 4-core host
// the stream takes about S seconds.  The timed path of one update starts
// with the change in the client's native form (streams.hpp) and ends when
// submit_update returns.  README.md explains every metric.
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "common/cli.hpp"
#include "common/telemetry.hpp"
#include "core/vcycle_ga.hpp"
#include "graph/delta_codec.hpp"
#include "graph/generators.hpp"
#include "graph/partition.hpp"
#include "measure.hpp"
#include "selftest.hpp"
#include "service/replication.hpp"
#include "service/service.hpp"
#include "service/transport.hpp"
#include "streams.hpp"

namespace e2ebench {
namespace {

using namespace gapart;
namespace fs = std::filesystem;

// ------------------------------------------------------------ parameters --

struct WorkloadSpec {
  const char* name;
  /// Trace length per second of --seconds (fixed work; see file comment).
  double updates_per_second;
  /// Set-ups per run (setup_s is their median): more where one is short
  /// and noisy.
  int setups;
};

constexpr WorkloadSpec kWorkloads[] = {
    {"grow_1m", 2.4, 3},
    {"skew_100k", 10.0, 3},
};

const WorkloadSpec* find_workload(const std::string& name) {
  for (const WorkloadSpec& w : kWorkloads) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

/// grow_1m starts every seed from the same V-cycle partition (the seed
/// drives its change stream): where the growth lands relative to one
/// start's part boundaries would otherwise swing final_cost between seeds
/// far more than any build under test does.
constexpr std::uint64_t kGrowStartSeed = 0x5C1994;

/// The head of every stream is replayed but not timed: it pays for first
/// touches of memory the stream grows into and for the first refinement
/// jobs.
constexpr double kWarmupShare = 0.1;

/// Long enough that the reader stays a light load beside the client (a
/// read of the 10^6-vertex session takes about 1-2.5 ms).
constexpr double kReaderThinkSeconds = 0.02;
constexpr std::size_t kTraceEventsPerThread = 1u << 18;

struct RunConfig {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_out;
  int setups = 0;   ///< 0 = the workload's default
  int updates = 0;  ///< 0 = derived from seconds
  std::string work_dir;
};

/// Verification is capped by repair_max_verify_rounds alone: the budget is
/// far above any single repair, so repair work and quality are a function
/// of the trace, never of the wall clock.
SessionConfig session_config(PartId k) {
  SessionConfig c;
  c.num_parts = k;
  c.repair_budget_seconds = 3600.0;
  return c;
}

/// Lighter than the multilevel harness's options, because every run sets up
/// three times: on the skew_100k graph this halves the V-cycle (8.9 s ->
/// 4.3 s) for a start fitness 0.15% worse.
VcycleGaOptions start_options(PartId k) {
  VcycleGaOptions opt;
  opt.dpga = paper_dpga_config(k, Objective::kTotalComm);
  opt.dpga.ga.stall_generations = 12;
  opt.dpga.ga.max_generations = 30;
  opt.max_evolve_vertices = 1024;
  opt.level_population = 24;
  opt.level_max_generations = 8;
  opt.level_stall = 4;
  opt.refine_verify_passes = 2;
  return opt;
}

/// From-scratch V-cycle start; its report feeds the vcycle.* layer.
struct Start {
  Assignment assignment;
  int levels = 0;
  VertexId coarsest_vertices = 0;
  double seconds = 0.0;
};

Start vcycle_start(const Graph& g, PartId k, std::uint64_t seed) {
  Rng rng(seed);
  VcycleGaResult res = vcycle_ga_partition(g, start_options(k), rng);
  return {std::move(res.assignment), res.levels, res.coarsest_vertices,
          res.wall_seconds};
}

/// Removes its directory tree when destroyed (declare it first in a
/// deployment so it outlives every service writing into it).
struct ScratchDir {
  std::string path;
  explicit ScratchDir(std::string p) : path(std::move(p)) {
    fs::remove_all(path);
    fs::create_directories(path);
  }
  ~ScratchDir() {
    std::error_code ec;
    fs::remove_all(path, ec);
  }
  ScratchDir(const ScratchDir&) = delete;
  ScratchDir& operator=(const ScratchDir&) = delete;
};

// --------------------------------------------------------- client side --

struct ClientTally {
  std::vector<double> ack_ms;
  std::vector<double> sent_at;  ///< when each acked change was in hand
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::int64_t rejected = 0;
  std::int64_t damage = 0;
  std::int64_t examined = 0;
  std::int64_t repair_moves = 0;
  std::int64_t verify_rounds = 0;
  std::int64_t record_bytes = 0;
  std::int64_t codec_calls = 0;
  std::vector<std::string> errors;

  std::int64_t acked() const { return attempted - failed; }
};

/// One acknowledged update, as the client saw it.
struct Acked {
  RepairReport report;
  ServiceInput input;
  double acked_at = 0.0;
};

/// The timed path: native change in hand -> adapter -> submit_update
/// returned.  nullopt when the update failed or was rejected (the client
/// stops: its graph no longer matches the session's).
std::optional<Acked> client_update(PartitionService& svc, SessionId id,
                                   const Graph& current,
                                   const NativeDelta& change,
                                   ClientTally& tally) {
  ++tally.attempted;
  Acked out;
  const double t0 = now_seconds();
  try {
    BenchSpan ack("client.ack");
    {
      BenchSpan span("client.build");
      out.input = to_service_input(current, change);
    }
    {
      BenchSpan span("service.submit");
      out.report = svc.submit_update(id, out.input.grown, out.input.delta);
    }
  } catch (const OverloadError& e) {
    ++tally.failed;
    ++tally.rejected;
    tally.errors.push_back(e.what());
    return std::nullopt;
  } catch (const std::exception& e) {
    ++tally.failed;
    tally.errors.push_back(e.what());
    return std::nullopt;
  }
  out.acked_at = now_seconds();
  tally.ack_ms.push_back((out.acked_at - t0) * 1e3);
  tally.sent_at.push_back(t0);
  tally.damage += out.report.damage;
  tally.examined += out.report.examined;
  tally.repair_moves += out.report.repair_moves;
  tally.verify_rounds += out.report.verify_rounds;
  return out;
}

/// Traced runs only: the delta codec timed from outside, on the same input
/// the session logged (encode) and the standby/recovery replays (decode).
void measure_codec(const Graph& prev, const ServiceInput& in,
                   ClientTally& tally, Checks& checks) {
  try {
    std::string bytes;
    {
      BenchSpan span("codec.encode");
      bytes = encode_delta(*in.grown, in.delta);
    }
    std::int64_t edges = 0;
    {
      BenchSpan span("codec.decode");
      edges = decode_delta(prev, bytes).grown.num_edges();
    }
    checks.expect(edges == in.grown->num_edges(),
                  "decode_delta rebuilt a different edge count");
    tally.record_bytes += static_cast<std::int64_t>(bytes.size());
    ++tally.codec_calls;
  } catch (const std::exception& e) {
    checks.fail(std::string("delta codec: ") + e.what());
  }
}

/// Snapshot reader with a fixed think time: snapshot() plus one pass over
/// the assignment (is_valid_assignment), timed; also samples the pool
/// backlog.
class Reader {
 public:
  Reader(PartitionService& svc, std::vector<SessionId> ids, PartId k,
         std::uint64_t seed)
      : svc_(svc), ids_(std::move(ids)), k_(k), rng_(seed),
        thread_([this] { loop(); }) {}
  ~Reader() { stop(); }
  Reader(const Reader&) = delete;
  Reader& operator=(const Reader&) = delete;

  void stop() {
    stop_.store(true);
    if (thread_.joinable()) thread_.join();
  }

  std::vector<double> read_us;
  std::int64_t reads = 0;
  std::int64_t invalid = 0;
  int pending_max = 0;

 private:
  void loop() {
    while (!stop_.load()) {
      std::this_thread::sleep_for(
          std::chrono::duration<double>(kReaderThinkSeconds));
      const SessionId id =
          ids_[static_cast<std::size_t>(
              rng_.uniform_int(static_cast<int>(ids_.size())))];
      const double t0 = now_seconds();
      bool ok = false;
      try {
        const auto snap = svc_.snapshot(id);
        ok = is_valid_assignment(*snap->graph, snap->assignment, k_);
      } catch (const std::exception&) {
        ok = false;
      }
      read_us.push_back((now_seconds() - t0) * 1e6);
      ++reads;
      if (!ok) ++invalid;
      pending_max = std::max(pending_max, svc_.executor().pending());
    }
  }

  PartitionService& svc_;
  std::vector<SessionId> ids_;
  PartId k_;
  Rng rng_;
  std::atomic<bool> stop_{false};
  std::thread thread_;  // last: starts after every member it reads
};

// ---------------------------------------------------------- reporting --

struct Outcome {
  Metrics e2e;
  Metrics layers;
  Metrics info;
  Checks checks;
  ClientTally tally;
  std::int64_t reads = 0;
  std::int64_t invalid_reads = 0;
};

/// Registry histograms the stream phase reads.
struct StreamMarks {
  HistMark refine_wait, exec_wait, exec_task, ack_rtt, climb, vcycle, dpga;
  ServiceStats svc;

  static StreamMarks take(const PartitionService& svc) {
    return {HistMark::of("refine.queue_wait_seconds"),
            HistMark::of("executor.queue_wait_seconds"),
            HistMark::of("executor.task_seconds"),
            HistMark::of("replication.ack_rtt_seconds"),
            HistMark::of("span.refine.climb"),
            HistMark::of("span.refine.vcycle"),
            HistMark::of("span.refine.dpga"),
            svc.stats()};
  }
};

/// The repeated set-ups of one run: their times and V-cycle starts, and the
/// `span.vcycle.level` histogram around them.
struct SetupPhase {
  std::vector<double> seconds;
  std::vector<Start> starts;
  HistMark level0, level1;
};

/// The timed part of the client's stream: the acks after the warm-up head,
/// and the rate of those updates, from the first of them in hand to
/// `stream_end`.
struct TimedStream {
  std::vector<double> ack_ms;
  double updates_per_s = 0.0;
};

TimedStream timed_stream(const ClientTally& t, double stream_end) {
  const std::size_t n = t.ack_ms.size();
  const auto head =
      static_cast<std::size_t>(kWarmupShare * static_cast<double>(n));
  TimedStream out;
  out.ack_ms.assign(t.ack_ms.begin() + static_cast<std::ptrdiff_t>(head),
                    t.ack_ms.end());
  if (head < n) {
    out.updates_per_s =
        static_cast<double>(n - head) / (stream_end - t.sent_at[head]);
  }
  return out;
}

void report_stream(Outcome& out, const StreamMarks& a, const StreamMarks& b,
                   const Reader& reader, double stream_start,
                   double stream_end, const SetupPhase& setup) {
  const ClientTally& t = out.tally;
  const double acked = static_cast<double>(std::max<std::int64_t>(1, t.acked()));
  const TimedStream timed = timed_stream(t, stream_end);
  const Tail ack_tail = tail_of(timed.ack_ms);
  const Tail read_tail = tail_of(reader.read_us);

  out.e2e.set("ack_p50_ms", median(timed.ack_ms));
  out.e2e.set("ack_tail_ms", ack_tail.value);
  out.e2e.set("updates_per_s", timed.updates_per_s);
  out.layers.set("read_tail_us", read_tail.value);
  out.e2e.set("setup_s", median(setup.seconds));
  out.info.set("ack_tail_percentile", ack_tail.percentile);
  out.info.set("ack_tail_beyond", static_cast<double>(ack_tail.beyond));
  out.info.set("ack_samples", static_cast<double>(timed.ack_ms.size()));
  out.info.set("read_tail_percentile", read_tail.percentile);
  out.info.set("read_samples", static_cast<double>(reader.read_us.size()));
  out.info.set("stream_s", stream_end - stream_start);
  out.reads = reader.reads;
  out.invalid_reads = reader.invalid;

  Metrics& L = out.layers;
  L.set("delta.damage_per_update", static_cast<double>(t.damage) / acked);
  L.set("service.rejected", static_cast<double>(t.rejected));
  L.set("session.examined_per_update", static_cast<double>(t.examined) / acked);
  L.set("session.repair_moves_per_update",
        static_cast<double>(t.repair_moves) / acked);
  L.set("session.verify_rounds_per_update",
        static_cast<double>(t.verify_rounds) / acked);
  L.set("wal.bytes_per_update",
        static_cast<double>(b.svc.wal_bytes_appended - a.svc.wal_bytes_appended) /
            acked);
  L.set("wal.compactions",
        static_cast<double>(b.svc.wal_compactions - a.svc.wal_compactions));
  L.set("codec.record_bytes",
        t.codec_calls == 0 ? 0.0
                           : static_cast<double>(t.record_bytes) /
                                 static_cast<double>(t.codec_calls));
  L.set("replication.ack_rtt_ms", 1e3 * b.ack_rtt.mean_since(a.ack_rtt));
  // The standby's own numbers; grow_1m, the one workload with a standby,
  // overwrites them.
  for (const char* name :
       {"replication.standby_p50_ms", "replication.standby_tail_ms",
        "replication.frames_per_update", "replication.resumes"}) {
    L.set(name, 0.0);
  }

  const int planned = b.svc.refinements_planned - a.svc.refinements_planned;
  const int applied = b.svc.refinements_applied - a.svc.refinements_applied;
  L.set("refine.planned", planned);
  L.set("refine.applied", applied);
  L.set("refine.stale", b.svc.refinements_stale - a.svc.refinements_stale);
  L.set("refine.no_better",
        b.svc.refinements_no_better - a.svc.refinements_no_better);
  L.set("refine.yield",
        planned == 0 ? 0.0
                     : static_cast<double>(applied) / static_cast<double>(planned));
  L.set("refine.queue_wait_ms", 1e3 * b.refine_wait.mean_since(a.refine_wait));
  L.set("refine.climb_ms", 1e3 * b.climb.mean_since(a.climb));
  L.set("refine.vcycle_ms", 1e3 * b.vcycle.mean_since(a.vcycle));
  L.set("refine.dpga_ms", 1e3 * b.dpga.mean_since(a.dpga));

  std::vector<double> vc_s;
  for (const Start& s : setup.starts) vc_s.push_back(s.seconds);
  L.set("vcycle.partition_s", median(vc_s));
  L.set("vcycle.levels", setup.starts.back().levels);
  L.set("vcycle.coarsest_vertices", setup.starts.back().coarsest_vertices);
  L.set("vcycle.level_ms", 1e3 * setup.level1.mean_since(setup.level0));

  L.set("executor.queue_wait_ms", 1e3 * b.exec_wait.mean_since(a.exec_wait));
  L.set("executor.task_ms", 1e3 * b.exec_task.mean_since(a.exec_task));
  L.set("executor.pending_max", reader.pending_max);
}

/// The final published partition: recount with compute_metrics, compare
/// with what the snapshot claims, return the cost (negated Fitness1).
double check_final(PartitionService& svc, SessionId id, PartId k,
                   Checks& checks) {
  const auto snap = svc.snapshot(id);
  const PartitionMetrics m = compute_metrics(*snap->graph, snap->assignment, k);
  const double fitness = fitness_from_metrics(m, session_config(k).fitness);
  const auto close = [](double a, double b) {
    return std::abs(a - b) <= 1e-9 * std::max(1.0, std::abs(a));
  };
  checks.expect(close(fitness, snap->fitness) &&
                    close(m.total_cut(), snap->total_cut),
                "session " + std::to_string(id) +
                    ": snapshot cut/fitness differ from a recount");
  return -fitness;
}

void start_trace(const RunConfig& cfg) {
  if (cfg.trace) Tracer::instance().enable(kTraceEventsPerThread);
}

void finish_trace(const RunConfig& cfg, Outcome& out) {
  if (!cfg.trace) return;
  Tracer& tracer = Tracer::instance();
  tracer.disable();
  std::ofstream os(cfg.trace_out);
  tracer.export_chrome_trace(os);
  out.checks.expect(static_cast<bool>(os), "cannot write " + cfg.trace_out);
  out.info.set("trace_dropped_events",
               static_cast<double>(TelemetryRegistry::instance()
                                       .counter("telemetry.dropped_events")
                                       .value()));
}

int trace_length(const RunConfig& cfg) {
  if (cfg.updates > 0) return cfg.updates;
  const WorkloadSpec* w = find_workload(cfg.workload);
  return std::max(1, static_cast<int>(
                         std::lround(w->updates_per_second * cfg.seconds)));
}

int setup_count(const RunConfig& cfg) {
  return cfg.setups > 0 ? cfg.setups : find_workload(cfg.workload)->setups;
}

/// Repeats the workload's set-up, keeping only the last deployment in `d`;
/// `make` builds one and fills its Start.
template <typename Deploy, typename Make>
SetupPhase repeat_setup(const RunConfig& cfg, std::unique_ptr<Deploy>& d,
                        Outcome& out, Make make) {
  SetupPhase setup;
  setup.level0 = HistMark::of("span.vcycle.level");
  for (int i = 0; i < setup_count(cfg); ++i) {
    d.reset();  // tear the previous deployment down first (memory, disk)
    Start start;
    const double t0 = now_seconds();
    d = make(start);
    setup.seconds.push_back(now_seconds() - t0);
    setup.starts.push_back(std::move(start));
  }
  setup.level1 = HistMark::of("span.vcycle.level");
  out.info.set("setup_peak_rss_mb", peak_rss_mb());
  // Write back what set-up left dirty (checkpoints, snapshots) so the
  // stream's fsyncs do not pay for it.
  ::sync();
  return setup;
}

/// The measured phase every workload shares: `stream` runs the client
/// with the reader beside it (traced when asked), then the refinement
/// drain finishes what the stream scheduled, gives every policy one more
/// look and finishes that too; the stream and pool layers are reported.
template <typename Stream>
void measured_stream(const RunConfig& cfg, PartitionService& svc,
                     std::vector<SessionId> ids, PartId k,
                     const SetupPhase& setup, Outcome& out, Stream stream) {
  const StreamMarks m0 = StreamMarks::take(svc);
  Reader reader(svc, std::move(ids), k, cfg.seed ^ 0x7eadULL);
  start_trace(cfg);
  const double s0 = now_seconds();
  stream();
  const double s1 = now_seconds();
  reader.stop();
  svc.quiesce();
  svc.poll();
  svc.quiesce();
  finish_trace(cfg, out);
  report_stream(out, m0, StreamMarks::take(svc), reader, s0, s1, setup);
}

// ------------------------------------------------------------- grow_1m --
//
// One durable session on a 1000 x 1000 grid (k = 8, V-cycle start) with a
// warm standby over the in-process loopback transport.  One client appends
// one grid row per update and waits for the standby to apply it.

constexpr VertexId kGrowSide = 1000;
constexpr PartId kGrowParts = 8;

/// Cascade only: no full-boundary verification rounds, so repair stays the
/// damage-proportional sliver of the ack and the O(V + E) layers show.
SessionConfig grow_session_config() {
  SessionConfig c = session_config(kGrowParts);
  c.repair_max_verify_rounds = 0;
  return c;
}

struct GrowDeploy {
  ScratchDir dir;
  std::unique_ptr<LoopbackTransport> leader_end;
  std::unique_ptr<LoopbackTransport> standby_end;
  std::unique_ptr<PartitionService> leader;
  std::unique_ptr<PartitionService> standby;
  std::unique_ptr<ReplicationShipper> shipper;
  std::unique_ptr<ReplicationFollower> follower;
  std::shared_ptr<const Graph> graph;
  SessionId id = 0;

  explicit GrowDeploy(const std::string& path) : dir(path) {}

  ServiceConfig leader_config() const {
    ServiceConfig sc;
    sc.num_threads = 1;  // no background refinement: the pool stays idle
    sc.background_refinement = false;
    sc.durability.dir = dir.path + "/leader";
    sc.durability.ship_retain_bytes = 0;  // compaction waits for the shipper
    return sc;
  }
};

std::unique_ptr<GrowDeploy> setup_grow(const RunConfig& cfg, Start& start) {
  auto d = std::make_unique<GrowDeploy>(cfg.work_dir + "/grow_1m");
  d->graph = std::make_shared<const Graph>(make_grid(kGrowSide, kGrowSide));
  start = vcycle_start(*d->graph, kGrowParts, kGrowStartSeed);

  auto [leader_end, standby_end] = LoopbackTransport::create_pair();
  d->leader_end = std::move(leader_end);
  d->standby_end = std::move(standby_end);
  d->leader = std::make_unique<PartitionService>(d->leader_config());
  ServiceConfig ssc;
  ssc.num_threads = 1;
  ssc.background_refinement = false;
  ssc.durability.dir = d->dir.path + "/standby";
  ssc.durability.compaction.damage_threshold = 0;  // lockstep with leader
  ssc.durability.compaction.bytes_threshold = 0;
  d->standby = std::make_unique<PartitionService>(ssc);

  d->id = d->leader->open_session(d->graph, start.assignment,
                                  grow_session_config());
  d->shipper = std::make_unique<ReplicationShipper>(*d->leader, *d->leader_end);
  FollowerConfig fc;
  fc.base = grow_session_config();
  d->follower =
      std::make_unique<ReplicationFollower>(*d->standby, *d->standby_end, fc);
  d->follower->start_follower();
  const double deadline = now_seconds() + 120.0;
  while (d->follower->stats().opens_applied < 1) {
    d->shipper->pump();
    d->follower->pump(0.01);
    GAPART_REQUIRE(now_seconds() < deadline, "standby bootstrap timed out");
  }
  return d;
}

/// Pumps shipper and follower on the client thread until the standby has
/// applied `epoch`; false on timeout.
bool await_standby(GrowDeploy& d, std::uint64_t epoch) {
  const double deadline = now_seconds() + 120.0;
  while (d.follower->applied_epoch(d.id) < epoch) {
    {
      BenchSpan span("replication.ship");
      d.shipper->pump();
    }
    {
      BenchSpan span("replication.apply");
      d.follower->pump(0.0);
    }
    if (now_seconds() > deadline) return false;
  }
  return true;
}

Outcome run_grow(const RunConfig& cfg) {
  Outcome out;
  std::unique_ptr<GrowDeploy> d;
  const SetupPhase setup = repeat_setup(
      cfg, d, out, [&](Start& start) { return setup_grow(cfg, start); });

  GridRowGrowth growth(kGrowSide, cfg.seed ^ 0x90a1ULL);
  std::vector<double> standby_ms;
  std::uint64_t last_epoch = 0;
  const std::uint64_t frames0 = d->shipper->stats().frames_sent;
  measured_stream(cfg, *d->leader, {d->id}, kGrowParts, setup, out, [&] {
    std::shared_ptr<const Graph> current = d->graph;
    for (int u = 0; u < trace_length(cfg); ++u) {
      const NativeDelta change = growth.next(*current);
      auto acked =
          client_update(*d->leader, d->id, *current, change, out.tally);
      if (!acked) return;
      last_epoch = acked->report.update_epoch;
      if (!await_standby(*d, last_epoch)) {
        out.checks.fail("standby never applied epoch " +
                        std::to_string(last_epoch));
        return;
      }
      standby_ms.push_back((now_seconds() - acked->acked_at) * 1e3);
      if (cfg.trace) {
        measure_codec(*current, acked->input, out.tally, out.checks);
      }
      current = acked->input.grown;
    }
  });
  const Tail standby_tail = tail_of(standby_ms);
  out.layers.set("replication.standby_p50_ms", median(standby_ms));
  out.layers.set("replication.standby_tail_ms", standby_tail.value);
  out.info.set("standby_tail_percentile", standby_tail.percentile);
  const ShipperStats ship = d->shipper->stats();
  out.layers.set("replication.frames_per_update",
                 static_cast<double>(ship.frames_sent - frames0) /
                     static_cast<double>(std::max<std::int64_t>(
                         1, out.tally.acked())));
  out.layers.set("replication.resumes", static_cast<double>(ship.resumes));

  out.e2e.set("final_cost", check_final(*d->leader, d->id, kGrowParts,
                                        out.checks));
  const std::uint64_t digest = d->leader->session_handle(d->id)->state_digest();
  out.checks.expect(
      d->follower->applied_epoch(d->id) == last_epoch &&
          d->standby->session_handle(d->id)->state_digest() == digest,
      "standby state digest differs from the leader's");

  // Recovery: drop the leader without close, rebuild from its directory.
  const ServiceConfig leader_cfg = d->leader_config();
  d->follower.reset();
  d->shipper.reset();
  d->standby.reset();
  d->leader.reset();
  ::sync();  // the stream's writeback is not recovery's cost
  const double r0 = now_seconds();
  PartitionService fresh(leader_cfg);
  const auto reports = fresh.recover(grow_session_config());
  out.layers.set("recovery_s", now_seconds() - r0);
  out.checks.expect(reports.size() == 1 &&
                        reports[0].final_epoch == last_epoch &&
                        fresh.session_handle(d->id)->state_digest() == digest,
                    "recovered epoch/digest differ from the last ack");
  return out;
}

// ----------------------------------------------------------- skew_100k --
//
// One in-memory session on a 10^5-vertex Barabási–Albert graph (m = 4,
// k = 16), started from the V-cycle partition with 5% of the vertices
// scrambled.  One client appends 100 preferentially attached vertices per
// update; the pool has 2 threads (one worker) and runs light and deep
// refinement.

constexpr VertexId kSkewVertices = 100000;
constexpr int kSkewM = 4;
constexpr PartId kSkewParts = 16;
constexpr int kSkewGrowth = 100;

ServiceConfig skew_config() {
  ServiceConfig sc;
  sc.num_threads = 2;  // Executor(2): the caller plus one worker
  return sc;
}

struct SkewDeploy {
  std::unique_ptr<PartitionService> svc;
  std::shared_ptr<const Graph> graph;
  std::vector<VertexId> endpoints;
  SessionId id = 0;
};

std::unique_ptr<SkewDeploy> setup_skew(const RunConfig& cfg, Start& start) {
  auto d = std::make_unique<SkewDeploy>();
  Rng rng(cfg.seed ^ 0xba0001ULL);
  d->graph = std::make_shared<const Graph>(graph_from_edges(
      barabasi_albert(kSkewVertices, kSkewM, rng, &d->endpoints)));
  start = vcycle_start(*d->graph, kSkewParts, cfg.seed);
  Assignment a = start.assignment;
  for (VertexId i = 0; i < kSkewVertices / 20; ++i) {
    a[static_cast<std::size_t>(rng.uniform_int(kSkewVertices))] =
        static_cast<PartId>(rng.uniform_int(kSkewParts));
  }
  d->svc = std::make_unique<PartitionService>(skew_config());
  d->id = d->svc->open_session(d->graph, std::move(a),
                               session_config(kSkewParts));
  return d;
}

Outcome run_skew(const RunConfig& cfg) {
  Outcome out;
  std::unique_ptr<SkewDeploy> d;
  const SetupPhase setup = repeat_setup(
      cfg, d, out, [&](Start& start) { return setup_skew(cfg, start); });

  AttachmentStream stream(d->endpoints, kSkewM, Rng(cfg.seed ^ 0x5eedULL));
  measured_stream(cfg, *d->svc, {d->id}, kSkewParts, setup, out, [&] {
    std::shared_ptr<const Graph> current = d->graph;
    for (int u = 0; u < trace_length(cfg); ++u) {
      const NativeDelta change = stream.next(*current, kSkewGrowth);
      auto acked = client_update(*d->svc, d->id, *current, change, out.tally);
      if (!acked) return;
      if (cfg.trace) {
        measure_codec(*current, acked->input, out.tally, out.checks);
      }
      current = acked->input.grown;
    }
  });
  out.e2e.set("final_cost",
              check_final(*d->svc, d->id, kSkewParts, out.checks));

  // An in-memory service restarts from its last checkpoint: save it
  // (untimed), then time a fresh service opening it.
  const ScratchDir dir(cfg.work_dir + "/skew_100k");
  const std::string prefix = dir.path + "/checkpoint";
  d->svc->save_session(d->id, prefix);
  const std::uint64_t digest = d->svc->session_handle(d->id)->state_digest();
  d.reset();
  const double r0 = now_seconds();
  PartitionService fresh(skew_config());
  const SessionId id =
      fresh.open_session_from_files(prefix, session_config(kSkewParts));
  out.layers.set("recovery_s", now_seconds() - r0);
  out.checks.expect(fresh.session_handle(id)->state_digest() == digest,
                    "restored digest differs from the final state");
  return out;
}

// ---------------------------------------------------------------- main --

int run(const RunConfig& cfg) {
  if (find_workload(cfg.workload) == nullptr) {
    std::fprintf(stderr, "unknown workload '%s'\n", cfg.workload.c_str());
    return 2;
  }
  fs::create_directories(cfg.work_dir);
  Outcome out;
  if (cfg.workload == "grow_1m") out = run_grow(cfg);
  if (cfg.workload == "skew_100k") out = run_skew(cfg);
  out.e2e.set("peak_rss_mb", peak_rss_mb());

  for (const std::string& e : out.tally.errors) out.checks.failures.push_back(e);
  const std::int64_t attempted =
      out.tally.attempted + out.reads + out.checks.attempted;
  const std::int64_t failed =
      out.tally.failed + out.invalid_reads + out.checks.failed;
  if (out.invalid_reads > 0) {
    out.checks.failures.push_back(std::to_string(out.invalid_reads) +
                                  " snapshots failed is_valid_assignment");
  }
  out.layers.set("error_rate", static_cast<double>(failed) /
                                   static_cast<double>(std::max<std::int64_t>(
                                       1, attempted)));
  out.info.set("updates", static_cast<double>(out.tally.acked()));

  std::string failures = "[";
  for (std::size_t i = 0; i < out.checks.failures.size(); ++i) {
    if (i > 0) failures += ",";
    failures += json_string(out.checks.failures[i]);
  }
  failures += "]";
  std::printf(
      "{\"workload\":%s,\"seed\":%llu,\"correct\":%s,\"attempted\":%lld,"
      "\"failed\":%lld,\"failures\":%s,\"e2e\":%s,\"layers\":%s,\"info\":%s}\n",
      json_string(cfg.workload).c_str(),
      static_cast<unsigned long long>(cfg.seed), failed == 0 ? "true" : "false",
      static_cast<long long>(attempted), static_cast<long long>(failed),
      failures.c_str(), out.e2e.json().c_str(), out.layers.json().c_str(),
      out.info.json().c_str());
  std::fflush(stdout);
  return failed == 0 ? 0 : 1;
}

}  // namespace
}  // namespace e2ebench

int main(int argc, char** argv) {
  gapart::CliArgs args(argc, argv);
  if (args.flag("selftest")) return e2ebench::run_selftest();
  e2ebench::RunConfig cfg;
  cfg.workload = args.str("workload", "");
  cfg.seed = std::stoull(args.str("seed", "1"));
  cfg.seconds = args.real("seconds", 10.0);
  cfg.trace = args.integer("trace", 0) != 0;
  cfg.trace_out = args.str("trace-out", "trace.json");
  cfg.setups = std::max(0, static_cast<int>(args.integer("setups", 0)));
  cfg.updates = static_cast<int>(args.integer("updates", 0));
  cfg.work_dir = args.str("work-dir", ".bench_build/work");
  try {
    return e2ebench::run(cfg);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "e2e_delta: %s\n", e.what());
    return 1;
  }
}
