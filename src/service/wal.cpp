#include "service/wal.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "common/byte_codec.hpp"
#include "common/fault_injection.hpp"
#include "common/telemetry.hpp"
#include "common/timer.hpp"
#include "graph/io.hpp"

namespace gapart {

namespace fs = std::filesystem;

namespace {

constexpr std::uint32_t kFileMagic = 0x4c574147u;    // "GAWL"
constexpr std::uint32_t kFileVersion = 1u;
// Fixed fields: type u8 + flags u32 + epoch u64.
constexpr CrcFrameLayout kWalFrame{0x524c4157u /* "WALR" */, 13, 1u << 30};

/// Opens the record frame at the start of `bytes`: nullopt unless it is a
/// complete valid frame of a known type (the caller decides whether that
/// is a torn tail or corruption).
std::optional<OpenedCrcFrame> open_wal_frame(std::string_view bytes) {
  auto frame = open_crc_frame(kWalFrame, bytes);
  if (!frame.has_value()) return std::nullopt;
  const auto type = ByteReader(frame->fields).get<std::uint8_t>();
  if (type != static_cast<std::uint8_t>(WalRecordType::kDelta) &&
      type != static_cast<std::uint8_t>(WalRecordType::kRefine)) {
    return std::nullopt;
  }
  return frame;
}

/// Is there any fully valid frame at or after `from`?  Distinguishes a torn
/// tail (no — the file simply ends in a partial write) from corruption in
/// the middle of the log (yes — trusting later records would reorder
/// history, so recovery must refuse).
bool any_valid_frame_after(std::string_view bytes, std::size_t from) {
  for (std::size_t pos = from; pos < bytes.size(); ++pos) {
    if (open_wal_frame(bytes.substr(pos)).has_value()) return true;
  }
  return false;
}

/// Opens the frames of a whole log image from `offset` on, stopping at the
/// first invalid frame or the first frame ending past `limit`.  The image
/// must hold at least the file header, which is checked.
WalTail open_frames(const std::string& bytes, const std::string& path,
                    std::size_t offset, std::size_t limit) {
  ByteReader header(bytes, "WAL file header");
  if (header.get<std::uint32_t>() != kFileMagic ||
      header.get<std::uint32_t>() != kFileVersion) {
    throw WalCorruptError("'" + path + "' is not a gapart WAL (bad header)");
  }
  WalTail out;
  std::size_t pos = offset;
  while (pos < limit) {
    auto frame = open_wal_frame(std::string_view(bytes).substr(pos));
    if (!frame.has_value() || pos + frame->size > limit) break;
    WalRecord& rec = out.records.emplace_back();
    rec.type = static_cast<WalRecordType>(frame->fields.get<std::uint8_t>());
    rec.flags = frame->fields.get<std::uint32_t>();
    rec.epoch = frame->fields.get<std::uint64_t>();
    rec.payload = frame->payload;  // the one copy per record
    pos += frame->size;
    out.ends.push_back(pos);
  }
  out.end_offset = pos;
  return out;
}

void posix_fsync_fd(int fd, const char* what) {
  if (GAPART_FAULT_POINT(FaultSite::kWalFsync)) {
    throw IoError(std::string("injected fsync failure (") + what + ")");
  }
  if (::fsync(fd) != 0) {
    throw IoError(std::string("fsync failed (") + what + "): " +
                  std::strerror(errno));
  }
}

/// fsync a file (or directory) by path — used after temp-file renames so the
/// rename itself is durable, not just the data.
void fsync_path(const std::string& path, const char* what) {
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) {
    throw IoError("cannot open '" + path + "' to fsync (" + what + "): " +
                  std::strerror(errno));
  }
  try {
    posix_fsync_fd(fd, what);
  } catch (...) {
    ::close(fd);
    throw;
  }
  ::close(fd);
}

void rename_file(const std::string& from, const std::string& to) {
  std::error_code ec;
  fs::rename(from, to, ec);
  if (ec) {
    throw IoError("rename '" + from + "' -> '" + to + "' failed: " +
                  ec.message());
  }
}

}  // namespace

void write_file_atomic(const std::string& path, const std::string& content,
                       const std::string& dir) {
  const std::string tmp = path + ".tmp";
  {
    std::ofstream os(tmp, std::ios::binary | std::ios::trunc);
    if (!os.good()) throw IoError("cannot open '" + tmp + "' for writing");
    os.write(content.data(),
             static_cast<std::streamsize>(content.size()));
    if (GAPART_FAULT_POINT(FaultSite::kFileWrite)) {
      os.setstate(std::ios::badbit);
    }
    os.flush();
    if (!os.good()) throw IoError("write failed for '" + tmp + "'");
  }
  fsync_path(tmp, "atomic write");
  rename_file(tmp, path);
  fsync_path(dir, "atomic write dir");
}

namespace {

std::string read_small_file(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  if (!is.good()) throw IoError("cannot open '" + path + "' for reading");
  std::ostringstream buf;
  buf << is.rdbuf();
  if (is.bad()) throw IoError("read failed for '" + path + "'");
  return buf.str();
}

std::string snap_graph_path(const std::string& dir, std::uint64_t epoch) {
  return dir + "/snap-" + std::to_string(epoch) + ".graph";
}
std::string snap_part_path(const std::string& dir, std::uint64_t epoch) {
  return dir + "/snap-" + std::to_string(epoch) + ".part";
}

}  // namespace

WalReadResult read_log_file(const std::string& path) {
  WalReadResult out;
  std::error_code ec;
  if (!fs::exists(path, ec)) return out;

  const std::string bytes = read_small_file(path);
  if (bytes.size() < kWalLogHeaderBytes) {
    // A crash during log creation: nothing was ever appended.
    out.torn_tail = !bytes.empty();
    return out;
  }
  WalTail frames = open_frames(bytes, path, kWalLogHeaderBytes, bytes.size());
  out.records = std::move(frames.records);
  out.valid_bytes = frames.end_offset;
  if (out.valid_bytes < bytes.size()) {
    if (any_valid_frame_after(bytes, out.valid_bytes + 1)) {
      throw WalCorruptError(
          "'" + path + "' has a corrupt record at offset " +
          std::to_string(out.valid_bytes) + " followed by valid records — " +
          "refusing to replay past a hole in history");
    }
    out.torn_tail = true;
  }
  return out;
}

WalTail read_log_tail(const std::string& path, std::uint64_t offset,
                      std::uint64_t limit_bytes) {
  GAPART_REQUIRE(offset >= kWalLogHeaderBytes,
                 "tail reads start at or after the log header, got offset ",
                 offset);
  WalTail out;
  out.end_offset = offset;
  std::error_code ec;
  if (!fs::exists(path, ec)) return out;

  const std::string bytes = read_small_file(path);
  if (bytes.size() < kWalLogHeaderBytes || offset > bytes.size()) return out;
  return open_frames(
      bytes, path, static_cast<std::size_t>(offset),
      static_cast<std::size_t>(std::min<std::uint64_t>(limit_bytes,
                                                       bytes.size())));
}

std::string encode_assignment(const Assignment& assignment) {
  std::string out;
  out.reserve(8 + assignment.size() * 4);
  ByteWriter w(out);
  w.put<std::uint64_t>(assignment.size());
  for (const PartId p : assignment) w.put<std::int32_t>(p);
  return out;
}

Assignment decode_assignment(const std::string& payload) {
  ByteReader in(payload, "assignment payload");
  const auto n = in.get<std::uint64_t>();
  GAPART_REQUIRE(in.remaining() % 4 == 0 && n == in.remaining() / 4,
                 "assignment payload size mismatch: header says ", n,
                 " entries, payload has ", payload.size(), " bytes");
  Assignment a(static_cast<std::size_t>(n));
  for (PartId& p : a) p = in.get<std::int32_t>();
  return a;
}

// ---------------------------------------------------------------------------
// SessionWal

SessionWal::SessionWal(std::string dir, DurabilityConfig config)
    : dir_(std::move(dir)), config_(std::move(config)) {}

SessionWal::~SessionWal() {
  if (fd_ >= 0) ::close(fd_);
}

void SessionWal::open_log(std::uint64_t resume_at, bool truncate_all) {
  const std::string path = dir_ + "/wal.log";
  fd_ = ::open(path.c_str(), O_CREAT | O_WRONLY | O_APPEND, 0644);
  if (fd_ < 0) {
    throw IoError("cannot open '" + path + "': " + std::strerror(errno));
  }
  const std::uint64_t keep =
      truncate_all || resume_at < kWalLogHeaderBytes ? 0 : resume_at;
  if (::ftruncate(fd_, static_cast<off_t>(keep)) != 0) {
    throw IoError("cannot truncate '" + path + "': " + std::strerror(errno));
  }
  if (keep == 0) {
    std::string header;
    ByteWriter(header).put<std::uint32_t>(kFileMagic).put<std::uint32_t>(
        kFileVersion);
    append_frame_once(header);
    posix_fsync_fd(fd_, "log header");
  }
  // Whatever the file holds now *is* what survived — by definition durable.
  stats_.durable_bytes = keep == 0 ? kWalLogHeaderBytes : keep;
}

void SessionWal::append_frame_once(const std::string& frame) {
  if (GAPART_FAULT_POINT(FaultSite::kWalAppend)) {
    throw IoError("injected WAL write failure");
  }
  // Remember where this frame starts so a partial write can be rolled back
  // before the retry loop re-appends — otherwise the retry would leave a
  // torn frame followed by a valid one, which replay rightly refuses.
  const off_t start = ::lseek(fd_, 0, SEEK_END);
  std::size_t done = 0;
  while (done < frame.size()) {
    const ssize_t n = ::write(fd_, frame.data() + done, frame.size() - done);
    if (n < 0) {
      if (errno == EINTR) continue;
      const int err = errno;
      if (start >= 0) ::ftruncate(fd_, start);
      throw IoError(std::string("WAL write failed: ") + std::strerror(err));
    }
    done += static_cast<std::size_t>(n);
  }
}

void SessionWal::fsync_log() {
  GAPART_SPAN("wal.fsync");
  posix_fsync_fd(fd_, "wal");
  ++stats_.fsyncs;
}

void SessionWal::roll_back_to_durable() {
  try {
    retry_with_backoff(config_.io_retry, [&] {
      if (::ftruncate(fd_, static_cast<off_t>(stats_.durable_bytes)) != 0) {
        throw IoError(std::string("WAL rollback truncate failed: ") +
                      std::strerror(errno));
      }
      posix_fsync_fd(fd_, "wal rollback");
    });
  } catch (const IoError&) {
    broken_ = true;
  }
}

void SessionWal::append(WalRecordType type, std::uint64_t epoch,
                        std::uint32_t flags, const std::string& payload,
                        VertexId damage) {
  GAPART_SPAN("wal.append");
  if (broken_) {
    throw IoError("WAL '" + dir_ + "/wal.log' refuses appends: an earlier " +
                  "failed append could not be rolled back");
  }
  std::string fields;
  ByteWriter(fields)
      .put<std::uint8_t>(static_cast<std::uint8_t>(type))
      .put<std::uint32_t>(flags)
      .put<std::uint64_t>(epoch);
  const std::string frame = seal_crc_frame(kWalFrame, fields, payload);
  try {
    stats_.append_retries += static_cast<std::uint64_t>(retry_with_backoff(
        config_.io_retry, [&] { append_frame_once(frame); }));
    stats_.append_retries += static_cast<std::uint64_t>(
        retry_with_backoff(config_.io_retry, [&] { fsync_log(); }));
  } catch (const IoError&) {
    // Everything before this frame is durable (every append is fsynced), so
    // cutting the log back to durable_bytes removes exactly the frame the
    // caller is about to be told failed.  Left in place, the next
    // successful fsync would make it durable and replay would apply it.
    roll_back_to_durable();
    throw;
  }
  stats_.durable_bytes += frame.size();
  ++stats_.appends;
  stats_.bytes_appended += frame.size();
  GAPART_COUNTER_ADD("wal.append_bytes", frame.size());
  ++stats_.log_records;
  stats_.log_bytes += frame.size();
  stats_.log_damage += damage;
}

bool SessionWal::should_compact() const {
  CompactionSignals signals;
  signals.log_damage = stats_.log_damage;
  signals.log_bytes = stats_.log_bytes;
  signals.log_records = stats_.log_records;
  if (!decide_compaction(config_.compaction, signals)) return false;
  // Replicated session: truncating the log would drop records the shipper
  // has not streamed yet, forcing a snapshot resync.  Defer until the
  // shipper consumed the log, up to the retention bound.
  if (ship_gate_ != nullptr &&
      (config_.ship_retain_bytes == 0 ||
       stats_.log_bytes < config_.ship_retain_bytes) &&
      ship_gate_->consumed_offset.load(std::memory_order_acquire) <
          kWalLogHeaderBytes + stats_.log_bytes) {
    return false;
  }
  return true;
}

void SessionWal::write_snapshot_files(std::uint64_t epoch, const Graph& graph,
                                      const Assignment& assignment,
                                      std::uint64_t digest) {
  // Data files first (temp + rename + fsync), CURRENT last: CURRENT never
  // names an incomplete snapshot.
  write_file_atomic(snap_graph_path(dir_, epoch), format_graph(graph), dir_);
  write_file_atomic(snap_part_path(dir_, epoch), format_partition(assignment),
                    dir_);
  write_file_atomic(dir_ + "/CURRENT",
                    std::to_string(epoch) + " " + std::to_string(digest) +
                        "\n",
                    dir_);
}

void SessionWal::compact(std::uint64_t epoch, const Graph& graph,
                         const Assignment& assignment, std::uint64_t digest) {
  GAPART_SPAN("wal.compact");
  WallTimer timer;
  const std::uint64_t old_epoch = stats_.snapshot_epoch;
  try {
    write_snapshot_files(epoch, graph, assignment, digest);
    // CURRENT now points at the new snapshot; the log's records are all
    // <= epoch and would be skipped on replay, so truncating is safe — and
    // a crash right here leaves a stale-prefix log, which replay skips.
    if (::ftruncate(fd_, static_cast<off_t>(kWalLogHeaderBytes)) != 0) {
      throw IoError(std::string("WAL truncate failed: ") +
                    std::strerror(errno));
    }
    posix_fsync_fd(fd_, "wal truncate");
  } catch (const IoError&) {
    ++stats_.compaction_failures;
    throw;
  }
  stats_.snapshot_epoch = epoch;
  stats_.snapshot_digest = digest;
  stats_.log_records = 0;
  stats_.log_bytes = 0;
  stats_.log_damage = 0;
  stats_.durable_bytes = kWalLogHeaderBytes;
  ++stats_.compactions;
  stats_.last_compaction_seconds = timer.seconds();

  // Old snapshot files are garbage now; failures here cost only disk.
  if (old_epoch != epoch) {
    std::error_code ec;
    fs::remove(snap_graph_path(dir_, old_epoch), ec);
    fs::remove(snap_part_path(dir_, old_epoch), ec);
  }
}

std::unique_ptr<SessionWal> SessionWal::create(std::string dir,
                                               const DurabilityConfig& config,
                                               PartId num_parts,
                                               const FitnessParams& fitness,
                                               const Graph& graph,
                                               const Assignment& assignment,
                                               std::uint64_t snapshot_epoch,
                                               std::uint64_t snapshot_digest) {
  std::error_code ec;
  fs::create_directories(dir, ec);
  if (ec) {
    throw IoError("cannot create session directory '" + dir + "': " +
                  ec.message());
  }
  auto wal = std::unique_ptr<SessionWal>(new SessionWal(dir, config));

  std::ostringstream meta;
  meta << "gapart-session-meta v1\n"
       << "num_parts " << num_parts << '\n'
       << "objective " << static_cast<int>(fitness.objective) << '\n';
  meta.precision(17);
  meta << "lambda " << fitness.lambda << '\n';
  write_file_atomic(dir + "/meta", meta.str(), dir);

  wal->write_snapshot_files(snapshot_epoch, graph, assignment,
                            snapshot_digest);
  wal->stats_.snapshot_epoch = snapshot_epoch;
  wal->stats_.snapshot_digest = snapshot_digest;
  wal->open_log(0, /*truncate_all=*/true);
  return wal;
}

SessionWal::Recovered SessionWal::recover(std::string dir,
                                          const DurabilityConfig& config) {
  Recovered out;

  {
    std::istringstream meta(read_small_file(dir + "/meta"));
    std::string magic, version;
    meta >> magic >> version;
    GAPART_REQUIRE(magic == "gapart-session-meta" && version == "v1",
                   "'", dir, "/meta' is not a gapart session meta file");
    std::string key;
    while (meta >> key) {
      if (key == "num_parts") {
        int k = 0;
        meta >> k;
        out.num_parts = static_cast<PartId>(k);
      } else if (key == "objective") {
        int o = 0;
        meta >> o;
        out.fitness.objective = static_cast<Objective>(o);
      } else if (key == "lambda") {
        meta >> out.fitness.lambda;
      } else {
        std::string ignored;
        std::getline(meta, ignored);  // unknown key: forward compatibility
      }
      GAPART_REQUIRE(!meta.fail(), "malformed value for meta key '", key, "'");
    }
    GAPART_REQUIRE(out.num_parts >= 1, "meta file carries no num_parts");
  }

  {
    std::istringstream cur(read_small_file(dir + "/CURRENT"));
    cur >> out.snapshot_epoch;
    GAPART_REQUIRE(!cur.fail(), "'", dir, "/CURRENT' is malformed");
    // The digest is a later addition; a CURRENT written before it carries
    // only the epoch and reads back as digest 0 (= unknown).
    cur >> out.snapshot_digest;
    if (cur.fail()) out.snapshot_digest = 0;
  }

  out.graph = read_graph_file(snap_graph_path(dir, out.snapshot_epoch));
  out.assignment = read_partition_file(snap_part_path(dir, out.snapshot_epoch));
  GAPART_REQUIRE(
      static_cast<VertexId>(out.assignment.size()) == out.graph.num_vertices(),
      "snapshot partition has ", out.assignment.size(), " entries for a ",
      out.graph.num_vertices(), "-vertex snapshot graph");

  WalReadResult log = read_log_file(dir + "/wal.log");
  out.torn_tail = log.torn_tail;

  // Skip the stale prefix (a compaction that crashed between the CURRENT
  // rename and the log truncation leaves records <= snapshot epoch at the
  // front), then demand a gapless epoch chain: delta records advance the
  // epoch by exactly one, refinement records re-certify the current epoch.
  std::uint64_t epoch = out.snapshot_epoch;
  bool past_prefix = false;
  for (auto& rec : log.records) {
    if (!past_prefix && rec.epoch <= out.snapshot_epoch) continue;
    past_prefix = true;
    if (rec.type == WalRecordType::kDelta) {
      if (rec.epoch != epoch + 1) {
        throw WalCorruptError(
            "'" + dir + "/wal.log' jumps from epoch " + std::to_string(epoch) +
            " to " + std::to_string(rec.epoch) + " — records are missing");
      }
      epoch = rec.epoch;
    } else {
      if (rec.epoch != epoch) {
        throw WalCorruptError(
            "'" + dir + "/wal.log' has a refinement record for epoch " +
            std::to_string(rec.epoch) + " at epoch " + std::to_string(epoch));
      }
    }
    out.records.push_back(std::move(rec));
  }

  out.wal = std::unique_ptr<SessionWal>(new SessionWal(dir, config));
  out.wal->stats_.snapshot_epoch = out.snapshot_epoch;
  out.wal->stats_.snapshot_digest = out.snapshot_digest;
  out.wal->stats_.log_records = out.records.size();
  out.wal->stats_.log_bytes = log.valid_bytes > kWalLogHeaderBytes
                                  ? log.valid_bytes - kWalLogHeaderBytes
                                  : 0;
  out.wal->open_log(log.valid_bytes, /*truncate_all=*/false);
  return out;
}

}  // namespace gapart
