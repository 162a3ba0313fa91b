// The shared byte codec (common/byte_codec) and a deterministic mutation
// loop over every binary parser built on it: the WAL log reader,
// decode_rep_frame, decode_open_payload, decode_assignment and
// decode_delta.  Starting from real encodings, each parser gets bit flips,
// truncations, extensions and length/count fields forced to 0, max, max-7
// and 2^62+1.  Every mutated input must yield nullopt, a gapart::Error, or
// a value that re-encodes to exactly the input — never another exception,
// an out-of-range read, or a silently different value.
#include "common/byte_codec.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <exception>
#include <filesystem>
#include <fstream>
#include <functional>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "core/graph_delta.hpp"
#include "graph/delta_codec.hpp"
#include "graph/generators.hpp"
#include "graph/io.hpp"
#include "service/replication.hpp"
#include "service/wal.hpp"

namespace gapart {
namespace {

namespace fs = std::filesystem;

constexpr std::uint64_t kU64Max = std::numeric_limits<std::uint64_t>::max();

// ---------------------------------------------------------------------------
// ByteWriter / ByteReader

TEST(ByteCodec, WriterAndReaderRoundTripFields) {
  std::string bytes;
  ByteWriter(bytes)
      .put<std::uint8_t>(7)
      .put<std::int32_t>(-3)
      .put<std::uint64_t>(1ull << 40)
      .put<double>(0.25)
      .put_bytes("tail");
  EXPECT_EQ(bytes.size(), 1u + 4 + 8 + 8 + 4);
  ByteReader in(bytes);
  EXPECT_EQ(in.get<std::uint8_t>(), 7u);
  EXPECT_EQ(in.get<std::int32_t>(), -3);
  EXPECT_EQ(in.get<std::uint64_t>(), 1ull << 40);
  EXPECT_EQ(in.get<double>(), 0.25);
  EXPECT_EQ(in.remaining(), 4u);
  EXPECT_THROW(in.expect_end(), Error);
  EXPECT_EQ(in.take(4), "tail");
  EXPECT_NO_THROW(in.expect_end());
  EXPECT_THROW(in.get<std::uint8_t>(), Error);
}

TEST(ByteCodec, ShortAndOversizedReadsThrowWithoutMoving) {
  const std::string bytes = "abcdef";
  ByteReader in(bytes, "probe");
  EXPECT_EQ(in.take(2), "ab");
  // Lengths whose `pos + n` would wrap must still be refused.
  const std::uint64_t lengths[] = {5, kU64Max, kU64Max - 1, kU64Max - 7,
                                   (1ull << 62) + 1};
  for (const std::uint64_t n : lengths) {
    EXPECT_THROW(in.take(n), Error) << n;
    EXPECT_EQ(in.pos(), 2u);
  }
  EXPECT_THROW(in.get<std::uint64_t>(), Error);
  EXPECT_EQ(in.get<std::uint32_t>(), 0x66656463u);  // "cdef", little-endian
  try {
    in.take(1);
    ADD_FAILURE() << "read past the end did not throw";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("probe truncated"),
              std::string::npos);
  }
}

// ---------------------------------------------------------------------------
// The CRC frame pair

constexpr CrcFrameLayout kTestFrame{0x54534554u, 3, 64};

std::string test_frame(std::string_view payload) {
  return seal_crc_frame(kTestFrame, "xyz", payload);
}

TEST(ByteCodec, SealedFrameOpensWithItsFieldsAndPayload) {
  const std::string frame = test_frame("payload");
  ASSERT_EQ(frame.size(), kTestFrame.header_size() + 7);
  // Trailing bytes after a frame belong to the next one.
  const std::string stream = frame + "next";
  auto opened = open_crc_frame(kTestFrame, stream);
  ASSERT_TRUE(opened.has_value());
  EXPECT_EQ(opened->size, frame.size());
  EXPECT_EQ(opened->payload, "payload");
  EXPECT_EQ(opened->fields.take(3), "xyz");
  EXPECT_NO_THROW(opened->fields.expect_end());
}

TEST(ByteCodec, OpenRejectsTornCorruptAndOversizedFrames) {
  const std::string frame = test_frame("payload");
  for (std::size_t keep = 0; keep < frame.size(); ++keep) {
    const std::string torn = frame.substr(0, keep);
    EXPECT_FALSE(open_crc_frame(kTestFrame, torn).has_value())
        << "keep " << keep;
  }
  for (std::size_t byte = 0; byte < frame.size(); ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      std::string flipped = frame;
      flipped[byte] = static_cast<char>(flipped[byte] ^ (1 << bit));
      EXPECT_FALSE(open_crc_frame(kTestFrame, flipped).has_value())
          << "byte " << byte << " bit " << bit;
    }
  }
  // A payload length above the layout's limit is refused before any read.
  const CrcFrameLayout roomy{kTestFrame.magic, 3, 1000};
  const std::string big = seal_crc_frame(roomy, "xyz", std::string(100, 'p'));
  EXPECT_TRUE(open_crc_frame(roomy, big).has_value());
  EXPECT_FALSE(open_crc_frame(kTestFrame, big).has_value());
  EXPECT_THROW(test_frame(std::string(65, 'p')), Error);
  EXPECT_THROW(seal_crc_frame(kTestFrame, "xy", ""), Error);
}

// ---------------------------------------------------------------------------
// Mutation loop over the real parsers

/// A length or count field inside a seed encoding.
struct Field {
  std::size_t offset;
  std::size_t width;  // 4 or 8
};

struct Seed {
  std::string bytes;
  std::vector<Field> fields;
};

struct Target {
  std::string name;
  std::vector<Seed> seeds;
  /// Parses `bytes`; on success asserts the value re-encodes to `bytes`.
  std::function<void(const std::string&)> check;
};

void write_field(std::string& bytes, std::size_t offset, std::size_t width,
                 std::uint64_t value) {
  if (offset + width > bytes.size()) return;
  std::memcpy(bytes.data() + offset, &value, width);  // little-endian low part
}

/// Applies one mutation to `out`.
void mutate_once(const Seed& seed, Rng& rng, std::string& out) {
  static const std::uint64_t kSpecial[] = {0, kU64Max, kU64Max - 7,
                                           (1ull << 62) + 1};
  const auto special = [&](std::size_t width) -> std::uint64_t {
    const std::uint64_t v = kSpecial[rng.uniform_int(4)];
    // max and max-7 keep their meaning at the field's own width.
    if (width == 4 && v >= kU64Max - 7) return v - (kU64Max - 0xffffffffull);
    return v;
  };
  switch (rng.uniform_int(5)) {
    case 0: {  // bit flips
      const int flips = rng.uniform_int(1, 3);
      for (int i = 0; i < flips && !out.empty(); ++i) {
        const auto at = rng.uniform_u64(out.size());
        out[at] = static_cast<char>(out[at] ^ (1 << rng.uniform_int(8)));
      }
      break;
    }
    case 1:  // truncation
      if (!out.empty()) out.resize(rng.uniform_u64(out.size()));
      break;
    case 2: {  // extension
      const int extra = rng.uniform_int(1, 16);
      for (int i = 0; i < extra; ++i) {
        out.push_back(static_cast<char>(rng.uniform_int(256)));
      }
      break;
    }
    case 3: {  // a known length/count field
      if (seed.fields.empty()) break;
      const Field f = seed.fields[rng.uniform_u64(seed.fields.size())];
      write_field(out, f.offset, f.width, special(f.width));
      break;
    }
    default: {  // any offset, either width
      if (out.size() < 4) break;
      const std::size_t width = rng.bernoulli(0.5) ? 4 : 8;
      const std::size_t at = rng.uniform_u64(out.size() - 3);
      write_field(out, at, width, special(width));
      break;
    }
  }
}

/// One or two stacked mutations of a seed, so that e.g. a truncation and a
/// forced count can meet in one input.
std::string mutate(const Seed& seed, Rng& rng) {
  std::string out = seed.bytes;
  const int times = rng.uniform_int(1, 2);
  for (int i = 0; i < times; ++i) mutate_once(seed, rng, out);
  return out;
}

void run_mutations(const Target& target, std::uint64_t seed_value,
                   int rounds) {
  Rng rng(seed_value);
  for (int round = 0; round < rounds; ++round) {
    const Seed& seed = target.seeds[rng.uniform_u64(target.seeds.size())];
    const std::string input = round == 0 ? seed.bytes : mutate(seed, rng);
    try {
      target.check(input);
    } catch (const Error&) {
      // A typed rejection is an accepted outcome.
    } catch (const std::exception& e) {
      ADD_FAILURE() << target.name << " round " << round
                    << " threw a non-gapart exception: " << e.what();
    }
    if (::testing::Test::HasFailure()) {
      ADD_FAILURE() << target.name << " failed at round " << round;
      return;
    }
  }
}

/// The WAL record frame, restated here so a re-encoded log can be compared
/// byte for byte (test_codec_golden.cpp pins the same layout).
constexpr CrcFrameLayout kWalFrame{0x524c4157u, 13, 1u << 30};

std::string wal_frame(const WalRecord& record) {
  std::string fields;
  ByteWriter(fields)
      .put<std::uint8_t>(static_cast<std::uint8_t>(record.type))
      .put<std::uint32_t>(record.flags)
      .put<std::uint64_t>(record.epoch);
  return seal_crc_frame(kWalFrame, fields, record.payload);
}

std::string read_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

struct Corpus {
  Graph prev = make_grid(3, 3);
  Graph grown = make_grid(4, 3);
  std::string delta = encode_delta(grown, diff_graphs(prev, grown));
  std::string assignment = encode_assignment({0, 1, 1, 0, 2});
  std::string open;
  Corpus() {
    OpenPayload payload;
    payload.num_parts = 3;
    payload.digest = 99;
    payload.graph_text = format_graph(prev);
    payload.part_text = format_partition(Assignment(9, 1));
    open = encode_open_payload(payload);
  }
  std::vector<Field> open_fields() const {
    const std::size_t graph_len = format_graph(prev).size();
    return {{24, 8}, {32 + graph_len, 8}};
  }
  std::vector<Field> delta_fields() const {
    // old n, new n, touched count, first touched id; the first recorded
    // row's degree follows the 3 touched ids and that row's vertex weight.
    return {{4, 8}, {12, 8}, {20, 8}, {28, 8}, {28 + 3 * 8 + 8, 8}};
  }
};

TEST(CodecFuzz, AssignmentPayload) {
  const Corpus c;
  run_mutations({"decode_assignment",
                 {{c.assignment, {{0, 8}}}},
                 [](const std::string& bytes) {
                   EXPECT_EQ(encode_assignment(decode_assignment(bytes)),
                             bytes);
                 }},
                1, 10000);
}

TEST(CodecFuzz, DeltaRecord) {
  const Corpus c;
  run_mutations({"decode_delta",
                 {{c.delta, c.delta_fields()}},
                 [&c](const std::string& bytes) {
                   const DecodedDelta d = decode_delta(c.prev, bytes);
                   EXPECT_EQ(encode_delta(d.grown, d.delta), bytes);
                 }},
                2, 10000);
}

TEST(CodecFuzz, OpenSessionPayload) {
  const Corpus c;
  run_mutations({"decode_open_payload",
                 {{c.open, c.open_fields()}},
                 [](const std::string& bytes) {
                   EXPECT_EQ(encode_open_payload(decode_open_payload(bytes)),
                             bytes);
                 }},
                3, 10000);
}

TEST(CodecFuzz, RepFrames) {
  const Corpus c;
  std::vector<Seed> seeds;
  const auto add = [&](RepFrameType type, std::uint8_t sub,
                       const std::string& payload) {
    RepFrame frame;
    frame.type = type;
    frame.sub = sub;
    frame.generation = 1;
    frame.session = 4;
    frame.seq = 2;
    frame.epoch = 3;
    frame.payload = payload;
    // GARP payload_len sits after 4 + 1 + 1 + 4 * 8 + 4 header bytes.
    seeds.push_back({encode_rep_frame(frame), {{42, 4}}});
  };
  add(RepFrameType::kOpenSession, 0, c.open);
  add(RepFrameType::kRecord, 1, c.delta);
  add(RepFrameType::kRecord, 2, c.assignment);
  add(RepFrameType::kCompact, 0, std::string(8, '\x5a'));
  add(RepFrameType::kAck, 0, "");
  const auto check = [](const std::string& bytes) {
    const auto frame = decode_rep_frame(bytes);
    if (frame.has_value()) {
      EXPECT_EQ(encode_rep_frame(*frame), bytes);
    }
  };
  run_mutations({"decode_rep_frame", seeds, check}, 4, 10000);

  // CRC-valid frames with every type/sub byte: exactly the known types are
  // accepted, and a kRecord only with a WAL record type.
  for (int type = 0; type < 256; ++type) {
    for (const int sub : {0, 1, 2, 3, 255}) {
      std::string fields;
      ByteWriter w(fields);
      w.put<std::uint8_t>(static_cast<std::uint8_t>(type))
          .put<std::uint8_t>(static_cast<std::uint8_t>(sub));
      for (int i = 0; i < 4; ++i) w.put<std::uint64_t>(5);
      w.put<std::uint32_t>(0);
      const std::string wire = seal_crc_frame(
          {0x50524147u, 38, std::numeric_limits<std::uint32_t>::max()}, fields,
          "p");
      const bool known = type >= 1 && type <= 4 && (type != 2 || sub == 1 ||
                                                    sub == 2);
      const auto frame = decode_rep_frame(wire);
      EXPECT_EQ(frame.has_value(), known) << type << "/" << sub;
      if (frame.has_value()) check(wire);
    }
  }
}

TEST(CodecFuzz, WalLogReader) {
  const Corpus c;
  const std::string dir = ::testing::TempDir() + "/gapart_codec_fuzz_wal";
  fs::remove_all(dir);
  DurabilityConfig cfg;
  cfg.dir = dir;
  std::string log;
  {
    auto wal = SessionWal::create(dir, cfg, 3, FitnessParams{}, c.prev,
                                  Assignment(9, 0));
    wal->append(WalRecordType::kDelta, 1, 2, c.delta, 3);
    wal->append(WalRecordType::kRefine, 1, 0, c.assignment, 0);
    log = read_bytes(dir + "/wal.log");
  }
  // File header, then each frame's payload_len (13 field bytes after its
  // magic) and the kRefine payload's entry count.
  const std::size_t second = 8 + kWalFrame.header_size() + c.delta.size();
  const Seed seed{log,
                  {{8 + 17, 4}, {second + 17, 4}, {second + 25, 8}, {0, 4}}};
  const std::string path = dir + "/fuzz.log";
  const auto check = [&path](const std::string& bytes) {
    {
      std::ofstream out(path, std::ios::binary | std::ios::trunc);
      out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    }
    const WalReadResult read = read_log_file(path);
    if (read.valid_bytes == 0) {
      EXPECT_TRUE(read.records.empty());
      return;
    }
    std::string rebuilt = bytes.substr(0, 8);
    for (const WalRecord& record : read.records) rebuilt += wal_frame(record);
    EXPECT_EQ(rebuilt, bytes.substr(0, read.valid_bytes));
    EXPECT_EQ(read.torn_tail, read.valid_bytes != bytes.size());
  };
  run_mutations({"read_log_file", {seed}, check}, 5, 2000);
}

}  // namespace
}  // namespace gapart
