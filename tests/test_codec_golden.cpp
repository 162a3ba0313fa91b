// Golden bytes for every binary format: a WAL log (file header, a kDelta
// and a kRefine frame), one GARP frame of each type, an open-session
// payload, an assignment payload and a delta record, each pinned byte for
// byte.  A change to any encoder that moves a single byte fails here —
// written logs must stay replayable and mixed-version replicas must agree.
#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include "core/graph_delta.hpp"
#include "graph/delta_codec.hpp"
#include "graph/generators.hpp"
#include "graph/graph.hpp"
#include "service/replication.hpp"
#include "service/wal.hpp"

namespace gapart {
namespace {

namespace fs = std::filesystem;

std::string hex(const std::string& bytes) {
  static const char* digits = "0123456789abcdef";
  std::string out;
  for (const char c : bytes) {
    const auto b = static_cast<unsigned char>(c);
    out += digits[b >> 4];
    out += digits[b & 15];
  }
  return out;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

TEST(CodecGolden, WalLogHeaderDeltaAndRefineFrames) {
  const std::string dir = ::testing::TempDir() + "/gapart_golden_wal";
  fs::remove_all(dir);
  DurabilityConfig cfg;
  cfg.dir = dir;
  {
    auto wal = SessionWal::create(dir, cfg, 2, FitnessParams{},
                                  make_grid(2, 2), Assignment{0, 0, 1, 1});
    wal->append(WalRecordType::kDelta, 1, 3, "delta", 1);
    wal->append(WalRecordType::kRefine, 1, 0, encode_assignment({1, 0}), 0);
  }
  EXPECT_EQ(hex(read_file(dir + "/wal.log")),
            // File header: "GAWL", version 1.
            "4741574c" "01000000"
            // kDelta: "WALR", type 1, flags 3, epoch 1, 5 bytes, crc.
            "57414c52" "01" "03000000" "0100000000000000" "05000000"
            "0bd04f59" "64656c7461"
            // kRefine: type 2, flags 0, epoch 1, 16 bytes, crc, {1, 0}.
            "57414c52" "02" "00000000" "0100000000000000" "10000000"
            "ae68e0bd" "0200000000000000" "01000000" "00000000");
}

TEST(CodecGolden, RepFrameOfEachType) {
  RepFrame open;
  open.type = RepFrameType::kOpenSession;
  open.generation = 2;
  open.session = 7;
  open.seq = 1;
  open.epoch = 5;
  open.payload = "open";
  EXPECT_EQ(hex(encode_rep_frame(open)),
            "47415250" "01" "00" "0200000000000000" "0700000000000000"
            "0100000000000000" "0500000000000000" "00000000" "04000000"
            "95bf175f" "6f70656e");

  RepFrame record;
  record.type = RepFrameType::kRecord;
  record.sub = static_cast<std::uint8_t>(WalRecordType::kDelta);
  record.generation = 2;
  record.session = 7;
  record.seq = 2;
  record.epoch = 6;
  record.flags = 3;
  record.payload = "rec";
  EXPECT_EQ(hex(encode_rep_frame(record)),
            "47415250" "02" "01" "0200000000000000" "0700000000000000"
            "0200000000000000" "0600000000000000" "03000000" "03000000"
            "612b118e" "726563");

  RepFrame compact;
  compact.type = RepFrameType::kCompact;
  compact.generation = 2;
  compact.session = 7;
  compact.seq = 3;
  compact.epoch = 6;
  compact.payload = std::string("\xef\xcd\xab\x89\x67\x45\x23\x01", 8);
  EXPECT_EQ(hex(encode_rep_frame(compact)),
            "47415250" "03" "00" "0200000000000000" "0700000000000000"
            "0300000000000000" "0600000000000000" "00000000" "08000000"
            "9c6bcc97" "efcdab8967452301");

  RepFrame ack;
  ack.type = RepFrameType::kAck;
  ack.generation = 2;
  ack.session = 7;
  ack.seq = 3;
  ack.epoch = 6;
  EXPECT_EQ(hex(encode_rep_frame(ack)),
            "47415250" "04" "00" "0200000000000000" "0700000000000000"
            "0300000000000000" "0600000000000000" "00000000" "00000000"
            "16c1f83b");
}

TEST(CodecGolden, OpenSessionPayload) {
  OpenPayload open;
  open.num_parts = 3;
  open.fitness.objective = Objective::kWorstComm;
  open.fitness.lambda = 0.5;
  open.digest = 0x0123456789abcdefull;
  open.graph_text = "g";
  open.part_text = std::string(2, 'p');
  EXPECT_EQ(hex(encode_open_payload(open)),
            // num_parts, objective, lambda bits, digest.
            "03000000" "01000000" "000000000000e03f" "efcdab8967452301"
            // Length-prefixed graph text, then partition text.
            "0100000000000000" "67" "0200000000000000" "7070");
}

TEST(CodecGolden, AssignmentPayload) {
  EXPECT_EQ(hex(encode_assignment({0, 2, 1})),
            "0300000000000000" "00000000" "02000000" "01000000");
}

TEST(CodecGolden, DeltaRecord) {
  // A 3-vertex path grows a fourth vertex hanging off vertex 2.
  GraphBuilder before(3);
  before.add_edge(0, 1, 1.0);
  before.add_edge(1, 2, 1.0);
  const Graph prev = before.build();
  GraphBuilder after(4);
  after.add_edge(0, 1, 1.0);
  after.add_edge(1, 2, 1.0);
  after.add_edge(2, 3, 2.0);
  after.set_vertex_weight(3, 1.5);
  const Graph grown = after.build();
  EXPECT_EQ(hex(encode_delta(grown, diff_graphs(prev, grown))),
            // "GDC1", 3 -> 4 vertices, one touched survivor: vertex 2.
            "47444331" "0300000000000000" "0400000000000000"
            "0100000000000000" "0200000000000000"
            // Row of vertex 2: weight 1.0, degree 2, (1, 1.0), (3, 2.0).
            "000000000000f03f" "0200000000000000"
            "0100000000000000" "000000000000f03f"
            "0300000000000000" "0000000000000040"
            // Row of vertex 3: weight 1.5, degree 1, (2, 2.0).
            "000000000000f83f" "0100000000000000"
            "0200000000000000" "0000000000000040");
}

}  // namespace
}  // namespace gapart
