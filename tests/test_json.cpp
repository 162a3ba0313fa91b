// common/json (the one JSON writer behind every bench report and the
// telemetry dump) and bench_common's repetition loop: escaping, exact
// round-trip of doubles, `null` for non-finite values, well-formed nesting,
// and the loop's rep floor and quartile order.
#include "common/json.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <limits>
#include <sstream>
#include <string>

#include "bench_common.hpp"
#include "test_util.hpp"

namespace gapart {
namespace {

using testing::JsonCursor;

std::string json_string(std::string_view s) {
  std::ostringstream os;
  write_json_string(os, s);
  return os.str();
}

std::string json_number(double v) {
  std::ostringstream os;
  write_json_number(os, v);
  return os.str();
}

TEST(JsonWriter, EscapesQuotesBackslashesAndControlCharacters) {
  EXPECT_EQ(json_string("plain.name"), "\"plain.name\"");
  EXPECT_EQ(json_string("a\"b"), "\"a\\\"b\"");
  EXPECT_EQ(json_string("a\\b"), "\"a\\\\b\"");
  EXPECT_EQ(json_string("\n\t\r"), "\"\\n\\t\\r\"");
  EXPECT_EQ(json_string(std::string("\x01\x1f", 2)), "\"\\u0001\\u001f\"");
  EXPECT_EQ(json_string(std::string("nul\0x", 5)), "\"nul\\u0000x\"");
  const std::string escaped = json_string("\"\\\b\f\x7f");
  EXPECT_TRUE(JsonCursor(escaped).valid_value()) << escaped;
}

TEST(JsonWriter, DoublesRoundTripExactly) {
  for (const double v : {0.1 + 0.2, 1234567.891, -5e-324,
                         1.7976931348623157e308, 1.0 / 3.0, 0.0, -2.5, 1e21}) {
    const std::string text = json_number(v);
    EXPECT_EQ(std::strtod(text.c_str(), nullptr), v) << text;
    EXPECT_TRUE(JsonCursor(text).valid_value()) << text;
  }
}

TEST(JsonWriter, NonFiniteDoubleIsNull) {
  EXPECT_EQ(json_number(std::numeric_limits<double>::infinity()), "null");
  EXPECT_EQ(json_number(-std::numeric_limits<double>::infinity()), "null");
  EXPECT_EQ(json_number(std::numeric_limits<double>::quiet_NaN()), "null");
}

TEST(JsonWriter, NestedOutputIsWellFormed) {
  std::ostringstream os;
  JsonWriter json(os);
  json.begin_object()
      .field("bench", "demo")
      .field("quick", true)
      .field("n", 64)
      .field("big", std::uint64_t{18446744073709551615ULL})
      .field("neg", std::int64_t{-7})
      .field("ratio", std::numeric_limits<double>::quiet_NaN())
      .key("empty_array")
      .begin_array()
      .end_array()
      .key("empty_object")
      .begin_object()
      .end_object()
      .key("rows")
      .begin_array();
  for (int i = 0; i < 3; ++i) {
    json.begin_object().field("i", i).field("seconds", 0.25 * i);
    json.key("inner").begin_array().value(i).value("x").value(false);
    json.end_array().end_object();
  }
  json.end_array().end_object();
  const std::string text = os.str();
  EXPECT_TRUE(JsonCursor(text).valid_value()) << text;
  EXPECT_EQ(text.rfind("{\"bench\":\"demo\",\"quick\":true,\"n\":64,", 0), 0u)
      << text;
  EXPECT_NE(text.find("\"big\":18446744073709551615,\"neg\":-7,\"ratio\":null,"
                      "\"empty_array\":[],\"empty_object\":{},"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("{\"i\":2,\"seconds\":0.5,\"inner\":[2,\"x\",false]}]}"),
            std::string::npos)
      << text;
}

TEST(BenchRepeat, HonoursMinimumRepsAndOrdersQuartiles) {
  int calls = 0;
  const Summary quick = bench::repeat(0.0, bench::min_reps(true), [&] {
    ++calls;
  });
  EXPECT_EQ(quick.count, 1u);
  EXPECT_EQ(calls, 1);

  calls = 0;
  const Summary full = bench::repeat(0.0, bench::min_reps(false), [&] {
    ++calls;
  });
  EXPECT_EQ(full.count, 5u);
  EXPECT_EQ(calls, 5);
  EXPECT_LE(full.min, full.p25);
  EXPECT_LE(full.p25, full.median);
  EXPECT_LE(full.median, full.p75);
  EXPECT_LE(full.p75, full.max);

  // A budget keeps the loop going past the floor; setup runs once per rep.
  int setups = 0;
  const Summary budgeted = bench::repeat(
      0.005, 2, [&] { return ++setups; }, [](int) {});
  EXPECT_GE(budgeted.count, 2u);
  EXPECT_EQ(budgeted.count, static_cast<std::size_t>(setups));
}

TEST(BenchRepeat, ReportsQuartilesOfTheSamples) {
  const Summary s = summarize({4.0, 1.0, 3.0, 2.0, 5.0});
  EXPECT_DOUBLE_EQ(s.p25, 2.0);
  EXPECT_DOUBLE_EQ(s.median, 3.0);
  EXPECT_DOUBLE_EQ(s.p75, 4.0);
  EXPECT_DOUBLE_EQ(bench::total_seconds(s), 15.0);

  std::ostringstream os;
  JsonWriter json(os);
  json.begin_object();
  bench::write_rep_stats(json, s);
  json.end_object();
  EXPECT_EQ(os.str(), "{\"reps\":5,\"median_s\":3,\"p25_s\":2,\"p75_s\":4}");
}

}  // namespace
}  // namespace gapart
