// Minimal streaming JSON writer: every bench report, the telemetry
// registry dump and the span tracer's string escaping go through it.
//
// Output is compact (no whitespace); commas between members and elements
// are inserted automatically.  Doubles print as the shortest text that
// parses back to the same value; a non-finite double prints as `null`,
// since JSON has no spelling for inf or nan.
//
//   JsonWriter json(std::cout);
//   json.begin_object().field("bench", "demo").key("rows").begin_array();
//   json.begin_object().field("n", 64).field("seconds", 0.25).end_object();
//   json.end_array().end_object();
#pragma once

#include <concepts>
#include <ostream>
#include <string_view>

namespace gapart {

/// `v` as its shortest round-trip text (std::to_chars); `null` if not finite.
void write_json_number(std::ostream& os, double v);

/// `s` quoted, with quote, backslash and control characters escaped.
void write_json_string(std::ostream& os, std::string_view s);

class JsonWriter {
 public:
  explicit JsonWriter(std::ostream& os) : os_(os) {}

  JsonWriter& begin_object() { return open('{'); }
  JsonWriter& end_object() { return close('}'); }
  JsonWriter& begin_array() { return open('['); }
  JsonWriter& end_array() { return close(']'); }

  /// Names the next value (or container) inside an object.
  JsonWriter& key(std::string_view name);

  JsonWriter& value(double v);
  JsonWriter& value(bool v);
  JsonWriter& value(std::string_view s);
  JsonWriter& value(const char* s) { return value(std::string_view(s)); }
  template <std::integral T>
    requires(!std::same_as<T, bool>)
  JsonWriter& value(T v) {
    separate();
    os_ << +v;  // unary plus prints a char-sized integer as a number
    return *this;
  }

  /// key(name).value(v).
  template <typename T>
  JsonWriter& field(std::string_view name, const T& v) {
    return key(name).value(v);
  }

 private:
  void separate() {
    if (comma_) os_ << ',';
    comma_ = true;
  }
  JsonWriter& open(char bracket) {
    separate();
    os_ << bracket;
    comma_ = false;
    return *this;
  }
  JsonWriter& close(char bracket) {
    os_ << bracket;
    comma_ = true;
    return *this;
  }

  std::ostream& os_;
  /// The next element follows a sibling: false right after an opening
  /// bracket or a key.
  bool comma_ = false;
};

}  // namespace gapart
