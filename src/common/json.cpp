#include "common/json.hpp"

#include <charconv>
#include <cmath>
#include <cstdio>

namespace gapart {

void write_json_number(std::ostream& os, double v) {
  if (!std::isfinite(v)) {
    os << "null";
    return;
  }
  char buf[32];  // the longest shortest-round-trip double is 24 chars
  os.write(buf, std::to_chars(buf, buf + sizeof(buf), v).ptr - buf);
}

void write_json_string(std::ostream& os, std::string_view s) {
  os << '"';
  for (const char ch : s) {
    const auto c = static_cast<unsigned char>(ch);
    if (c == '"' || c == '\\') {
      os << '\\' << ch;
    } else if (c >= 0x20) {
      os << ch;
    } else if (c == '\n' || c == '\t' || c == '\r') {
      os << (c == '\n' ? "\\n" : c == '\t' ? "\\t" : "\\r");
    } else {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      os << buf;
    }
  }
  os << '"';
}

JsonWriter& JsonWriter::key(std::string_view name) {
  separate();
  write_json_string(os_, name);
  os_ << ':';
  comma_ = false;
  return *this;
}

JsonWriter& JsonWriter::value(double v) {
  separate();
  write_json_number(os_, v);
  return *this;
}

JsonWriter& JsonWriter::value(bool v) {
  separate();
  os_ << (v ? "true" : "false");
  return *this;
}

JsonWriter& JsonWriter::value(std::string_view s) {
  separate();
  write_json_string(os_, s);
  return *this;
}

}  // namespace gapart
