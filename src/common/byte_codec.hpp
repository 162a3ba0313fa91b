// The one binary codec behind every byte format gapart writes — the WAL
// file header, record frames and assignment payload; GARP replication
// frames and payloads; the socket transport's length prefix; delta records.
// Each format is a list of fixed-width little-endian fields over a
// ByteWriter and a ByteReader.  The reader is bounds-checked without
// arithmetic that can wrap, so hostile lengths and counts are a
// gapart::Error, never an out-of-range read or an allocation sized by junk.
//
// Both CRC-framed formats (WAL records, GARP frames) share one layout,
//   [magic u32][fixed fields][payload_len u32][crc u32][payload],
// with the CRC-32 over bytes [4, crc) chained with the payload.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <optional>
#include <string>
#include <string_view>
#include <type_traits>

#include "common/assert.hpp"

namespace gapart {

static_assert(std::endian::native == std::endian::little,
              "gapart byte formats are little-endian");

/// CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320) of `len` bytes at
/// `data`.  `seed` chains partial computations:
/// crc32(b, crc32(a)) == crc32(a ++ b).
std::uint32_t crc32(const void* data, std::size_t len, std::uint32_t seed = 0);

/// Appends fixed-width fields and raw bytes to a byte string.
class ByteWriter {
 public:
  explicit ByteWriter(std::string& out) : out_(out) {}

  template <typename T>
  ByteWriter& put(T value) {
    static_assert(std::is_arithmetic_v<T>, "fields are fixed-width numbers");
    return put_bytes({reinterpret_cast<const char*>(&value), sizeof(T)});
  }

  ByteWriter& put_bytes(std::string_view bytes) {
    out_.append(bytes);
    return *this;
  }

 private:
  std::string& out_;
};

/// Reads fixed-width fields and blobs from a byte view; a read past the
/// end throws gapart::Error naming `what`.
class ByteReader {
 public:
  explicit ByteReader(std::string_view bytes, const char* what = "record")
      : bytes_(bytes), what_(what) {}

  template <typename T>
  T get() {
    static_assert(std::is_arithmetic_v<T>, "fields are fixed-width numbers");
    T value;
    std::memcpy(&value, take(sizeof(T)).data(), sizeof(T));
    return value;
  }

  /// The next `n` bytes, as a view into the input.
  std::string_view take(std::uint64_t n) {
    if (n > remaining()) truncated(n);
    const std::string_view out(bytes_.data() + pos_,
                               static_cast<std::size_t>(n));
    pos_ += static_cast<std::size_t>(n);
    return out;
  }

  /// Throws gapart::Error unless every byte was read.
  void expect_end() const;

  std::size_t pos() const { return pos_; }
  std::size_t remaining() const { return bytes_.size() - pos_; }

 private:
  [[noreturn]] void truncated(std::uint64_t n) const;

  std::string_view bytes_;
  const char* what_;
  std::size_t pos_ = 0;
};

/// One CRC-framed format: its magic, the byte count of its fixed fields,
/// and the largest payload a frame may carry.
struct CrcFrameLayout {
  std::uint32_t magic;
  std::size_t fields_size;
  std::uint32_t max_payload;

  std::size_t header_size() const { return 4 + fields_size + 4 + 4; }
};

/// Writes one frame.  `fields` must be layout.fields_size bytes; a payload
/// above layout.max_payload throws gapart::Error.
std::string seal_crc_frame(const CrcFrameLayout& layout,
                           std::string_view fields, std::string_view payload);

struct OpenedCrcFrame {
  ByteReader fields;         ///< over the fixed fields
  std::string_view payload;  ///< a view into the input
  std::size_t size = 0;      ///< header plus payload bytes
};

/// Checks the frame at the start of `bytes`, which may continue past it.
/// Never throws: a short, foreign, oversized or corrupt frame is nullopt,
/// and the caller decides whether that is a torn tail or a bad packet.
std::optional<OpenedCrcFrame> open_crc_frame(const CrcFrameLayout& layout,
                                             std::string_view bytes);

}  // namespace gapart
