#include "common/byte_codec.hpp"

#include <array>

namespace gapart {

std::uint32_t crc32(const void* data, std::size_t len, std::uint32_t seed) {
  static const std::array<std::uint32_t, 256> table = [] {
    std::array<std::uint32_t, 256> t{};
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t c = i;
      for (int bit = 0; bit < 8; ++bit) {
        c = (c & 1u) != 0 ? 0xedb88320u ^ (c >> 1) : c >> 1;
      }
      t[i] = c;
    }
    return t;
  }();
  const auto* p = static_cast<const unsigned char*>(data);
  std::uint32_t c = seed ^ 0xffffffffu;
  for (std::size_t i = 0; i < len; ++i) {
    c = table[(c ^ p[i]) & 0xffu] ^ (c >> 8);
  }
  return c ^ 0xffffffffu;
}

void ByteReader::truncated(std::uint64_t n) const {
  throw Error(std::string(what_) + " truncated: need " + std::to_string(n) +
              " bytes at offset " + std::to_string(pos_) + ", have " +
              std::to_string(remaining()));
}

void ByteReader::expect_end() const {
  if (remaining() != 0) {
    throw Error(std::string(what_) + " has " + std::to_string(remaining()) +
                " trailing bytes");
  }
}

std::string seal_crc_frame(const CrcFrameLayout& layout,
                           std::string_view fields, std::string_view payload) {
  GAPART_REQUIRE(fields.size() == layout.fields_size, "frame fields are ",
                 fields.size(), " bytes, the layout has ", layout.fields_size);
  GAPART_REQUIRE(payload.size() <= layout.max_payload, "frame payload of ",
                 payload.size(), " bytes exceeds the ", layout.max_payload,
                 "-byte frame limit");
  std::string frame;
  frame.reserve(layout.header_size() + payload.size());
  ByteWriter out(frame);
  out.put<std::uint32_t>(layout.magic)
      .put_bytes(fields)
      .put<std::uint32_t>(static_cast<std::uint32_t>(payload.size()));
  std::uint32_t crc = crc32(frame.data() + 4, frame.size() - 4);
  crc = crc32(payload.data(), payload.size(), crc);
  out.put<std::uint32_t>(crc).put_bytes(payload);
  return frame;
}

std::optional<OpenedCrcFrame> open_crc_frame(const CrcFrameLayout& layout,
                                             std::string_view bytes) {
  if (bytes.size() < layout.header_size()) return std::nullopt;
  ByteReader in(bytes, "frame");
  if (in.get<std::uint32_t>() != layout.magic) return std::nullopt;
  const std::string_view fields = in.take(layout.fields_size);
  const auto payload_len = in.get<std::uint32_t>();
  const auto stored_crc = in.get<std::uint32_t>();
  if (payload_len > layout.max_payload || payload_len > in.remaining()) {
    return std::nullopt;
  }
  const std::string_view payload = in.take(payload_len);
  std::uint32_t crc = crc32(bytes.data() + 4, layout.fields_size + 4);
  crc = crc32(payload.data(), payload.size(), crc);
  if (crc != stored_crc) return std::nullopt;
  return OpenedCrcFrame{ByteReader(fields, "frame fields"), payload,
                        in.pos()};
}

}  // namespace gapart
