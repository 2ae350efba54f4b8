#include "common/bytes.h"

#include <array>
#include <stdexcept>

namespace ss {

namespace {
constexpr char kHexDigits[] = "0123456789abcdef";

int hex_value(char c) {
  if (c >= '0' && c <= '9') return c - '0';
  if (c >= 'a' && c <= 'f') return c - 'a' + 10;
  if (c >= 'A' && c <= 'F') return c - 'A' + 10;
  throw std::invalid_argument("invalid hex digit");
}
}  // namespace

std::string to_hex(ByteView data) {
  std::string out;
  out.reserve(data.size() * 2);
  for (std::uint8_t b : data) {
    out.push_back(kHexDigits[b >> 4]);
    out.push_back(kHexDigits[b & 0x0f]);
  }
  return out;
}

Bytes from_hex(std::string_view hex) {
  if (hex.size() % 2 != 0) throw std::invalid_argument("odd hex length");
  Bytes out;
  out.reserve(hex.size() / 2);
  for (std::size_t i = 0; i < hex.size(); i += 2) {
    out.push_back(static_cast<std::uint8_t>(hex_value(hex[i]) << 4 |
                                            hex_value(hex[i + 1])));
  }
  return out;
}

Bytes bytes_of(std::string_view s) { return Bytes(s.begin(), s.end()); }

std::string string_of(ByteView data) {
  return std::string(data.begin(), data.end());
}

std::uint16_t crc16(ByteView data) {
  std::uint16_t crc = 0xFFFF;
  for (std::uint8_t byte : data) {
    crc ^= byte;
    for (int bit = 0; bit < 8; ++bit) {
      if (crc & 1) {
        crc = static_cast<std::uint16_t>((crc >> 1) ^ 0xA001);
      } else {
        crc = static_cast<std::uint16_t>(crc >> 1);
      }
    }
  }
  return crc;
}

std::uint32_t crc32(ByteView data, std::uint32_t crc) {
  // Table generated once, on first use (256 * 4 bytes).
  static const auto kTable = [] {
    std::array<std::uint32_t, 256> table{};
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t c = i;
      for (int bit = 0; bit < 8; ++bit) {
        c = (c & 1) ? (0xEDB88320u ^ (c >> 1)) : (c >> 1);
      }
      table[i] = c;
    }
    return table;
  }();
  crc ^= 0xFFFFFFFFu;
  for (std::uint8_t byte : data) {
    crc = kTable[(crc ^ byte) & 0xFF] ^ (crc >> 8);
  }
  return crc ^ 0xFFFFFFFFu;
}

bool constant_time_equal(ByteView a, ByteView b) {
  if (a.size() != b.size()) return false;
  std::uint8_t acc = 0;
  for (std::size_t i = 0; i < a.size(); ++i) acc |= a[i] ^ b[i];
  return acc == 0;
}

}  // namespace ss
