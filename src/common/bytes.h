// Raw byte-buffer helpers used by the wire format and the crypto layer.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace ss {

using Bytes = std::vector<std::uint8_t>;
using ByteView = std::span<const std::uint8_t>;

/// Lowercase hex encoding of `data` ("deadbeef").
std::string to_hex(ByteView data);

/// Inverse of to_hex(); throws std::invalid_argument on malformed input.
Bytes from_hex(std::string_view hex);

/// Copies a string's characters into a byte vector.
Bytes bytes_of(std::string_view s);

/// Interprets a byte range as a string.
std::string string_of(ByteView data);

/// Constant-time equality, as needed when comparing MACs.
bool constant_time_equal(ByteView a, ByteView b);

/// CRC-16/MODBUS (polynomial 0xA001 reflected, init 0xFFFF). Guards the
/// unauthenticated field-protocol frames (Modbus, IEC-104) against wire
/// corruption — these links carry no HMAC, so without a frame check a
/// flipped register bit would be silently accepted as a valid value.
std::uint16_t crc16(ByteView data);

/// CRC-32 (IEEE 802.3, polynomial 0xEDB88320 reflected, init/xorout
/// 0xFFFFFFFF). Guards on-disk records (WAL entries, checkpoint files)
/// against torn writes and bit rot: a record whose stored CRC does not match
/// is treated as never written, not as an error to propagate. Chains: with
/// `crc` the CRC of the bytes before `data`, the result is the CRC of both,
/// so a buffer kept in pieces is checked without joining them.
std::uint32_t crc32(ByteView data, std::uint32_t crc = 0);

}  // namespace ss
