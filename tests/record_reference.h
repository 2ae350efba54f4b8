// The coded record form of the event log and the historian (DESIGN.md
// §4.3), written out again from its definition for tests that compare the
// logs' bytes against it. Nothing here calls the production coder in
// scada/block_log.h: a fault there cannot hide behind the same fault here.
//
// A record's type byte holds the value's kind in bits 0-2, a flag per coded
// field (value 0x08, timestamp 0x10, op 0x20) and a sample's quality in
// bits 6-7. Each field is coded against the record before it only where
// that is no longer than its plain form.
#pragma once

#include <bit>
#include <cstdint>
#include <cstring>
#include <iterator>
#include <limits>
#include <random>
#include <string>

#include "common/serialization.h"
#include "scada/variant.h"

namespace ss::scada::reference {

/// The fields of the record before, as the reference keeps them.
struct Before {
  std::uint8_t kind = 0;  ///< 2 (int64) or 3 (double); 0 for anything else
  std::uint64_t bits = 0;
  std::int64_t timestamp = 0;
  std::uint64_t op = 0;
};

inline std::size_t varint_length(std::uint64_t v) {
  std::size_t n = 1;
  for (; v >= 0x80; v >>= 7) ++n;
  return n;
}

/// Zigzag of a wrapped 64-bit difference: 0, -1, 1, -2, ... -> 0, 1, 2, 3.
inline std::uint64_t zigzag(std::uint64_t wrapped) {
  const auto d = static_cast<std::int64_t>(wrapped);
  return d >= 0 ? static_cast<std::uint64_t>(d) * 2
                : static_cast<std::uint64_t>(-(d + 1)) * 2 + 1;
}

inline bool is_numeric_kind(std::uint8_t kind) {
  return kind == 2 || kind == 3;
}

inline std::uint64_t bits_of(const Variant& v) {
  if (v.type() == Variant::Type::kInt64) {
    return static_cast<std::uint64_t>(v.as_int());
  }
  const double d = v.as_double();
  std::uint64_t bits;
  std::memcpy(&bits, &d, sizeof bits);
  return bits;
}

/// Today's Variant encoding without its leading type byte.
inline Bytes plain_value(const Variant& v) {
  Writer w;
  v.encode(w);
  return Bytes(w.bytes().begin() + 1, w.bytes().end());
}

/// One record's type byte, value, timestamp and, when `op` is given, op,
/// coded against `before`, which then holds this record's fields.
inline void write_fields(Writer& w, Before& before, const Variant& value,
                         std::int64_t timestamp, const std::uint64_t* op,
                         std::uint8_t quality) {
  const auto kind = static_cast<std::uint8_t>(value.type());
  const bool numeric = is_numeric_kind(kind);
  const std::uint64_t bits = numeric ? bits_of(value) : 0;
  std::uint8_t type = static_cast<std::uint8_t>(kind | (quality << 6));

  Bytes value_bytes = plain_value(value);
  if (numeric && kind == before.kind) {
    Writer coded;
    if (kind == 3) {
      const std::uint64_t x = bits ^ before.bits;
      std::uint8_t shift = 0;
      while (x != 0 && ((x >> shift) & 1) == 0) ++shift;
      coded.u8(shift);
      coded.varint(x >> shift);
    } else {
      coded.varint(zigzag(bits - before.bits));
    }
    if (coded.size() <= value_bytes.size()) {
      type |= 0x08;
      value_bytes = coded.bytes();
    }
  }
  const std::uint64_t time_step =
      zigzag(static_cast<std::uint64_t>(timestamp) -
             static_cast<std::uint64_t>(before.timestamp));
  if (varint_length(time_step) <= 8) type |= 0x10;
  std::uint64_t op_step = 0;
  if (op != nullptr) {
    op_step = zigzag(*op - before.op);
    if (varint_length(op_step) <= varint_length(*op)) type |= 0x20;
  }

  w.u8(type);
  w.raw(value_bytes);
  if (type & 0x10) {
    w.varint(time_step);
  } else {
    w.i64(timestamp);
  }
  if (op != nullptr) {
    w.varint((type & 0x20) ? op_step : *op);
    before.op = *op;
  }
  before.kind = numeric ? kind : 0;
  before.bits = bits;
  before.timestamp = timestamp;
}

/// A log's base in a snapshot.
inline void write_base(Writer& w, const Before& base, bool with_op) {
  w.u8(base.kind);
  if (is_numeric_kind(base.kind)) w.u64(base.bits);
  w.i64(base.timestamp);
  if (with_op) w.varint(base.op);
}

/// The fields a record of `value`, `timestamp` and `op` leaves for the next.
inline Before before_of(const Variant& value, std::int64_t timestamp,
                        std::uint64_t op = 0) {
  Before b;
  const auto kind = static_cast<std::uint8_t>(value.type());
  if (is_numeric_kind(kind)) {
    b.kind = kind;
    b.bits = bits_of(value);
  }
  b.timestamp = timestamp;
  b.op = op;
  return b;
}

/// A value of any kind, with runs of steady doubles and ints (what codes
/// against its predecessor) between extremes: NaN payloads, -0.0,
/// infinities, denormals and the int64 limits.
inline Variant random_value(std::mt19937_64& rng) {
  constexpr std::int64_t kMin = std::numeric_limits<std::int64_t>::min();
  constexpr std::int64_t kMax = std::numeric_limits<std::int64_t>::max();
  switch (rng() % 9) {
    case 0:
      return Variant{};
    case 1:
      return Variant{rng() % 2 == 0};
    case 2:
      return Variant{static_cast<std::int64_t>(rng()) >> (rng() % 64)};
    case 3:
    case 4:
      return Variant{static_cast<double>(rng() % 100000) / 7.0 - 5000.0};
    case 5:
      return Variant{static_cast<std::int64_t>(1000 + rng() % 8)};
    case 6: {
      const double extremes[] = {
          -0.0, 0.0, std::numeric_limits<double>::infinity(),
          -std::numeric_limits<double>::infinity(),
          std::bit_cast<double>(std::uint64_t{0x7ff8000000000001}),  // NaN
          std::bit_cast<double>(std::uint64_t{0xfff0000000000abc}),  // sNaN
          std::numeric_limits<double>::denorm_min(),
          std::numeric_limits<double>::max(),
          1e9 + static_cast<double>(rng() % 4)};
      return Variant{extremes[rng() % std::size(extremes)]};
    }
    case 7: {
      const std::int64_t extremes[] = {kMin, kMax, kMin + 1, kMax - 1, 0, -1};
      return Variant{extremes[rng() % std::size(extremes)]};
    }
    default:
      // Up to a few hundred bytes: strings cross the historian's 2 KiB
      // block boundaries.
      return Variant{
          std::string(rng() % 400, static_cast<char>('a' + rng() % 26))};
  }
}

}  // namespace ss::scada::reference
