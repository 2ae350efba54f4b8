// The dynamic value type of SCADA items (NeoSCADA's Variant).
//
// An item's value can be empty, a boolean, a 64-bit integer, a double, or a
// string. Encoding is deterministic, which matters because replicated
// masters digest-compare their item tables.
#pragma once

#include <cstdint>
#include <string>
#include <variant>

#include "common/serialization.h"

namespace ss::scada {

class Variant {
 public:
  enum class Type : std::uint8_t {
    kNull = 0,
    kBool,
    kInt64,
    kDouble,
    kString,
    kMax = kString,
  };

  Variant() = default;
  explicit Variant(bool v) : value_(v) {}
  explicit Variant(std::int64_t v) : value_(v) {}
  explicit Variant(double v) : value_(v) {}
  explicit Variant(std::string v) : value_(std::move(v)) {}

  static Variant null() { return Variant{}; }

  Type type() const { return static_cast<Type>(value_.index()); }
  bool is_null() const { return type() == Type::kNull; }
  bool is_numeric() const {
    return type() == Type::kInt64 || type() == Type::kDouble;
  }

  bool as_bool() const;          ///< throws std::bad_variant_access-like on mismatch
  std::int64_t as_int() const;   ///< numeric coercion int<->double allowed
  double as_double() const;      ///< numeric coercion allowed
  const std::string& as_string() const;

  /// Numeric coercion for handler math; null/bool/string -> 0.0.
  double to_double_or_zero() const;

  bool operator==(const Variant& other) const { return value_ == other.value_; }

  /// The type, then the payload.
  void encode(Writer& w) const;
  static Variant decode(Reader& r);
  /// The payload alone (nothing for null): a bool's byte, an int64's or a
  /// double's 8 bytes, a string's length and bytes.
  void encode_payload(Writer& w) const;
  static Variant decode_payload(Type type, Reader& r);

  std::string debug_string() const;

 private:
  std::variant<std::monostate, bool, std::int64_t, double, std::string> value_;
};

}  // namespace ss::scada
