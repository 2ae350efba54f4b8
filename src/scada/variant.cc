#include "scada/variant.h"

#include <cmath>
#include <stdexcept>

namespace ss::scada {

bool Variant::as_bool() const {
  if (type() != Type::kBool) throw std::runtime_error("Variant: not a bool");
  return std::get<bool>(value_);
}

std::int64_t Variant::as_int() const {
  switch (type()) {
    case Type::kInt64:
      return std::get<std::int64_t>(value_);
    case Type::kDouble:
      return static_cast<std::int64_t>(std::llround(std::get<double>(value_)));
    default:
      throw std::runtime_error("Variant: not numeric");
  }
}

double Variant::as_double() const {
  switch (type()) {
    case Type::kInt64:
      return static_cast<double>(std::get<std::int64_t>(value_));
    case Type::kDouble:
      return std::get<double>(value_);
    default:
      throw std::runtime_error("Variant: not numeric");
  }
}

const std::string& Variant::as_string() const {
  if (type() != Type::kString) throw std::runtime_error("Variant: not a string");
  return std::get<std::string>(value_);
}

double Variant::to_double_or_zero() const {
  switch (type()) {
    case Type::kInt64:
      return static_cast<double>(std::get<std::int64_t>(value_));
    case Type::kDouble:
      return std::get<double>(value_);
    case Type::kBool:
      return std::get<bool>(value_) ? 1.0 : 0.0;
    default:
      return 0.0;
  }
}

void Variant::encode(Writer& w) const {
  w.enumeration(type());
  encode_payload(w);
}

Variant Variant::decode(Reader& r) {
  return decode_payload(
      r.enumeration<Type>(static_cast<std::uint64_t>(Type::kMax)), r);
}

void Variant::encode_payload(Writer& w) const {
  switch (type()) {
    case Type::kNull:
      break;
    case Type::kBool:
      w.boolean(std::get<bool>(value_));
      break;
    case Type::kInt64:
      w.i64(std::get<std::int64_t>(value_));
      break;
    case Type::kDouble:
      w.f64(std::get<double>(value_));
      break;
    case Type::kString:
      w.str(std::get<std::string>(value_));
      break;
  }
}

Variant Variant::decode_payload(Type type, Reader& r) {
  switch (type) {
    case Type::kNull:
      return Variant{};
    case Type::kBool:
      return Variant{r.boolean()};
    case Type::kInt64:
      return Variant{r.i64()};
    case Type::kDouble:
      return Variant{r.f64()};
    case Type::kString:
      return Variant{r.str()};
  }
  throw DecodeError("bad variant type");
}

std::string Variant::debug_string() const {
  switch (type()) {
    case Type::kNull:
      return "null";
    case Type::kBool:
      return std::get<bool>(value_) ? "true" : "false";
    case Type::kInt64:
      return std::to_string(std::get<std::int64_t>(value_));
    case Type::kDouble:
      return std::to_string(std::get<double>(value_));
    case Type::kString:
      return "\"" + std::get<std::string>(value_) + "\"";
  }
  return "?";
}

}  // namespace ss::scada
