#include "scada/block_log.h"

#include <algorithm>
#include <bit>
#include <cassert>

namespace ss::scada {

namespace {

constexpr std::uint8_t kKindBits = 0x07;
constexpr std::uint8_t kValueCoded = 0x08;
constexpr std::uint8_t kTimeCoded = 0x10;
constexpr std::uint8_t kOpCoded = 0x20;
constexpr int kExtraShift = 6;

bool numeric(Variant::Type kind) {
  return kind == Variant::Type::kInt64 || kind == Variant::Type::kDouble;
}

std::uint64_t zigzag(std::uint64_t difference) {
  const auto sign = static_cast<std::int64_t>(difference) >> 63;
  return (difference << 1) ^ static_cast<std::uint64_t>(sign);
}

std::uint64_t unzigzag(std::uint64_t z) { return (z >> 1) ^ (~(z & 1) + 1); }

std::size_t varint_size(std::uint64_t v) {
  return v == 0 ? 1 : (static_cast<std::size_t>(std::bit_width(v)) + 6) / 7;
}

/// The bits a numeric value codes with.
std::uint64_t bits_of(const Variant& value) {
  return value.type() == Variant::Type::kDouble
             ? std::bit_cast<std::uint64_t>(value.as_double())
             : static_cast<std::uint64_t>(value.as_int());
}

}  // namespace

void Prior::encode(Writer& w, bool with_op) const {
  w.u8(static_cast<std::uint8_t>(kind));
  if (numeric(kind)) w.u64(bits);
  w.i64(timestamp);
  if (with_op) w.varint(op);
}

void Prior::decode(Reader& r, bool with_op) {
  kind = static_cast<Variant::Type>(r.u8());
  if (kind != Variant::Type::kNull && !numeric(kind)) {
    throw DecodeError("bad base value kind");
  }
  bits = numeric(kind) ? r.u64() : 0;
  timestamp = r.i64();
  op = with_op ? r.varint() : 0;
}

void encode_record(Writer& w, Prior& prior, const Variant& value,
                   SimTime timestamp, const std::uint64_t* op,
                   std::uint8_t extra) {
  const Variant::Type kind = value.type();
  std::uint8_t type = static_cast<std::uint8_t>(kind) |
                      static_cast<std::uint8_t>(extra << kExtraShift);

  // The value: an int64 or double after one of its kind codes against it.
  const std::uint64_t bits = numeric(kind) ? bits_of(value) : 0;
  std::uint64_t coded_value = 0;
  std::uint8_t shift = 0;
  if (numeric(kind) && kind == prior.kind) {
    if (kind == Variant::Type::kDouble) {
      const std::uint64_t x = bits ^ prior.bits;
      shift = x == 0 ? 0 : static_cast<std::uint8_t>(std::countr_zero(x));
      coded_value = x >> shift;
      if (1 + varint_size(coded_value) <= 8) type |= kValueCoded;
    } else {
      coded_value = zigzag(bits - prior.bits);
      if (varint_size(coded_value) <= 8) type |= kValueCoded;
    }
  }
  const std::uint64_t coded_time =
      zigzag(static_cast<std::uint64_t>(timestamp) -
             static_cast<std::uint64_t>(prior.timestamp));
  if (varint_size(coded_time) <= 8) type |= kTimeCoded;
  std::uint64_t coded_op = 0;
  if (op != nullptr) {
    coded_op = zigzag(*op - prior.op);
    if (varint_size(coded_op) <= varint_size(*op)) type |= kOpCoded;
  }

  w.u8(type);
  if ((type & kValueCoded) == 0) {
    value.encode_payload(w);
  } else {
    if (kind == Variant::Type::kDouble) w.u8(shift);
    w.varint(coded_value);
  }
  if ((type & kTimeCoded) != 0) {
    w.varint(coded_time);
  } else {
    w.i64(timestamp);
  }
  if (op != nullptr) {
    w.varint((type & kOpCoded) != 0 ? coded_op : *op);
    prior.op = *op;
  }
  prior.kind = numeric(kind) ? kind : Variant::Type::kNull;
  prior.bits = bits;
  prior.timestamp = timestamp;
}

std::uint8_t decode_record(Reader& r, Prior& prior, Variant& value,
                           SimTime& timestamp, std::uint64_t* op,
                           std::uint8_t max_extra) {
  const std::uint8_t type = r.u8();
  const std::uint8_t extra = type >> kExtraShift;
  if (extra > max_extra) throw DecodeError("record extra bits out of range");
  if ((type & kKindBits) > static_cast<std::uint8_t>(Variant::Type::kMax)) {
    throw DecodeError("bad record value kind");
  }
  if (op == nullptr && (type & kOpCoded) != 0) {
    throw DecodeError("op flag on a record without an op");
  }
  const auto kind = static_cast<Variant::Type>(type & kKindBits);

  if ((type & kValueCoded) == 0) {
    value = Variant::decode_payload(kind, r);
  } else {
    if (!numeric(kind) || kind != prior.kind) {
      throw DecodeError("coded value without a predecessor of its kind");
    }
    if (kind == Variant::Type::kDouble) {
      const std::uint8_t shift = r.u8();
      if (shift > 63) throw DecodeError("double shift past 63");
      value = Variant{std::bit_cast<double>(prior.bits ^
                                            (r.varint() << shift))};
    } else {
      value = Variant{static_cast<std::int64_t>(prior.bits +
                                                unzigzag(r.varint()))};
    }
  }
  if ((type & kTimeCoded) != 0) {
    timestamp = static_cast<SimTime>(
        static_cast<std::uint64_t>(prior.timestamp) + unzigzag(r.varint()));
  } else {
    timestamp = r.i64();
  }
  if (op != nullptr) {
    const std::uint64_t v = r.varint();
    *op = (type & kOpCoded) != 0 ? prior.op + unzigzag(v) : v;
    prior.op = *op;
  }
  prior.kind = numeric(kind) ? kind : Variant::Type::kNull;
  prior.bits = numeric(kind) ? bits_of(value) : 0;
  prior.timestamp = timestamp;
  return extra;
}

void BlockLog::push_back(ByteView encoded) {
  assert(!encoded.empty());
  if (blocks_.empty() ||
      blocks_.back().size() + encoded.size() > block_bytes_) {
    // The first block grows on demand so a small log stays small; once a
    // second one is needed the log is large, and blocks are sized whole.
    const bool first = blocks_.empty();
    blocks_.emplace_back();
    if (!first) blocks_.back().reserve(std::max(block_bytes_, encoded.size()));
  }
  Bytes& tail = blocks_.back();
  tail.insert(tail.end(), encoded.begin(), encoded.end());
  ++count_;
  bytes_ += encoded.size();
}

void BlockLog::drop_front(std::size_t record_bytes) {
  assert(record_bytes > 0 && count_ > 0);
  head_ += record_bytes;
  bytes_ -= record_bytes;
  --count_;
  Bytes& front = blocks_.front();
  if (head_ == front.size()) {
    blocks_.pop_front();
    head_ = 0;
  } else if (blocks_.size() == 1 && head_ * 2 > front.size()) {
    // The only block is still being appended to, so it is never freed
    // whole: drop its evicted head once that is the larger half.
    front.erase(front.begin(),
                front.begin() + static_cast<std::ptrdiff_t>(head_));
    head_ = 0;
  }
}

void BlockLog::clear() {
  blocks_.clear();
  head_ = 0;
  count_ = 0;
  bytes_ = 0;
}

std::vector<ByteView> BlockLog::blocks() const {
  std::vector<ByteView> views;
  views.reserve(blocks_.size());
  std::size_t begin = head_;
  for (const Bytes& block : blocks_) {
    views.push_back(ByteView(block).subspan(begin));
    begin = 0;
  }
  return views;
}

}  // namespace ss::scada
