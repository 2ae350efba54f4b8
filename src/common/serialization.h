// Compact, deterministic binary wire format.
//
// Every message that crosses the simulated network (SCADA DA/AE frames, BFT
// consensus messages, RTU modbus frames) is encoded with Writer and decoded
// with Reader. Determinism of the encoding matters: replica state digests
// and reply voting compare encoded bytes, so a value must always encode to
// the same bytes.
//
// Integers are little-endian fixed width or LEB128 varints; strings and
// blobs are length-prefixed with a varint.
#pragma once

#include <cstdint>
#include <cstring>
#include <limits>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "common/bytes.h"
#include "common/types.h"

namespace ss {

/// Thrown by Reader when the buffer is truncated or malformed. A Byzantine
/// sender can produce arbitrary bytes, so *every* decode path must be
/// prepared for this exception and treat it as a faulty-sender signal.
class DecodeError : public std::runtime_error {
 public:
  explicit DecodeError(const std::string& what) : std::runtime_error(what) {}
};

class Writer {
 public:
  Writer() = default;
  explicit Writer(std::size_t reserve) { buf_.reserve(reserve); }

  void u8(std::uint8_t v) { buf_.push_back(v); }
  void u16(std::uint16_t v) { fixed(v); }
  void u32(std::uint32_t v) { fixed(v); }
  void u64(std::uint64_t v) { fixed(v); }
  void i64(std::int64_t v) { fixed(static_cast<std::uint64_t>(v)); }
  void f64(double v) {
    std::uint64_t bits;
    static_assert(sizeof(bits) == sizeof(v));
    std::memcpy(&bits, &v, sizeof(bits));
    fixed(bits);
  }
  void boolean(bool v) { u8(v ? 1 : 0); }

  /// LEB128 unsigned varint.
  void varint(std::uint64_t v) {
    while (v >= 0x80) {
      buf_.push_back(static_cast<std::uint8_t>(v) | 0x80);
      v >>= 7;
    }
    buf_.push_back(static_cast<std::uint8_t>(v));
  }

  void str(std::string_view s) {
    varint(s.size());
    buf_.insert(buf_.end(), s.begin(), s.end());
  }

  void blob(ByteView b) {
    varint(b.size());
    buf_.insert(buf_.end(), b.begin(), b.end());
  }

  /// Raw bytes with no length prefix (for framing layers).
  void raw(ByteView b) { buf_.insert(buf_.end(), b.begin(), b.end()); }

  template <typename Tag, typename Rep>
  void id(StrongId<Tag, Rep> v) {
    varint(static_cast<std::uint64_t>(v.value));
  }

  template <typename E>
    requires std::is_enum_v<E>
  void enumeration(E e) {
    varint(static_cast<std::uint64_t>(e));
  }

  const Bytes& bytes() const& { return buf_; }
  Bytes take() && { return std::move(buf_); }
  /// Empties the buffer but keeps its capacity, so a reused writer stops
  /// allocating.
  void clear() { buf_.clear(); }
  std::size_t size() const { return buf_.size(); }

 private:
  template <typename T>
  void fixed(T v) {
    for (std::size_t i = 0; i < sizeof(T); ++i) {
      buf_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
    }
  }

  Bytes buf_;
};

/// An encoding kept as pieces, in order: bytes written through writer()
/// and views of bytes that stay where they lie (each valid until its owner
/// changes). Copying the pieces out once, or hashing them one by one, never
/// materialises a second copy of a large log.
class Pieces {
 public:
  /// `reserve` sizes the buffer for the owned bytes written first.
  explicit Pieces(std::size_t reserve = 0) : tail_(reserve) {}
  // A copy's views would still point into the original's owned bytes.
  Pieces(const Pieces&) = delete;
  Pieces& operator=(const Pieces&) = delete;
  Pieces(Pieces&&) = default;
  Pieces& operator=(Pieces&&) = default;

  /// Appends owned bytes after every piece so far.
  Writer& writer() { return tail_; }
  /// Appends a view after every piece so far.
  void view(ByteView bytes) {
    seal();
    size_ += bytes.size();
    views_.push_back(bytes);
  }
  /// Appends `bytes` after every piece so far, taking its buffer over.
  void adopt(Bytes bytes) {
    seal();
    size_ += bytes.size();
    owned_.push_back(std::move(bytes));
    views_.push_back(owned_.back());
  }
  /// Appends every piece of `other` after every piece so far, taking over
  /// its owned bytes (their buffers stay where they are, so no byte moves).
  void append(Pieces&& other) {
    seal();
    other.seal();
    for (Bytes& owned : other.owned_) owned_.push_back(std::move(owned));
    views_.insert(views_.end(), other.views_.begin(), other.views_.end());
    size_ += other.size_;
    other.owned_.clear();
    other.views_.clear();
    other.size_ = 0;
  }
  std::size_t size() const { return size_ + tail_.size(); }
  /// Calls f(ByteView) on every piece in order.
  template <typename F>
  void for_each(F&& f) const {
    for (ByteView piece : views_) f(piece);
    if (tail_.size() > 0) f(ByteView(tail_.bytes()));
  }
  /// Appends every piece to `w`, in order.
  void write_to(Writer& w) const {
    for_each([&w](ByteView piece) { w.raw(piece); });
  }

 private:
  void seal() {
    if (tail_.size() == 0) return;
    owned_.push_back(std::move(tail_).take());
    tail_ = Writer();
    size_ += owned_.back().size();
    views_.push_back(owned_.back());
  }

  /// Sealed owned pieces. views_ point into their buffers, which moving a
  /// Bytes (as this vector does when it grows) leaves in place.
  std::vector<Bytes> owned_;
  std::vector<ByteView> views_;
  std::size_t size_ = 0;  // bytes in views_
  Writer tail_;
};

class Reader {
 public:
  explicit Reader(ByteView data) : data_(data) {}

  std::uint8_t u8() {
    need(1);
    return data_[pos_++];
  }
  std::uint16_t u16() { return fixed<std::uint16_t>(); }
  std::uint32_t u32() { return fixed<std::uint32_t>(); }
  std::uint64_t u64() { return fixed<std::uint64_t>(); }
  std::int64_t i64() { return static_cast<std::int64_t>(u64()); }
  double f64() {
    std::uint64_t bits = u64();
    double v;
    std::memcpy(&v, &bits, sizeof(v));
    return v;
  }
  bool boolean() {
    std::uint8_t v = u8();
    if (v > 1) throw DecodeError("bad boolean");
    return v == 1;
  }

  /// An LEB128 varint in the one form Writer::varint writes: throws
  /// DecodeError when it is overlong (a zero last byte after the first) or
  /// does not fit 64 bits (a 10th byte above 1), so a value has one byte
  /// form on the wire and in a snapshot.
  std::uint64_t varint() {
    std::uint64_t v = 0;
    for (int shift = 0;; shift += 7) {
      const std::uint8_t b = u8();
      if (shift == 63 && b > 1) throw DecodeError("varint overflow");
      v |= static_cast<std::uint64_t>(b & 0x7f) << shift;
      if ((b & 0x80) == 0) {
        if (b == 0 && shift > 0) throw DecodeError("overlong varint");
        return v;
      }
    }
  }

  std::string str() {
    std::uint64_t n = length_prefix();
    std::string s(reinterpret_cast<const char*>(data_.data() + pos_), n);
    pos_ += n;
    return s;
  }

  Bytes blob() {
    ByteView b = blob_view();
    return Bytes(b.begin(), b.end());
  }

  /// A blob's bytes where they lie: valid as long as the buffer read from.
  ByteView blob_view() {
    std::uint64_t n = length_prefix();
    ByteView b = data_.subspan(pos_, n);
    pos_ += n;
    return b;
  }

  /// Decoded varint checked against the id's representation width, so a
  /// Byzantine sender cannot smuggle 2^40 through a uint32 id and have it
  /// silently truncate into a colliding small value.
  template <typename IdType>
  IdType id() {
    using Rep = decltype(IdType{}.value);
    std::uint64_t v = varint();
    if (v > std::numeric_limits<Rep>::max()) {
      throw DecodeError("id out of range");
    }
    return IdType{static_cast<Rep>(v)};
  }

  /// varint checked to fit 32 bits (for counts and wire fields narrower
  /// than the varint's natural 64-bit range).
  std::uint32_t varint32() {
    std::uint64_t v = varint();
    if (v > std::numeric_limits<std::uint32_t>::max()) {
      throw DecodeError("varint32 out of range");
    }
    return static_cast<std::uint32_t>(v);
  }

  template <typename E>
    requires std::is_enum_v<E>
  E enumeration(std::uint64_t max_value) {
    std::uint64_t v = varint();
    if (v > max_value) throw DecodeError("enum out of range");
    return static_cast<E>(v);
  }

  bool done() const { return pos_ == data_.size(); }
  std::size_t remaining() const { return data_.size() - pos_; }

  /// Decoders call this after reading a full message to reject messages
  /// with trailing garbage (a cheap Byzantine-input sanity check).
  void expect_done() const {
    if (!done()) throw DecodeError("trailing bytes");
  }

 private:
  void need(std::size_t n) const {
    // Written as a subtraction so a huge `n` (e.g. a hostile varint length
    // prefix near SIZE_MAX) cannot overflow `pos_ + n` and wrap past the
    // bounds check. `pos_ <= data_.size()` is an invariant.
    if (n > data_.size() - pos_) throw DecodeError("truncated buffer");
  }

  std::uint64_t length_prefix() {
    std::uint64_t n = varint();
    need(n);
    return n;
  }

  template <typename T>
  T fixed() {
    need(sizeof(T));
    T v = 0;
    for (std::size_t i = 0; i < sizeof(T); ++i) {
      v |= static_cast<T>(static_cast<T>(data_[pos_ + i]) << (8 * i));
    }
    pos_ += sizeof(T);
    return v;
  }

  ByteView data_;
  std::size_t pos_ = 0;
};

}  // namespace ss
