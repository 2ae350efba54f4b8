// Append-only log of records coded against the record before them, kept in
// blocks freed from the front.
//
// EventStorage and the Historian keep their records encoded rather than as
// decoded objects: the bytes are what snapshots copy and state digests
// hash, so both can view the blocks where they lie. A Monitor's alarm
// differs from the one before it in the low bits of its value and by small
// steps of timestamp and op, and so does an item's sample; so, as Gorilla
// stores monitoring time series (Pelkonen et al., VLDB 2015), each record
// carries those fields as differences from its predecessor's, and a
// Monitor alarm takes about 8 bytes. Records have no offsets: a log keeps
// its base, the fields of the record just before its first resident one,
// and walking, skipping or evicting records decodes them from there.
#pragma once

#include <cstdint>
#include <deque>
#include <vector>

#include "common/bytes.h"
#include "common/serialization.h"
#include "common/types.h"
#include "scada/variant.h"

namespace ss::scada {

/// The fields a record is coded against: those of the record before it,
/// all zero before a log's first record. The value is kept only as far as
/// coding needs it: its kind when it is an int64 or a double, else null.
struct Prior {
  Variant::Type kind = Variant::Type::kNull;
  std::uint64_t bits = 0;  ///< the int64, or the double's bits
  SimTime timestamp = 0;
  std::uint64_t op = 0;  ///< event records only

  /// A log's base in a snapshot: the kind as a byte, the 8 bytes of `bits`
  /// when the kind is numeric, the timestamp (8 bytes), and the op as a
  /// varint when `with_op`.
  void encode(Writer& w, bool with_op) const;
  /// Throws DecodeError on truncation, a kind other than null, int64 or
  /// double, and an overlong varint.
  void decode(Reader& r, bool with_op);
  bool operator==(const Prior&) const = default;
};

/// One record's value, timestamp and (for events) op, coded against
/// `prior`, which then moves onto this record's fields.
///
/// The record opens with its type byte: the value's kind in bits 0-2; bit 3
/// set when the value is coded (a double after a double as the XOR of their
/// bits with its trailing zero bits stripped, a shift byte and a varint;
/// an int64 after an int64 as the zigzag varint of the wrapping
/// difference), bit 4 when the timestamp is (the zigzag varint of the
/// wrapping difference) and bit 5 when the op is (likewise); bits 6-7 carry
/// `extra` (a sample's quality). Each field takes its coded form only where
/// that is no longer than the plain one (the value's Variant payload, an
/// 8-byte timestamp, the op's varint), so a record is never longer than the
/// type byte plus the plain fields. `op` is null for samples, which have
/// none.
void encode_record(Writer& w, Prior& prior, const Variant& value,
                   SimTime timestamp, const std::uint64_t* op,
                   std::uint8_t extra);
/// Reads what encode_record wrote and returns `extra`. Throws DecodeError on
/// truncation, a bad kind or flag, `extra` above `max_extra`, a coded value
/// whose predecessor is not of its kind, a shift past 63 and an overlong
/// varint.
std::uint8_t decode_record(Reader& r, Prior& prior, Variant& value,
                           SimTime& timestamp, std::uint64_t* op,
                           std::uint8_t max_extra);

class BlockLog {
 public:
  /// Blocks stop growing at `block_bytes`: the log never reallocates (and so
  /// never holds two copies of itself), and an evicted prefix is freed a
  /// block at a time.
  explicit BlockLog(std::size_t block_bytes) : block_bytes_(block_bytes) {}

  /// Appends one record; `encoded` must not be empty.
  void push_back(ByteView encoded);
  /// Drops the oldest record, which `read(Reader&)` decodes: what it reads
  /// is how the log learns where the record ends. The log must not be
  /// empty.
  template <typename F>
  void pop_front(F&& read) {
    Reader r(ByteView(blocks_.front()).subspan(head_));
    const std::size_t before = r.remaining();
    read(r);
    drop_front(before - r.remaining());
  }
  void clear();

  std::size_t size() const { return count_; }
  bool empty() const { return count_ == 0; }
  /// Encoded bytes of the resident records.
  std::size_t bytes() const { return bytes_; }

  /// The records, oldest first, back to back, as views into the blocks
  /// (valid until the log changes).
  std::vector<ByteView> blocks() const;

  /// Calls `read(Reader&)` once per record, oldest first; each call reads
  /// exactly one record.
  template <typename F>
  void for_each(F&& read) const {
    std::size_t begin = head_;
    for (const Bytes& block : blocks_) {
      Reader r(ByteView(block).subspan(begin));
      while (!r.done()) read(r);
      begin = 0;
    }
  }

 private:
  void drop_front(std::size_t record_bytes);

  std::size_t block_bytes_;
  /// Records back to back. A record never straddles two blocks; one larger
  /// than block_bytes_ gets a block of its own. So a block's last record
  /// ends at the block's end, which is how a walk knows where the next
  /// block starts.
  std::deque<Bytes> blocks_;
  /// Offset of the oldest record in blocks_.front().
  std::size_t head_ = 0;
  std::size_t count_ = 0;
  std::size_t bytes_ = 0;
};

}  // namespace ss::scada
