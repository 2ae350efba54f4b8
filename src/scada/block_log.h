// Append-only log of encoded records, kept in blocks freed from the front.
//
// EventStorage and the Historian keep their records in canonical encoding
// rather than as decoded objects: the bytes are what snapshots copy and
// state digests hash, so both can view the blocks where they lie, and a
// record costs its encoded size plus a 4-byte end offset instead of a heap
// node. Decoding happens only when a query reads the log.
#pragma once

#include <cstdint>
#include <deque>
#include <vector>

#include "common/bytes.h"
#include "common/serialization.h"

namespace ss::scada {

class BlockLog {
 public:
  /// Blocks stop growing at `block_bytes`: the log never reallocates (and so
  /// never holds two copies of itself), and an evicted prefix is freed a
  /// block at a time.
  explicit BlockLog(std::size_t block_bytes) : block_bytes_(block_bytes) {}

  /// Appends one record; `encoded` must not be empty.
  void push_back(ByteView encoded);
  /// Drops the oldest record; the log must not be empty.
  void pop_front();
  void clear();

  std::size_t size() const { return ends_.size(); }
  bool empty() const { return ends_.empty(); }
  /// Encoded bytes of the resident records.
  std::size_t bytes() const { return bytes_; }

  /// The records from the `first`-th oldest on, back to back, as views into
  /// the blocks (valid until the log changes).
  std::vector<ByteView> blocks(std::size_t first = 0) const;

  /// Decodes the records from the `first`-th oldest on with T::decode and
  /// passes each to `f`, oldest first.
  template <typename T, typename F>
  void decode_each(F&& f, std::size_t first = 0) const {
    for (ByteView block : blocks(first)) {
      Reader r(block);
      while (!r.done()) f(T::decode(r));
    }
  }

 private:
  std::size_t block_bytes_;
  /// Records back to back. A record never straddles two blocks; one larger
  /// than block_bytes_ gets a block of its own.
  std::deque<Bytes> blocks_;
  /// Offset of the oldest record in blocks_.front().
  std::size_t head_ = 0;
  /// Per record, oldest first: its end offset within its block. A block's
  /// last record ends at the block's size, which is how a walk over ends_
  /// knows the next record starts the next block.
  std::deque<std::uint32_t> ends_;
  std::size_t bytes_ = 0;
};

}  // namespace ss::scada
