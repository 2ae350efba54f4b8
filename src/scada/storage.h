// Append-only event storage (NeoSCADA's internal storage component).
//
// Every event a handler raises is persisted here before the EventUpdate is
// pushed to AE subscribers. The storage keeps a running chain digest so two
// replicas can compare their entire event history in O(1) — the determinism
// tests and checkpoint digests build on this.
//
// Resident events are kept in their canonical encoding (the bytes the chain
// digest already hashes), back to back in an append-only log, and decoded
// only when queried. The log is exactly the event section of the replica
// snapshot, so a snapshot copies it and a state digest hashes it in place
// instead of re-encoding every event.
#pragma once

#include <deque>
#include <vector>

#include "common/serialization.h"
#include "crypto/sha256.h"
#include "scada/event.h"

namespace ss::scada {

class EventStorage {
 public:
  /// `retention` bounds memory: older events are evicted (their effect stays
  /// in the chain digest). 0 = unlimited.
  explicit EventStorage(std::size_t retention = 0) : retention_(retention) {}

  /// Assigns the next EventId, persists, extends the chain digest, and
  /// returns the stored record.
  Event append(Event event);

  std::uint64_t size() const { return appended_; }
  std::size_t resident() const { return ends_.size(); }

  /// Chain digest: H(prev_digest || encoded event), seeded with zeros.
  const crypto::Digest& chain_digest() const { return chain_; }

  /// Events for one item, newest last (resident window only).
  std::vector<Event> query_item(ItemId item) const;

  /// Events with severity >= floor (resident window only).
  std::vector<Event> query_severity(Severity floor) const;

  /// Events with timestamp in [from, to] (resident window only).
  std::vector<Event> query_range(SimTime from, SimTime to) const;

  /// The resident events' encodings, oldest first, as views into the log
  /// (valid until the next append or decode). Their concatenation is what
  /// encode() writes after the header.
  std::vector<ByteView> log() const;
  std::size_t log_bytes() const { return log_bytes_; }

  /// Header (appended count, chain digest, resident count), then the log.
  void encode_header(Writer& w) const;
  void encode(Writer& w) const;
  /// Decodes every event and stores its canonical re-encoding, so a
  /// malformed event throws DecodeError and odd-but-decodable bytes never
  /// enter the log.
  void decode(Reader& r);

 private:
  /// Blocks stop growing at this size: the log never reallocates (and so
  /// never holds two copies of itself), and an evicted prefix is freed a
  /// block at a time.
  static constexpr std::size_t kBlockBytes = 64 * 1024;

  void place(ByteView encoded);
  void evict_oldest();

  std::size_t retention_;
  /// The log: encodings back to back. An event never straddles two blocks;
  /// one larger than kBlockBytes gets a block of its own.
  std::deque<Bytes> blocks_;
  /// Offset of the oldest resident event in blocks_.front().
  std::size_t head_ = 0;
  /// Per resident event, oldest first: end offset within its block.
  std::deque<std::uint32_t> ends_;
  std::size_t log_bytes_ = 0;
  std::uint64_t appended_ = 0;
  crypto::Digest chain_{};
};

}  // namespace ss::scada
