// Append-only event storage (NeoSCADA's internal storage component).
//
// Every event a handler raises is persisted here before the EventUpdate is
// pushed to AE subscribers. The storage keeps a running chain digest so two
// replicas can compare their entire event history in O(1) — the determinism
// tests and checkpoint digests build on this.
//
// Resident events are kept in their canonical encoding (the bytes the chain
// digest already hashes), back to back in a BlockLog, and decoded only when
// queried. The log is exactly the event section of the replica snapshot, so
// a snapshot copies it and a state digest hashes it in place instead of
// re-encoding every event.
#pragma once

#include <vector>

#include "common/serialization.h"
#include "crypto/sha256.h"
#include "scada/block_log.h"
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
  std::size_t resident() const { return log_.size(); }

  /// Chain digest: H(prev_digest || encoded event), seeded with zeros.
  const crypto::Digest& chain_digest() const { return chain_; }

  /// Events for one item, newest last (resident window only).
  std::vector<Event> query_item(ItemId item) const;

  /// Events with severity >= floor (resident window only).
  std::vector<Event> query_severity(Severity floor) const;

  /// Events with timestamp in [from, to] (resident window only).
  std::vector<Event> query_range(SimTime from, SimTime to) const;

  /// Encoded bytes of the resident events (what encode() writes after the
  /// header).
  std::size_t log_bytes() const { return log_.bytes(); }

  /// Header (appended count, chain digest, resident count), then the log.
  void encode_header(Writer& w) const;
  void encode(Writer& w) const;
  /// The same bytes as encode(), with the log as views into its blocks
  /// (valid until the next append or decode).
  void encode(Pieces& out) const;
  /// Decodes every event and stores its canonical re-encoding, so a
  /// malformed event throws DecodeError and odd-but-decodable bytes never
  /// enter the log.
  void decode(Reader& r);

 private:
  /// Events are appended at a few hundred bytes each; 64 KiB blocks keep
  /// the per-block overhead negligible.
  static constexpr std::size_t kBlockBytes = 64 * 1024;

  std::size_t retention_;
  BlockLog log_{kBlockBytes};
  std::uint64_t appended_ = 0;
  crypto::Digest chain_{};
};

}  // namespace ss::scada
