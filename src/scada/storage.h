// Append-only event storage (NeoSCADA's internal storage component).
//
// Every event a handler raises is persisted here before the EventUpdate is
// pushed to AE subscribers. The storage keeps a running chain digest so two
// replicas can compare their entire event history in O(1) — the determinism
// tests and checkpoint digests build on this.
//
// A handler raises the same few (item, severity, code, message) combinations
// over and over: a Monitor's alarm differs from the last one only in value,
// timestamp and op. So the storage keeps a table of those distinct templates
// and stores each resident event as a compact record, back to back in a
// BlockLog: the template's index, then the value, timestamp and op id coded
// against the record before (see block_log.h); the event id is implied by
// position. Queries decode on demand from the log's base. The table, the
// base and the records are exactly the event section of the replica
// snapshot, so a snapshot copies the blocks and a state digest hashes them
// where they lie.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/serialization.h"
#include "crypto/sha256.h"
#include "scada/block_log.h"
#include "scada/event.h"

namespace ss::scada {

class EventStorage {
 public:
  /// Distinct templates the table holds. Write-failure and Block reasons
  /// come from outside the Master, so distinct texts must not grow it
  /// without bound: once it is full, a new template is stored inline in its
  /// record.
  static constexpr std::size_t kMaxTemplates = 1024;

  /// `retention` bounds memory: older events are evicted (their effect stays
  /// in the chain digest). 0 = unlimited.
  explicit EventStorage(std::size_t retention = 0) : retention_(retention) {}

  // templates_ points at index_'s keys, which a move keeps in place and a
  // copy would not.
  EventStorage(EventStorage&&) = default;
  EventStorage& operator=(EventStorage&&) = default;
  EventStorage(const EventStorage&) = delete;
  EventStorage& operator=(const EventStorage&) = delete;

  /// Assigns the next EventId, persists, extends the chain digest, and
  /// returns the stored record.
  Event append(Event event);

  std::uint64_t size() const { return appended_; }
  std::size_t resident() const { return log_.size(); }
  /// Distinct templates in the table (at most kMaxTemplates).
  std::size_t templates() const { return templates_.size(); }

  /// Chain digest: H(prev_digest || Event::encode), seeded with zeros.
  const crypto::Digest& chain_digest() const { return chain_; }

  /// Events for one item, newest last (resident window only).
  std::vector<Event> query_item(ItemId item) const;

  /// Events with severity >= floor (resident window only).
  std::vector<Event> query_severity(Severity floor) const;

  /// Events with timestamp in [from, to] (resident window only).
  std::vector<Event> query_range(SimTime from, SimTime to) const;

  /// Encoded bytes of the resident records.
  std::size_t log_bytes() const { return log_.bytes(); }

  /// The header (appended count, chain digest, resident count); when any
  /// event was ever appended, the template count and templates, the log's
  /// base (the fields of the last evicted event, zero while none was), then
  /// the records. A log that never held an event is the header alone.
  void encode(Writer& w) const;
  /// The same bytes as encode(), with the records as views into the log's
  /// blocks (valid until the next append or decode).
  void encode(Pieces& out) const;
  /// Decodes the templates, base and records and stores the records'
  /// canonical re-encodings, so odd-but-decodable bytes never enter the
  /// log. Throws DecodeError on truncation, on more resident events than
  /// appended, on more templates than kMaxTemplates or a duplicate one, on
  /// a tag past the table, on an inline template while the table had room
  /// or one the table already holds, and on a record decode_record()
  /// rejects.
  void decode(Reader& r);

 private:
  /// A Monitor alarm's record is ~8 bytes; 64 KiB blocks keep the
  /// per-block overhead negligible.
  static constexpr std::size_t kBlockBytes = 64 * 1024;

  struct TemplateHash {
    using is_transparent = void;
    std::size_t operator()(std::string_view s) const {
      return std::hash<std::string_view>{}(s);
    }
  };

  /// The record's tag for `key` (a template's encoding): 1 + its index,
  /// adding it while the table has room, or 0 once the table is full.
  std::uint64_t tag_for(std::string_view key);
  /// Decodes every resident event and keeps those `keep` accepts.
  template <typename Keep>
  std::vector<Event> select(Keep keep) const;
  /// Reads one record coded against `prior` into `event`: its template
  /// inline or, when `heads` (the table's templates, decoded) is given,
  /// from the table, then its value, timestamp and op.
  static void read_record(Reader& r, Prior& prior, Event& event,
                          const std::vector<Event>* heads);

  std::size_t retention_;
  BlockLog log_{kBlockBytes};
  /// The fields of the event before the oldest resident one, and of the
  /// newest one: what the first resident record and the next append code
  /// against.
  Prior base_;
  Prior last_;
  std::uint64_t appended_ = 0;
  crypto::Digest chain_{};
  /// Template encodings by index (a tag k names templates_[k - 1]).
  std::vector<const std::string*> templates_;
  /// The same templates keyed by their encoding.
  std::unordered_map<std::string, std::uint32_t, TemplateHash, std::equal_to<>>
      index_;
  /// Reused by append() for the event's encoding and then its record.
  Writer encoding_;
};

}  // namespace ss::scada
