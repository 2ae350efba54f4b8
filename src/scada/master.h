// The SCADA Master: item mirror, DA/AE routing, handler execution, event
// storage (paper §II, Figure 2).
//
// This class is transport-agnostic: inbound messages arrive through the
// single entry point handle(), outbound messages leave through the
// registered sinks. The baseline deployment wires the sinks straight onto
// the simulated network (multiple concurrent entry points, local clock —
// the "traditional" NeoSCADA); the replicated deployment puts the Adapter
// in front so that every message is totally ordered and timestamps come
// from the agreement layer (deterministic mode).
#pragma once

#include <functional>
#include <map>
#include <optional>
#include <set>
#include <string>

#include "crypto/sha256.h"
#include "scada/handlers.h"
#include "scada/historian.h"
#include "scada/item.h"
#include "scada/messages.h"
#include "scada/storage.h"

namespace ss::scada {

struct MasterOptions {
  /// Replicated mode: event/value timestamps come from MsgContext, never
  /// from `clock` (paper challenge (c)).
  bool deterministic = false;
  /// Local clock used in baseline mode (and for nothing else).
  std::function<SimTime()> clock;
  std::size_t storage_retention = 0;
  /// Value-archive depth per item (0 = default 4096).
  std::size_t historian_capacity = 0;
};

struct MasterCounters {
  std::uint64_t updates_processed = 0;
  std::uint64_t updates_suppressed = 0;
  std::uint64_t updates_forwarded = 0;  ///< ItemUpdate fan-outs to DA subscribers
  std::uint64_t events_created = 0;
  std::uint64_t events_forwarded = 0;   ///< EventUpdate fan-outs to AE subscribers
  std::uint64_t writes_allowed = 0;
  std::uint64_t writes_denied = 0;
  std::uint64_t write_results = 0;
  std::uint64_t write_timeouts = 0;
};

class ScadaMaster {
 public:
  /// Outbound message toward one HMI-side subscriber.
  using SubscriberSink =
      std::function<void(const std::string& subscriber, const ScadaMessage&)>;
  /// Outbound message toward one Frontend (NeoSCADA supports several; each
  /// item belongs to exactly one).
  using FrontendSink =
      std::function<void(const std::string& frontend, const ScadaMessage&)>;

  explicit ScadaMaster(MasterOptions options = {});

  // --- configuration ------------------------------------------------------
  /// Registers an item, owned by `frontend` (the connection name write
  /// commands for it are routed to).
  ItemId add_item(const std::string& name,
                  const std::string& frontend = "frontend");
  HandlerChain& handlers(ItemId item);
  const std::string& frontend_of(ItemId item) const;
  ItemRegistry& registry() { return registry_; }
  const ItemRegistry& registry() const { return registry_; }

  void set_da_sink(SubscriberSink sink) { da_sink_ = std::move(sink); }
  void set_ae_sink(SubscriberSink sink) { ae_sink_ = std::move(sink); }
  void set_frontend_sink(FrontendSink sink) {
    frontend_sink_ = std::move(sink);
  }

  // --- the single entry point ---------------------------------------------
  /// Processes one inbound message. `source` identifies the connection it
  /// arrived on (a subscriber name for HMI traffic, "frontend" for Frontend
  /// traffic); `ctx` carries ordering/timestamp info in replicated mode.
  void handle(const ScadaMessage& msg, const MsgContext& ctx,
              const std::string& source);

  /// Injects a synthetic WriteResult for a pending write operation — the
  /// logical-timeout protocol's unblocking path (paper §IV-D).
  void inject_timeout_result(OpId op);

  bool has_pending_write(OpId op) const {
    return pending_writes_.count(op.value) > 0;
  }
  std::size_t pending_write_count() const { return pending_writes_.size(); }
  std::vector<OpId> pending_write_ops() const {
    std::vector<OpId> ops;
    ops.reserve(pending_writes_.size());
    for (const auto& [op, _] : pending_writes_) ops.emplace_back(op);
    return ops;
  }

  // --- introspection -------------------------------------------------------
  const Item* item(ItemId id) const;
  const EventStorage& storage() const { return storage_; }
  const Historian& historian() const { return historian_; }
  const MasterCounters& counters() const { return counters_; }

  // --- replica state -------------------------------------------------------
  /// Deterministic serialization of all replicated state: items, handler
  /// state, subscriptions, pending writes, event storage. Configuration
  /// (item set, handler chain composition) is assumed identical across
  /// replicas and is not included.
  Bytes snapshot() const;
  /// All or nothing: decodes the whole snapshot before it replaces any
  /// state, so a malformed one throws DecodeError and leaves this master as
  /// it was.
  void restore(ByteView data);
  /// Sha256::hash(snapshot()), computed without materialising the snapshot:
  /// the event log and the historian's samples are hashed where they lie.
  crypto::Digest state_digest() const;
  /// The snapshot as pieces: the encoded items through the storage header
  /// and event templates, then views of the event log's records and of the
  /// historian's sample logs (valid until the state next changes).
  Pieces state_pieces() const;

 private:

  struct PendingWrite {
    ItemId item;
    Variant value;
    std::string requester;
  };

  SimTime effective_time(const MsgContext& ctx) const;
  void process_subscribe(const Subscribe& msg, const MsgContext& ctx);
  void process_unsubscribe(const Unsubscribe& msg);
  void process_item_update(const ItemUpdate& msg, const MsgContext& ctx);
  void process_write_value(const WriteValue& msg, const MsgContext& ctx,
                           const std::string& source);
  void process_write_result(const WriteResult& msg, const MsgContext& ctx);
  void emit_to_da(ItemId item, const ScadaMessage& msg);
  void emit_events(ItemId item, std::vector<Event>& events,
                   const MsgContext& ctx);
  std::set<std::string> subscribers_for(
      const std::map<std::uint32_t, std::set<std::string>>& table,
      const std::set<std::string>& wildcard, ItemId item) const;

  MasterOptions opt_;
  ItemRegistry registry_;
  std::map<std::uint32_t, Item> items_;
  std::map<std::uint32_t, HandlerChain> chains_;
  std::map<std::uint32_t, std::string> item_frontends_;  // configuration

  // channel -> (item -> subscribers); wildcard = subscribed to all items
  std::map<std::uint32_t, std::set<std::string>> da_subs_;
  std::set<std::string> da_wildcard_;
  std::map<std::uint32_t, std::set<std::string>> ae_subs_;
  std::set<std::string> ae_wildcard_;

  std::map<std::uint64_t, PendingWrite> pending_writes_;  // by op id
  EventStorage storage_;
  Historian historian_;
  MasterCounters counters_;

  SubscriberSink da_sink_;
  SubscriberSink ae_sink_;
  FrontendSink frontend_sink_;
};

}  // namespace ss::scada
