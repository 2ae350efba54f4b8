#include "scada/master.h"

#include <stdexcept>

namespace ss::scada {

ScadaMaster::ScadaMaster(MasterOptions options)
    : opt_(std::move(options)),
      storage_(opt_.storage_retention),
      historian_(opt_.historian_capacity) {
  if (!opt_.deterministic && !opt_.clock) {
    opt_.clock = [] { return SimTime{0}; };
  }
}

ItemId ScadaMaster::add_item(const std::string& name,
                             const std::string& frontend) {
  ItemId id = registry_.register_item(name);
  auto [it, inserted] = items_.try_emplace(id.value);
  if (inserted) {
    it->second.id = id;
    it->second.name = name;
    chains_.try_emplace(id.value);
    item_frontends_[id.value] = frontend;
  }
  return id;
}

const std::string& ScadaMaster::frontend_of(ItemId item) const {
  static const std::string kDefault = "frontend";
  auto it = item_frontends_.find(item.value);
  return it == item_frontends_.end() ? kDefault : it->second;
}

HandlerChain& ScadaMaster::handlers(ItemId item) {
  auto it = chains_.find(item.value);
  if (it == chains_.end()) throw std::out_of_range("unknown item");
  return it->second;
}

const Item* ScadaMaster::item(ItemId id) const {
  auto it = items_.find(id.value);
  return it == items_.end() ? nullptr : &it->second;
}

SimTime ScadaMaster::effective_time(const MsgContext& ctx) const {
  return opt_.deterministic ? ctx.timestamp : opt_.clock();
}

void ScadaMaster::handle(const ScadaMessage& msg, const MsgContext& ctx,
                         const std::string& source) {
  switch (kind_of(msg)) {
    case ScadaMsgKind::kSubscribe:
      process_subscribe(std::get<Subscribe>(msg), ctx);
      break;
    case ScadaMsgKind::kUnsubscribe:
      process_unsubscribe(std::get<Unsubscribe>(msg));
      break;
    case ScadaMsgKind::kItemUpdate:
      process_item_update(std::get<ItemUpdate>(msg), ctx);
      break;
    case ScadaMsgKind::kWriteValue:
      process_write_value(std::get<WriteValue>(msg), ctx, source);
      break;
    case ScadaMsgKind::kWriteResult:
      process_write_result(std::get<WriteResult>(msg), ctx);
      break;
    case ScadaMsgKind::kEventUpdate:
      break;  // masters emit events; they never consume them
  }
}

void ScadaMaster::process_subscribe(const Subscribe& msg,
                                    const MsgContext& ctx) {
  auto& table = msg.channel == Channel::kDa ? da_subs_ : ae_subs_;
  auto& wildcard = msg.channel == Channel::kDa ? da_wildcard_ : ae_wildcard_;
  if (msg.item.value == 0) {
    wildcard.insert(msg.subscriber);
  } else {
    table[msg.item.value].insert(msg.subscriber);
  }

  // Initial snapshot: a late subscriber immediately receives the current
  // value of every matching live item — otherwise a stable process value
  // that changed before the subscription would never reach it. The snapshot
  // is pure replicated state, so every replica emits byte-identical pushes
  // and the subscriber's voter can match them.
  if (msg.channel != Channel::kDa || !da_sink_) return;
  for (const auto& [id, item] : items_) {
    if (!item.live) continue;
    if (msg.item.value != 0 && msg.item.value != id) continue;
    ItemUpdate out;
    out.ctx = ctx;
    out.ctx.timestamp = item.timestamp;
    out.item = item.id;
    out.value = item.value;
    out.quality = item.quality;
    ++counters_.updates_forwarded;
    da_sink_(msg.subscriber, ScadaMessage{std::move(out)});
  }
}

void ScadaMaster::process_unsubscribe(const Unsubscribe& msg) {
  auto& table = msg.channel == Channel::kDa ? da_subs_ : ae_subs_;
  auto& wildcard = msg.channel == Channel::kDa ? da_wildcard_ : ae_wildcard_;
  if (msg.item.value == 0) {
    wildcard.erase(msg.subscriber);
  } else {
    auto it = table.find(msg.item.value);
    if (it != table.end()) {
      it->second.erase(msg.subscriber);
      if (it->second.empty()) table.erase(it);
    }
  }
}

std::set<std::string> ScadaMaster::subscribers_for(
    const std::map<std::uint32_t, std::set<std::string>>& table,
    const std::set<std::string>& wildcard, ItemId item) const {
  std::set<std::string> out = wildcard;
  auto it = table.find(item.value);
  if (it != table.end()) out.insert(it->second.begin(), it->second.end());
  return out;
}

void ScadaMaster::emit_to_da(ItemId item, const ScadaMessage& msg) {
  if (!da_sink_) return;
  for (const std::string& sub : subscribers_for(da_subs_, da_wildcard_, item)) {
    ++counters_.updates_forwarded;
    da_sink_(sub, msg);
  }
}

void ScadaMaster::emit_events(ItemId item, std::vector<Event>& events,
                              const MsgContext& ctx) {
  for (Event& event : events) {
    Event stored = storage_.append(std::move(event));
    ++counters_.events_created;
    if (!ae_sink_) continue;
    EventUpdate update;
    update.ctx = ctx;
    update.ctx.timestamp = stored.timestamp;
    update.event = std::move(stored);
    ScadaMessage msg{std::move(update)};
    for (const std::string& sub :
         subscribers_for(ae_subs_, ae_wildcard_, item)) {
      ++counters_.events_forwarded;
      ae_sink_(sub, msg);
    }
  }
  events.clear();
}

void ScadaMaster::process_item_update(const ItemUpdate& msg,
                                      const MsgContext& ctx) {
  auto it = items_.find(msg.item.value);
  if (it == items_.end()) return;  // update for an unconfigured item
  ++counters_.updates_processed;

  SimTime now = effective_time(ctx);
  HandlerContext hctx{msg.item, it->second.name, now, ctx.op};

  Variant value = msg.value;
  std::vector<Event> events;
  const HandlerChain& chain = chains_.at(msg.item.value);
  if (chain.run_update(hctx, value, events) == UpdateAction::kSuppress) {
    ++counters_.updates_suppressed;
    emit_events(msg.item, events, ctx);
    return;
  }

  it->second.value = value;
  it->second.quality = msg.quality;
  it->second.timestamp = now;
  it->second.live = true;
  historian_.record(msg.item, now, value, msg.quality);

  ItemUpdate out = msg;
  out.value = std::move(value);
  out.ctx.timestamp = now;
  emit_to_da(msg.item, ScadaMessage{std::move(out)});
  emit_events(msg.item, events, ctx);
}

void ScadaMaster::process_write_value(const WriteValue& msg,
                                      const MsgContext& ctx,
                                      const std::string& source) {
  auto it = items_.find(msg.item.value);
  SimTime now = effective_time(ctx);

  auto reply_denied = [&](const std::string& reason) {
    ++counters_.writes_denied;
    WriteResult result;
    result.ctx = ctx;
    result.ctx.timestamp = now;
    result.item = msg.item;
    result.status = WriteStatus::kDenied;
    result.reason = reason;
    if (da_sink_) da_sink_(source, ScadaMessage{std::move(result)});
  };

  if (it == items_.end()) {
    reply_denied("unknown item");
    return;
  }

  HandlerContext hctx{msg.item, it->second.name, now, ctx.op};
  std::vector<Event> events;
  std::string reason;
  const HandlerChain& chain = chains_.at(msg.item.value);
  if (!chain.run_write(hctx, msg.value, events, reason)) {
    // Denied: the operator gets a WriteResult on the DA channel and an
    // EventUpdate with the recorded reason on the AE channel (paper §II-B).
    emit_events(msg.item, events, ctx);
    reply_denied(reason);
    return;
  }
  emit_events(msg.item, events, ctx);

  ++counters_.writes_allowed;
  pending_writes_[ctx.op.value] =
      PendingWrite{msg.item, msg.value, source};
  if (frontend_sink_) {
    WriteValue out = msg;
    frontend_sink_(frontend_of(msg.item), ScadaMessage{std::move(out)});
  }
}

void ScadaMaster::process_write_result(const WriteResult& msg,
                                       const MsgContext& ctx) {
  auto it = pending_writes_.find(ctx.op.value);
  if (it == pending_writes_.end()) return;  // duplicate or timed-out earlier
  PendingWrite pending = std::move(it->second);
  pending_writes_.erase(it);
  ++counters_.write_results;

  SimTime now = effective_time(ctx);
  auto cit = items_.find(pending.item.value);
  std::vector<Event> events;
  if (cit != items_.end()) {
    HandlerContext hctx{pending.item, cit->second.name, now, ctx.op};
    chains_.at(pending.item.value)
        .run_write_result(hctx, msg.status == WriteStatus::kOk, events);
  }

  if (msg.status != WriteStatus::kOk) {
    Event e;
    e.item = pending.item;
    e.severity = Severity::kWarning;
    e.code = msg.status == WriteStatus::kTimeout ? "WRITE_TIMEOUT"
                                                 : "WRITE_FAILED";
    e.message = msg.reason.empty() ? "write did not complete" : msg.reason;
    e.value = pending.value;
    e.timestamp = now;
    e.op = ctx.op;
    events.push_back(std::move(e));
  }
  emit_events(pending.item, events, ctx);

  WriteResult out = msg;
  out.ctx = ctx;
  out.ctx.timestamp = now;
  if (da_sink_) da_sink_(pending.requester, ScadaMessage{std::move(out)});
}

void ScadaMaster::inject_timeout_result(OpId op) {
  auto it = pending_writes_.find(op.value);
  if (it == pending_writes_.end()) return;
  ++counters_.write_timeouts;
  WriteResult synthetic;
  synthetic.ctx.op = op;
  synthetic.item = it->second.item;
  synthetic.status = WriteStatus::kTimeout;
  synthetic.reason = "logical timeout: no WriteResult from frontend";
  process_write_result(synthetic, synthetic.ctx);
}

// --------------------------------------------------------------------------
// replica state

namespace {

using SubscriptionTable = std::map<std::uint32_t, std::set<std::string>>;

void encode_subs(Writer& w, const SubscriptionTable& table,
                 const std::set<std::string>& wildcard) {
  w.varint(wildcard.size());
  for (const std::string& s : wildcard) w.str(s);
  w.varint(table.size());
  for (const auto& [item, subs] : table) {
    w.varint(item);
    w.varint(subs.size());
    for (const std::string& s : subs) w.str(s);
  }
}

void decode_subs(Reader& r, SubscriptionTable& table,
                 std::set<std::string>& wildcard) {
  std::uint64_t n_wild = r.varint();
  for (std::uint64_t i = 0; i < n_wild; ++i) wildcard.insert(r.str());
  std::uint64_t n_table = r.varint();
  for (std::uint64_t i = 0; i < n_table; ++i) {
    std::uint32_t item = r.varint32();
    std::uint64_t n_subs = r.varint();
    auto& subs = table[item];
    for (std::uint64_t j = 0; j < n_subs; ++j) subs.insert(r.str());
  }
}

}  // namespace

Pieces ScadaMaster::state_pieces() const {
  Pieces out(1024);
  Writer& w = out.writer();
  w.varint(items_.size());
  for (const auto& [id, item] : items_) item.encode(w);
  w.varint(chains_.size());
  for (const auto& [id, chain] : chains_) {
    w.varint(id);
    chain.encode_state(w);
  }
  encode_subs(w, da_subs_, da_wildcard_);
  encode_subs(w, ae_subs_, ae_wildcard_);

  w.varint(pending_writes_.size());
  for (const auto& [op, pending] : pending_writes_) {
    w.varint(op);
    w.id(pending.item);
    pending.value.encode(w);
    w.str(pending.requester);
  }

  storage_.encode(out);
  historian_.encode(out);
  return out;
}

Bytes ScadaMaster::snapshot() const {
  Pieces pieces = state_pieces();
  Writer w(pieces.size());
  pieces.write_to(w);
  return std::move(w).take();
}

void ScadaMaster::restore(ByteView data) {
  Reader r(data);
  std::map<std::uint32_t, Item> items;
  std::uint64_t n_items = r.varint();
  for (std::uint64_t i = 0; i < n_items; ++i) {
    Item item = Item::decode(r);
    items[item.id.value] = std::move(item);
  }

  // Handler state lives in the handlers, so it is decoded in place; their
  // current state is kept to be put back if any later section throws.
  Writer chains_before;
  for (const auto& [id, chain] : chains_) chain.encode_state(chains_before);
  try {
    std::uint64_t n_chains = r.varint();
    if (n_chains != chains_.size()) throw DecodeError("chain config mismatch");
    for (std::uint64_t i = 0; i < n_chains; ++i) {
      std::uint32_t id = r.varint32();
      auto it = chains_.find(id);
      if (it == chains_.end()) throw DecodeError("chain config mismatch");
      it->second.decode_state(r);
    }

    SubscriptionTable da_subs, ae_subs;
    std::set<std::string> da_wildcard, ae_wildcard;
    decode_subs(r, da_subs, da_wildcard);
    decode_subs(r, ae_subs, ae_wildcard);

    std::map<std::uint64_t, PendingWrite> pending_writes;
    std::uint64_t n_pending = r.varint();
    for (std::uint64_t i = 0; i < n_pending; ++i) {
      std::uint64_t op = r.varint();
      PendingWrite pending;
      pending.item = r.id<ItemId>();
      pending.value = Variant::decode(r);
      pending.requester = r.str();
      pending_writes[op] = std::move(pending);
    }

    EventStorage storage(opt_.storage_retention);
    storage.decode(r);
    Historian historian(opt_.historian_capacity);
    historian.decode(r);
    r.expect_done();

    items_ = std::move(items);
    da_subs_ = std::move(da_subs);
    da_wildcard_ = std::move(da_wildcard);
    ae_subs_ = std::move(ae_subs);
    ae_wildcard_ = std::move(ae_wildcard);
    pending_writes_ = std::move(pending_writes);
    storage_ = std::move(storage);
    historian_ = std::move(historian);
  } catch (...) {
    Reader before(chains_before.bytes());
    for (auto& [id, chain] : chains_) chain.decode_state(before);
    throw;
  }
}

crypto::Digest ScadaMaster::state_digest() const {
  crypto::Sha256 hasher;
  state_pieces().for_each([&hasher](ByteView piece) { hasher.update(piece); });
  return hasher.finish();
}

}  // namespace ss::scada
