#include "scada/storage.h"

namespace ss::scada {

namespace {

/// Decodes every event in `log` and keeps those `keep` accepts.
template <typename Keep>
std::vector<Event> decode_if(const BlockLog& log, Keep keep) {
  std::vector<Event> out;
  log.decode_each<Event>([&](Event e) {
    if (keep(e)) out.push_back(std::move(e));
  });
  return out;
}

}  // namespace

Event EventStorage::append(Event event) {
  event.id = EventId{appended_ + 1};
  Writer w(128);
  event.encode(w);

  crypto::Sha256 hasher;
  hasher.update(ByteView(chain_));
  hasher.update(w.bytes());
  chain_ = hasher.finish();

  ++appended_;
  log_.push_back(w.bytes());
  if (retention_ > 0 && log_.size() > retention_) log_.pop_front();
  return event;
}

std::vector<Event> EventStorage::query_item(ItemId item) const {
  return decode_if(log_, [item](const Event& e) { return e.item == item; });
}

std::vector<Event> EventStorage::query_severity(Severity floor) const {
  return decode_if(log_,
                   [floor](const Event& e) { return e.severity >= floor; });
}

std::vector<Event> EventStorage::query_range(SimTime from, SimTime to) const {
  return decode_if(log_, [from, to](const Event& e) {
    return e.timestamp >= from && e.timestamp <= to;
  });
}

void EventStorage::encode_header(Writer& w) const {
  w.varint(appended_);
  w.raw(ByteView(chain_));
  w.varint(log_.size());
}

void EventStorage::encode(Writer& w) const {
  Pieces pieces;
  encode(pieces);
  pieces.write_to(w);
}

void EventStorage::encode(Pieces& out) const {
  encode_header(out.writer());
  for (ByteView block : log_.blocks()) out.view(block);
}

void EventStorage::decode(Reader& r) {
  appended_ = r.varint();
  for (auto& b : chain_) b = r.u8();
  std::uint64_t n = r.varint();
  log_.clear();
  for (std::uint64_t i = 0; i < n; ++i) {
    Writer w(128);
    Event::decode(r).encode(w);
    log_.push_back(w.bytes());
  }
}

}  // namespace ss::scada
