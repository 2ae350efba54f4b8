#include "scada/storage.h"

namespace ss::scada {

namespace {

std::string_view chars_of(ByteView bytes) {
  return {reinterpret_cast<const char*>(bytes.data()), bytes.size()};
}

ByteView bytes_in(const std::string& encoded) {
  return {reinterpret_cast<const std::uint8_t*>(encoded.data()),
          encoded.size()};
}

}  // namespace

Event EventStorage::append(Event event) {
  event.id = EventId{appended_ + 1};
  // The canonical encoding, which the chain hashes: id ‖ template ‖ tail.
  encoding_.clear();
  encoding_.id(event.id);
  const std::size_t head = encoding_.size();
  event.encode_template(encoding_);
  const std::size_t body = encoding_.size();
  event.encode_tail(encoding_);
  const std::size_t end = encoding_.size();

  crypto::Sha256 hasher;
  hasher.update(ByteView(chain_));
  hasher.update(encoding_.bytes());
  chain_ = hasher.finish();
  ++appended_;

  // The record goes after the encoding in the same buffer: tag, the
  // template itself only when the tag is 0, then the tail coded against
  // the newest record. tag_for() has copied a new key out of encoding_
  // before the buffer grows.
  const std::uint64_t tag =
      tag_for(chars_of(ByteView(encoding_.bytes()).subspan(head, body - head)));
  encoding_.varint(tag);
  if (tag == 0) event.encode_template(encoding_);
  encode_record(encoding_, last_, event.value, event.timestamp, &event.op.value,
                0);
  log_.push_back(ByteView(encoding_.bytes()).subspan(end));
  if (retention_ > 0 && log_.size() > retention_) {
    log_.pop_front([this](Reader& r) {
      Event evicted;
      read_record(r, base_, evicted, nullptr);
    });
  }
  return event;
}

std::uint64_t EventStorage::tag_for(std::string_view key) {
  if (auto it = index_.find(key); it != index_.end()) return it->second + 1;
  if (templates_.size() == kMaxTemplates) return 0;
  auto added = index_.emplace(std::string(key),
                              static_cast<std::uint32_t>(templates_.size()));
  templates_.push_back(&added.first->first);
  return templates_.size();
}

void EventStorage::read_record(Reader& r, Prior& prior, Event& event,
                               const std::vector<Event>* heads) {
  const std::uint64_t tag = r.varint();
  if (tag == 0) {
    event.decode_template(r);
  } else if (heads != nullptr) {
    event = (*heads)[tag - 1];
  }
  std::uint64_t op = 0;
  decode_record(r, prior, event.value, event.timestamp, &op, 0);
  event.op = OpId{op};
}

template <typename Keep>
std::vector<Event> EventStorage::select(Keep keep) const {
  std::vector<Event> heads(templates_.size());
  for (std::size_t k = 0; k < templates_.size(); ++k) {
    Reader r(bytes_in(*templates_[k]));
    heads[k].decode_template(r);
  }
  std::vector<Event> out;
  std::uint64_t id = appended_ - log_.size();
  Prior prior = base_;
  log_.for_each([&](Reader& r) {
    Event e;
    read_record(r, prior, e, &heads);
    e.id = EventId{++id};
    if (keep(e)) out.push_back(std::move(e));
  });
  return out;
}

std::vector<Event> EventStorage::query_item(ItemId item) const {
  return select([item](const Event& e) { return e.item == item; });
}

std::vector<Event> EventStorage::query_severity(Severity floor) const {
  return select([floor](const Event& e) { return e.severity >= floor; });
}

std::vector<Event> EventStorage::query_range(SimTime from, SimTime to) const {
  return select([from, to](const Event& e) {
    return e.timestamp >= from && e.timestamp <= to;
  });
}

void EventStorage::encode(Writer& w) const {
  Pieces pieces;
  encode(pieces);
  pieces.write_to(w);
}

void EventStorage::encode(Pieces& out) const {
  Writer& w = out.writer();
  w.varint(appended_);
  w.raw(ByteView(chain_));
  w.varint(log_.size());
  if (appended_ == 0) return;
  w.varint(templates_.size());
  for (const std::string* t : templates_) w.raw(bytes_in(*t));
  base_.encode(w, /*with_op=*/true);
  for (ByteView block : log_.blocks()) out.view(block);
}

void EventStorage::decode(Reader& r) {
  log_.clear();
  templates_.clear();
  index_.clear();
  base_ = last_ = Prior{};
  appended_ = r.varint();
  for (auto& b : chain_) b = r.u8();
  const std::uint64_t resident = r.varint();
  if (resident > appended_) {
    throw DecodeError("more resident events than appended");
  }
  if (appended_ == 0) return;

  Event e;
  const std::uint64_t n_templates = r.varint();
  if (n_templates > kMaxTemplates) throw DecodeError("too many templates");
  for (std::uint64_t k = 0; k < n_templates; ++k) {
    e.decode_template(r);
    encoding_.clear();
    e.encode_template(encoding_);
    // The table has room for every one of them, so anything but a new
    // entry at index k is a template seen before.
    if (tag_for(chars_of(encoding_.bytes())) != k + 1) {
      throw DecodeError("duplicate event template");
    }
  }
  base_.decode(r, /*with_op=*/true);
  // Each record is read against `read` and written again against last_:
  // both move onto the same fields, record by record.
  Prior read = base_;
  last_ = base_;
  for (std::uint64_t i = 0; i < resident; ++i) {
    const std::uint64_t tag = r.varint();
    if (tag > templates_.size()) throw DecodeError("event template unknown");
    encoding_.clear();
    encoding_.varint(tag);
    if (tag == 0) {
      if (templates_.size() < kMaxTemplates) {
        throw DecodeError("inline event template while the table has room");
      }
      e.decode_template(r);
      const std::size_t head = encoding_.size();
      e.encode_template(encoding_);
      if (index_.find(chars_of(ByteView(encoding_.bytes()).subspan(head))) !=
          index_.end()) {
        throw DecodeError("inline event template the table holds");
      }
    }
    std::uint64_t op = 0;
    decode_record(r, read, e.value, e.timestamp, &op, 0);
    encode_record(encoding_, last_, e.value, e.timestamp, &op, 0);
    log_.push_back(encoding_.bytes());
  }
}

}  // namespace ss::scada
