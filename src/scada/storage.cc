#include "scada/storage.h"

#include <algorithm>

namespace ss::scada {

namespace {

/// Decodes every event in `log` and keeps those `keep` accepts.
template <typename Keep>
std::vector<Event> decode_if(const std::vector<ByteView>& log, Keep keep) {
  std::vector<Event> out;
  for (ByteView block : log) {
    Reader r(block);
    while (!r.done()) {
      Event e = Event::decode(r);
      if (keep(e)) out.push_back(std::move(e));
    }
  }
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
  place(w.bytes());
  if (retention_ > 0 && ends_.size() > retention_) evict_oldest();
  return event;
}

void EventStorage::place(ByteView encoded) {
  if (blocks_.empty() ||
      blocks_.back().size() + encoded.size() > kBlockBytes) {
    // The first block grows on demand so a small storage stays small; once
    // a second one is needed the log is large, and blocks are sized whole.
    bool first = blocks_.empty();
    blocks_.emplace_back();
    if (!first) blocks_.back().reserve(std::max(kBlockBytes, encoded.size()));
  }
  Bytes& tail = blocks_.back();
  tail.insert(tail.end(), encoded.begin(), encoded.end());
  ends_.push_back(static_cast<std::uint32_t>(tail.size()));
  log_bytes_ += encoded.size();
}

void EventStorage::evict_oldest() {
  std::size_t end = ends_.front();
  ends_.pop_front();
  log_bytes_ -= end - head_;
  head_ = end;
  Bytes& front = blocks_.front();
  if (head_ == front.size()) {
    blocks_.pop_front();
    head_ = 0;
  } else if (blocks_.size() == 1 && head_ * 2 > front.size()) {
    // The only block is still being appended to, so it is never freed
    // whole: drop its evicted head once that is the larger half.
    front.erase(front.begin(),
                front.begin() + static_cast<std::ptrdiff_t>(head_));
    for (std::uint32_t& e : ends_) e -= static_cast<std::uint32_t>(head_);
    head_ = 0;
  }
}

std::vector<Event> EventStorage::query_item(ItemId item) const {
  return decode_if(log(), [item](const Event& e) { return e.item == item; });
}

std::vector<Event> EventStorage::query_severity(Severity floor) const {
  return decode_if(log(),
                   [floor](const Event& e) { return e.severity >= floor; });
}

std::vector<Event> EventStorage::query_range(SimTime from, SimTime to) const {
  return decode_if(log(), [from, to](const Event& e) {
    return e.timestamp >= from && e.timestamp <= to;
  });
}

std::vector<ByteView> EventStorage::log() const {
  std::vector<ByteView> views(blocks_.begin(), blocks_.end());
  if (!views.empty()) views.front() = views.front().subspan(head_);
  return views;
}

void EventStorage::encode_header(Writer& w) const {
  w.varint(appended_);
  w.raw(ByteView(chain_));
  w.varint(ends_.size());
}

void EventStorage::encode(Writer& w) const {
  encode_header(w);
  for (ByteView block : log()) w.raw(block);
}

void EventStorage::decode(Reader& r) {
  appended_ = r.varint();
  for (auto& b : chain_) b = r.u8();
  std::uint64_t n = r.varint();
  blocks_.clear();
  ends_.clear();
  head_ = 0;
  log_bytes_ = 0;
  for (std::uint64_t i = 0; i < n; ++i) {
    Writer w(128);
    Event::decode(r).encode(w);
    place(w.bytes());
  }
}

}  // namespace ss::scada
