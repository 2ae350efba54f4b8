// Unit tests for the SCADA substrate: variant, items, messages, storage,
// handlers, master routing, frontend, HMI.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <deque>
#include <limits>
#include <optional>
#include <random>

#include "scada/frontend.h"
#include "scada/handlers.h"
#include "scada/hmi.h"
#include "scada/master.h"
#include "scada/messages.h"
#include "scada/storage.h"
#include "heap_usage.h"
#include "record_reference.h"

namespace ss::scada {
namespace {

// ---------------------------------------------------------------------------
// Variant

TEST(Variant, TypesAndAccessors) {
  EXPECT_TRUE(Variant{}.is_null());
  EXPECT_TRUE(Variant{true}.as_bool());
  EXPECT_EQ(Variant{std::int64_t{42}}.as_int(), 42);
  EXPECT_DOUBLE_EQ(Variant{2.5}.as_double(), 2.5);
  EXPECT_EQ(Variant{std::string("on")}.as_string(), "on");
  EXPECT_TRUE(Variant{std::int64_t{1}}.is_numeric());
  EXPECT_TRUE(Variant{1.0}.is_numeric());
  EXPECT_FALSE(Variant{true}.is_numeric());
}

TEST(Variant, NumericCoercion) {
  EXPECT_EQ(Variant{2.6}.as_int(), 3);  // rounds
  EXPECT_DOUBLE_EQ(Variant{std::int64_t{7}}.as_double(), 7.0);
  EXPECT_THROW(Variant{std::string("x")}.as_int(), std::runtime_error);
  EXPECT_DOUBLE_EQ(Variant{}.to_double_or_zero(), 0.0);
  EXPECT_DOUBLE_EQ(Variant{true}.to_double_or_zero(), 1.0);
}

class VariantRoundTrip : public ::testing::TestWithParam<Variant> {};

TEST_P(VariantRoundTrip, EncodesDeterministically) {
  Writer w1, w2;
  GetParam().encode(w1);
  GetParam().encode(w2);
  EXPECT_EQ(w1.bytes(), w2.bytes());
  Reader r(w1.bytes());
  Variant decoded = Variant::decode(r);
  EXPECT_EQ(decoded, GetParam());
  EXPECT_TRUE(r.done());
}

INSTANTIATE_TEST_SUITE_P(
    Values, VariantRoundTrip,
    ::testing::Values(Variant{}, Variant{true}, Variant{false},
                      Variant{std::int64_t{-123456}}, Variant{3.14159},
                      Variant{std::string("") }, Variant{std::string("abc")}));

// ---------------------------------------------------------------------------
// Items and registry

TEST(ItemRegistry, StableDenseIds) {
  ItemRegistry registry;
  ItemId a = registry.register_item("grid/voltage");
  ItemId b = registry.register_item("grid/current");
  EXPECT_EQ(a, ItemId{1});
  EXPECT_EQ(b, ItemId{2});
  EXPECT_EQ(registry.register_item("grid/voltage"), a);  // idempotent
  EXPECT_EQ(*registry.lookup("grid/current"), b);
  EXPECT_FALSE(registry.lookup("missing").has_value());
  EXPECT_EQ(*registry.name_of(a), "grid/voltage");
  EXPECT_EQ(registry.name_of(ItemId{99}), nullptr);
  EXPECT_EQ(registry.size(), 2u);
}

TEST(Item, EncodeDecodeRoundTrip) {
  Item item;
  item.id = ItemId{7};
  item.name = "pump/1/speed";
  item.value = Variant{55.5};
  item.quality = Quality::kGood;
  item.timestamp = millis(123);
  Writer w;
  item.encode(w);
  Reader r(w.bytes());
  Item decoded = Item::decode(r);
  EXPECT_EQ(decoded.id, item.id);
  EXPECT_EQ(decoded.name, item.name);
  EXPECT_EQ(decoded.value, item.value);
  EXPECT_EQ(decoded.quality, item.quality);
  EXPECT_EQ(decoded.timestamp, item.timestamp);
}

// ---------------------------------------------------------------------------
// Messages

TEST(Messages, RoundTripAllKinds) {
  MsgContext ctx;
  ctx.op = OpId{77};
  ctx.cid = ConsensusId{5};
  ctx.order = 2;
  ctx.timestamp = millis(99);

  ItemUpdate update;
  update.ctx = ctx;
  update.item = ItemId{3};
  update.value = Variant{1.25};
  update.quality = Quality::kGood;
  update.source_time = millis(98);

  WriteValue write;
  write.ctx = ctx;
  write.item = ItemId{4};
  write.value = Variant{std::int64_t{10}};

  WriteResult result;
  result.ctx = ctx;
  result.item = ItemId{4};
  result.status = WriteStatus::kDenied;
  result.reason = "blocked";

  Event event;
  event.id = EventId{9};
  event.item = ItemId{3};
  event.severity = Severity::kAlarm;
  event.code = "MONITOR_TRIGGER";
  event.message = "limit";
  event.value = Variant{2.0};
  event.timestamp = millis(99);
  event.op = OpId{77};
  EventUpdate event_update;
  event_update.ctx = ctx;
  event_update.event = event;

  Subscribe subscribe{Channel::kAe, ItemId{3}, "hmi"};
  Unsubscribe unsubscribe{Channel::kDa, ItemId{0}, "hmi"};

  for (const ScadaMessage& msg :
       {ScadaMessage{update}, ScadaMessage{write}, ScadaMessage{result},
        ScadaMessage{event_update}, ScadaMessage{subscribe},
        ScadaMessage{unsubscribe}}) {
    Bytes encoded = encode_message(msg);
    ScadaMessage decoded = decode_message(encoded);
    EXPECT_EQ(kind_of(decoded), kind_of(msg));
    EXPECT_EQ(encode_message(decoded), encoded);  // deterministic re-encode
  }
}

TEST(Messages, ContextOfDataMessages) {
  WriteValue write;
  write.ctx.op = OpId{123};
  write.ctx.timestamp = millis(5);
  EXPECT_EQ(context_of(ScadaMessage{write}).op, OpId{123});
  Subscribe subscribe;
  EXPECT_EQ(context_of(ScadaMessage{subscribe}).op, OpId{0});
}

TEST(Messages, MalformedRejected) {
  EXPECT_THROW(decode_message(Bytes{}), DecodeError);
  EXPECT_THROW(decode_message(Bytes{0xff, 0x01}), DecodeError);
  Bytes valid = encode_message(ScadaMessage{Subscribe{}});
  Bytes trailing = valid;
  trailing.push_back(0);
  EXPECT_THROW(decode_message(trailing), DecodeError);
}

// ---------------------------------------------------------------------------
// Storage

TEST(Storage, AppendAssignsSequentialIds) {
  EventStorage storage;
  Event e;
  e.item = ItemId{1};
  EXPECT_EQ(storage.append(e).id, EventId{1});
  EXPECT_EQ(storage.append(e).id, EventId{2});
  EXPECT_EQ(storage.size(), 2u);
}

TEST(Storage, ChainDigestDependsOnHistory) {
  EventStorage a, b;
  Event e1;
  e1.item = ItemId{1};
  e1.code = "A";
  Event e2;
  e2.item = ItemId{1};
  e2.code = "B";
  a.append(e1);
  a.append(e2);
  b.append(e2);
  b.append(e1);
  EXPECT_NE(a.chain_digest(), b.chain_digest());  // order matters

  EventStorage c;
  c.append(e1);
  c.append(e2);
  EXPECT_EQ(a.chain_digest(), c.chain_digest());  // same history, same digest
}

TEST(Storage, Queries) {
  EventStorage storage;
  for (int i = 0; i < 10; ++i) {
    Event e;
    e.item = ItemId{static_cast<std::uint32_t>(1 + i % 2)};
    e.severity = i < 5 ? Severity::kInfo : Severity::kAlarm;
    e.timestamp = millis(i);
    storage.append(e);
  }
  EXPECT_EQ(storage.query_item(ItemId{1}).size(), 5u);
  EXPECT_EQ(storage.query_severity(Severity::kAlarm).size(), 5u);
  EXPECT_EQ(storage.query_range(millis(2), millis(4)).size(), 3u);
}

TEST(Storage, RetentionEvictsButDigestPersists) {
  EventStorage storage(4);
  Event e;
  e.item = ItemId{1};
  for (int i = 0; i < 10; ++i) storage.append(e);
  EXPECT_EQ(storage.size(), 10u);
  EXPECT_EQ(storage.resident(), 4u);
}

TEST(Storage, EncodeDecodeRoundTrip) {
  EventStorage storage;
  Event e;
  e.item = ItemId{1};
  e.code = "X";
  storage.append(e);
  storage.append(e);
  Writer w;
  storage.encode(w);
  EventStorage restored;
  Reader r(w.bytes());
  restored.decode(r);
  EXPECT_EQ(restored.size(), storage.size());
  EXPECT_EQ(restored.chain_digest(), storage.chain_digest());
  // Appending after restore continues the chain identically.
  storage.append(e);
  restored.append(e);
  EXPECT_EQ(restored.chain_digest(), storage.chain_digest());
}

/// Events whose templates repeat: (item, severity, code) cycles through 60
/// combinations. The value is a string of varied length, and every 50th is
/// larger than a log block, so a run crosses ordinary and oversized block
/// boundaries.
Event sized_event(int i) {
  Event e;
  e.item = ItemId{static_cast<std::uint32_t>(1 + i % 3)};
  e.severity = static_cast<Severity>(i % 4);
  e.code = "C" + std::to_string(i % 5);
  e.message = "event on item " + std::to_string(1 + i % 3);
  e.value = Variant{std::string(
      i % 50 == 49 ? 70000 : 40 + static_cast<std::size_t>(i * 379) % 3000,
      'v')};
  e.timestamp = millis(i);
  e.op = OpId{static_cast<std::uint64_t>(i + 1)};
  return e;
}

/// An event whose template no other `distinct_event` has: once more of them
/// than EventStorage::kMaxTemplates were appended, records carry their
/// template inline.
Event distinct_event(int i) {
  Event e;
  e.item = ItemId{1};
  e.severity = Severity::kWarning;
  e.code = "WRITE_DENIED";
  e.message = "write blocked on item 1: reason " + std::to_string(i);
  e.value = Variant{static_cast<double>(i)};
  e.timestamp = millis(i);
  e.op = OpId{static_cast<std::uint64_t>(i + 1)};
  return e;
}

/// The event log's snapshot section, written from the appended history
/// alone (record_reference.h's coder, not the production one): the header
/// (appended count, chain digest, resident count); once anything was
/// appended, the templates in order of first use (at most kMaxTemplates),
/// the base (the fields of the last evicted event), and then each resident
/// event as its template's 1-based index, or 0 and the template inline once
/// the table was full, followed by its value, timestamp and op coded
/// against the event before it.
class ReferenceLog {
 public:
  explicit ReferenceLog(std::size_t retention) : retention_(retention) {}

  void append(Event e) {
    e.id = EventId{++appended_};
    Writer encoded;
    e.encode(encoded);
    crypto::Sha256 hasher;
    hasher.update(ByteView(chain_));
    hasher.update(encoded.bytes());
    chain_ = hasher.finish();
    Bytes t = template_of(e);
    if (std::find(table_.begin(), table_.end(), t) == table_.end() &&
        table_.size() < EventStorage::kMaxTemplates) {
      table_.push_back(std::move(t));
    }
    resident_.push_back(std::move(e));
    if (retention_ > 0 && resident_.size() > retention_) {
      const Event& evicted = resident_.front();
      base_ = reference::before_of(evicted.value, evicted.timestamp,
                                   evicted.op.value);
      resident_.pop_front();
    }
  }

  Bytes encode() const {
    Writer w;
    w.varint(appended_);
    w.raw(ByteView(chain_));
    w.varint(resident_.size());
    if (appended_ == 0) return std::move(w).take();
    w.varint(table_.size());
    for (const Bytes& t : table_) w.raw(t);
    reference::write_base(w, base_, /*with_op=*/true);
    reference::Before before = base_;
    for (const Event& e : resident_) {
      const Bytes t = template_of(e);
      auto it = std::find(table_.begin(), table_.end(), t);
      if (it != table_.end()) {
        w.varint(static_cast<std::uint64_t>(it - table_.begin()) + 1);
      } else {
        w.varint(0);
        w.raw(t);
      }
      reference::write_fields(w, before, e.value, e.timestamp, &e.op.value, 0);
    }
    return std::move(w).take();
  }

  const crypto::Digest& chain_digest() const { return chain_; }
  std::size_t templates() const { return table_.size(); }
  std::vector<Event> resident() const {
    return {resident_.begin(), resident_.end()};
  }

 private:
  static Bytes template_of(const Event& e) {
    Writer w;
    w.id(e.item);
    w.enumeration(e.severity);
    w.str(e.code);
    w.str(e.message);
    return std::move(w).take();
  }

  std::size_t retention_;
  std::uint64_t appended_ = 0;
  crypto::Digest chain_{};
  std::vector<Bytes> table_;
  std::deque<Event> resident_;
  reference::Before base_;
};

Bytes encoded(const EventStorage& storage) {
  Writer w;
  storage.encode(w);
  return std::move(w).take();
}

class StorageLog : public ::testing::TestWithParam<std::size_t> {};

TEST_P(StorageLog, EncodingMatchesPerEventReference) {
  const std::size_t retention = GetParam();
  EventStorage storage(retention);
  ReferenceLog reference(retention);
  ASSERT_EQ(encoded(storage), reference.encode());  // the header alone
  auto check = [&](const Event& e, int i) {
    Event stored = storage.append(e);
    reference.append(e);
    EXPECT_EQ(stored, reference.resident().back()) << "event " << i;
    ASSERT_EQ(storage.chain_digest(), reference.chain_digest()) << i;
    ASSERT_EQ(storage.resident(), reference.resident().size()) << i;
    ASSERT_EQ(storage.templates(), reference.templates()) << i;
  };
  // Repeating templates, every append checked.
  for (int i = 0; i < 200; ++i) {
    check(sized_event(i), i);
    ASSERT_EQ(encoded(storage), reference.encode()) << "after event " << i;
  }
  // Past the table's size: the last distinct templates go inline, and the
  // repeating ones keep their tags.
  for (int i = 0; i < 1100; ++i) {
    check(i % 10 == 9 ? sized_event(200 + i) : distinct_event(i), 200 + i);
    if (i % 100 == 99) {
      ASSERT_EQ(encoded(storage), reference.encode()) << i;
    }
  }
  EXPECT_EQ(storage.templates(), EventStorage::kMaxTemplates);
  ASSERT_EQ(encoded(storage), reference.encode());

  const std::vector<Event> all = reference.resident();
  EXPECT_EQ(storage.query_range(0, millis(100000)), all);
  std::vector<Event> item2;
  for (const Event& e : all) {
    if (e.item == ItemId{2}) item2.push_back(e);
  }
  EXPECT_EQ(storage.query_item(ItemId{2}), item2);
}

TEST_P(StorageLog, DecodeRestoresTheSameLog) {
  EventStorage storage(GetParam());
  for (int i = 0; i < 120; ++i) storage.append(sized_event(i));
  for (int i = 0; i < 1030; ++i) storage.append(distinct_event(i));
  for (int i = 120; i < 125; ++i) storage.append(sized_event(i));
  const Bytes w = encoded(storage);

  EventStorage restored(GetParam());
  Reader r(w);
  restored.decode(r);
  EXPECT_TRUE(r.done());
  EXPECT_EQ(encoded(restored), w);
  EXPECT_EQ(restored.log_bytes(), storage.log_bytes());
  EXPECT_EQ(restored.templates(), storage.templates());
  EXPECT_EQ(restored.query_severity(Severity::kAlarm),
            storage.query_severity(Severity::kAlarm));
  EXPECT_EQ(restored.query_range(0, millis(100000)),
            storage.query_range(0, millis(100000)));

  // Both keep evicting, chaining and choosing tags identically after the
  // restore.
  for (int i = 125; i < 200; ++i) {
    storage.append(i % 2 ? sized_event(i) : distinct_event(2000 + i));
    restored.append(i % 2 ? sized_event(i) : distinct_event(2000 + i));
  }
  EXPECT_EQ(encoded(restored), encoded(storage));
  EXPECT_EQ(restored.chain_digest(), storage.chain_digest());
}

INSTANTIATE_TEST_SUITE_P(Retention, StorageLog, ::testing::Values(0u, 4u));

/// The events' own encodings: Event equality would call a NaN value
/// different from itself.
Bytes encodings(const std::vector<Event>& events) {
  Writer w;
  for (const Event& e : events) e.encode(w);
  return std::move(w).take();
}

/// What the coder is fed at its edges: a value of any kind or extreme, a
/// timestamp that steps back or jumps to SimTime's limits, and an op that is
/// mostly the Frontend's form but may wrap around 2^64 or be any 64 bits.
struct RandomEvents {
  explicit RandomEvents(std::uint64_t seed) : rng(seed) {}

  Event next() {
    Event e;
    const std::uint64_t which = rng() % 6;
    e.item = ItemId{static_cast<std::uint32_t>(1 + which % 3)};
    e.severity = static_cast<Severity>(which % 4);
    e.code = "C" + std::to_string(which);
    e.value = reference::random_value(rng);
    switch (rng() % 12) {
      case 0:
        e.timestamp = std::numeric_limits<SimTime>::min();
        break;
      case 1:
        e.timestamp = std::numeric_limits<SimTime>::max();
        break;
      case 2:
        now -= static_cast<SimTime>(rng() % 5000000);
        e.timestamp = now;
        break;
      default:
        now += rng() % 3 == 0 ? static_cast<SimTime>(rng() % 2000000) : 0;
        e.timestamp = now;
    }
    switch (rng() % 10) {
      case 0:
        op = ~std::uint64_t{0} - rng() % 3;  // about to wrap
        break;
      case 1:
        op = rng();
        break;
      default:
        ++op;
    }
    e.op = OpId{op};
    return e;
  }

  std::mt19937_64 rng;
  SimTime now = seconds(5);
  std::uint64_t op = std::uint64_t{0x1a} << 40;
};

/// An event record's size in the plain form the log had before records
/// were coded: tag, value, an 8-byte timestamp, the op's varint.
std::size_t plain_record_size(const Event& e) {
  Writer w;
  w.varint(1);  // RandomEvents' six templates all take one-byte tags
  e.value.encode(w);
  w.i64(e.timestamp);
  w.id(e.op);
  return w.size();
}

class StorageProperty : public ::testing::TestWithParam<std::size_t> {};

TEST_P(StorageProperty, RandomRecordsMatchTheReferenceAndRoundTrip) {
  const std::size_t retention = GetParam();
  EventStorage storage(retention);
  ReferenceLog reference(retention);
  EventStorage unlimited;  // measures each record's size
  // Decoded from the section halfway through, then fed the same events:
  // it must go on evicting and coding exactly as the original does.
  std::optional<EventStorage> restored;
  RandomEvents events(retention + 17);
  for (int i = 0; i < 3000; ++i) {
    const Event e = events.next();
    const std::size_t bytes_before = unlimited.log_bytes();
    unlimited.append(e);
    ASSERT_LE(unlimited.log_bytes() - bytes_before, plain_record_size(e) + 1)
        << "event " << i;
    storage.append(e);
    reference.append(e);
    if (restored) restored->append(e);
    if (i % 97 != 0) continue;
    const Bytes section = encoded(storage);
    ASSERT_EQ(section, reference.encode()) << "after event " << i;
    constexpr SimTime kMin = std::numeric_limits<SimTime>::min();
    constexpr SimTime kMax = std::numeric_limits<SimTime>::max();
    const std::vector<Event> all = storage.query_range(kMin, kMax);
    ASSERT_EQ(encodings(all), encodings(reference.resident()));
    EventStorage decoded(retention);
    Reader r(section);
    decoded.decode(r);
    ASSERT_TRUE(r.done());
    ASSERT_EQ(encoded(decoded), section);
    if (restored) {
      ASSERT_EQ(encoded(*restored), section) << "after event " << i;
    } else if (i >= 1500) {
      restored.emplace(std::move(decoded));
    }
  }
  ASSERT_TRUE(restored.has_value());
}

INSTANTIATE_TEST_SUITE_P(Retention, StorageProperty,
                         ::testing::Values(0u, 1u, 4u));

TEST(Storage, DecodeRejectsTruncatedEvent) {
  EventStorage storage;
  storage.append(sized_event(1));
  storage.append(sized_event(2));
  Bytes truncated = encoded(storage);
  truncated.pop_back();
  EventStorage restored;
  Reader r(truncated);
  EXPECT_THROW(restored.decode(r), DecodeError);
}

/// The base of a log that never evicted: every field zero.
Bytes zero_base(bool with_op = true) {
  Writer w;
  reference::write_base(w, reference::Before{}, with_op);
  return std::move(w).take();
}

/// An event section built by hand: the header, then (unless `appended` is
/// 0) `templates`, the base and `records`, each already encoded.
Bytes event_section(std::uint64_t appended, std::uint64_t resident,
                    const std::vector<Bytes>& templates,
                    const std::vector<Bytes>& records,
                    const Bytes& base = zero_base()) {
  Writer w;
  w.varint(appended);
  w.raw(ByteView(crypto::Digest{}));
  w.varint(resident);
  if (appended > 0) {
    w.varint(templates.size());
    for (const Bytes& t : templates) w.raw(t);
    w.raw(base);
    for (const Bytes& r : records) w.raw(r);
  }
  return std::move(w).take();
}

Bytes template_bytes(int i) {
  Writer w;
  distinct_event(i).encode_template(w);
  return std::move(w).take();
}

/// distinct_event(0)'s record, coded against a zero base.
Bytes record_bytes(std::uint64_t tag, const Bytes& inline_template = {}) {
  Writer w;
  w.varint(tag);
  w.raw(inline_template);
  const Event e = distinct_event(0);
  reference::Before before;
  reference::write_fields(w, before, e.value, e.timestamp, &e.op.value, 0);
  return std::move(w).take();
}

void decode_section(const Bytes& bytes) {
  EventStorage storage;
  Reader r(bytes);
  storage.decode(r);
  r.expect_done();
}

TEST(Storage, DecodeRejectsMalformedSections) {
  std::vector<Bytes> full;
  for (int i = 0; i < static_cast<int>(EventStorage::kMaxTemplates); ++i) {
    full.push_back(template_bytes(i));
  }
  // Well-formed: a tagged record, and an inline one past a full table.
  EXPECT_NO_THROW(decode_section(
      event_section(3, 1, {template_bytes(0)}, {record_bytes(1)})));
  EXPECT_NO_THROW(decode_section(event_section(
      3, 2, full, {record_bytes(1), record_bytes(0, template_bytes(-1))})));

  // More resident events than appended.
  EXPECT_THROW(
      decode_section(event_section(1, 2, {template_bytes(0)},
                                   {record_bytes(1), record_bytes(1)})),
      DecodeError);
  // More templates than the table holds, or one twice.
  std::vector<Bytes> over = full;
  over.push_back(template_bytes(-1));
  EXPECT_THROW(decode_section(event_section(1, 1, over, {record_bytes(1)})),
               DecodeError);
  EXPECT_THROW(decode_section(event_section(
                   1, 1, {template_bytes(0), template_bytes(0)},
                   {record_bytes(1)})),
               DecodeError);
  // A tag past the table.
  EXPECT_THROW(decode_section(
                   event_section(1, 1, {template_bytes(0)}, {record_bytes(2)})),
               DecodeError);
  // An inline template while the table has room, or one it already holds.
  EXPECT_THROW(decode_section(event_section(
                   1, 1, {template_bytes(0)},
                   {record_bytes(0, template_bytes(1))})),
               DecodeError);
  EXPECT_THROW(decode_section(event_section(
                   1, 1, full, {record_bytes(0, template_bytes(7))})),
               DecodeError);
  // A record cut short, and a byte past the last record.
  Bytes cut = event_section(1, 1, {template_bytes(0)}, {record_bytes(1)});
  cut.pop_back();
  EXPECT_THROW(decode_section(cut), DecodeError);
  Bytes trailing = event_section(1, 1, {template_bytes(0)}, {record_bytes(1)});
  trailing.push_back(0);
  EXPECT_THROW(decode_section(trailing), DecodeError);
  // A log that never held an event is its header alone.
  EXPECT_THROW(decode_section(event_section(0, 1, {}, {})), DecodeError);
  Bytes empty = event_section(0, 0, {}, {});
  EXPECT_EQ(empty.size(), 1 + 32 + 1u);
  EXPECT_NO_THROW(decode_section(empty));
}

/// Flips every bit of `section` in turn and decodes the result into a fresh
/// T: each flip either throws DecodeError or leaves a T that re-encodes to
/// a fixpoint and passes `answers`. Returns how many flips decoded.
template <typename T, typename Answers>
int flip_every_bit(const Bytes& section, Answers answers) {
  auto encode = [](const T& t) {
    Writer w;
    t.encode(w);
    return std::move(w).take();
  };
  int decoded = 0;
  for (std::size_t at = 0; at < section.size(); ++at) {
    for (int bit = 0; bit < 8; ++bit) {
      Bytes bytes = section;
      bytes[at] ^= static_cast<std::uint8_t>(1u << bit);
      T restored;
      Reader r(bytes);
      try {
        restored.decode(r);
      } catch (const DecodeError&) {
        continue;
      }
      ++decoded;
      const Bytes again = encode(restored);
      T twice;
      Reader r2(again);
      twice.decode(r2);
      EXPECT_TRUE(r2.done()) << at << ":" << bit;
      EXPECT_EQ(encode(twice), again) << at << ":" << bit;
      answers(restored);
    }
  }
  return decoded;
}

Bytes double_bytes(double d) {
  Writer w;
  w.f64(d);
  return std::move(w).take();
}

/// An event record for template 1: the type byte, then the value, timestamp
/// and op bytes as given.
Bytes event_record(std::uint8_t type, const Bytes& value, const Bytes& time,
                   const Bytes& op) {
  Bytes r{0x01, type};
  for (const Bytes* part : {&value, &time, &op}) {
    r.insert(r.end(), part->begin(), part->end());
  }
  return r;
}

Bytes base_bytes(std::uint8_t kind, std::uint64_t bits, const Bytes& op) {
  Writer w;
  w.u8(kind);
  if (kind == 2 || kind == 3) w.u64(bits);
  w.i64(0);
  w.raw(op);
  return std::move(w).take();
}

/// A historian section built by hand: per item its id, sample count, base
/// and sample bytes.
struct SeriesBytes {
  std::uint32_t item;
  std::uint64_t samples;
  Bytes base;
  Bytes records;
};
Bytes historian_section(const std::vector<SeriesBytes>& series) {
  Writer w;
  w.varint(series.size());
  w.varint(series.size());
  for (const SeriesBytes& s : series) {
    w.varint(s.item);
    w.varint(s.samples);
    w.raw(s.base);
    w.raw(s.records);
  }
  return std::move(w).take();
}

void decode_historian(const Bytes& bytes) {
  Historian historian;
  Reader r(bytes);
  historian.decode(r);
  r.expect_done();
}

TEST(Storage, CorruptedSectionsThrowOrDecodeToACanonicalLog) {
  // A state transfer's snapshot comes from a peer that may be Byzantine:
  // every single-bit flip of a valid section either throws DecodeError or
  // leaves a log that re-encodes to a fixpoint and answers queries.
  EventStorage storage;
  for (int i = 0; i < 4; ++i) storage.append(distinct_event(i));
  for (int i = 0; i < 4; ++i) storage.append(distinct_event(i % 2));
  // An evicting log of mixed kinds: a numeric base and coded values.
  EventStorage evicting(3);
  const Variant values[] = {Variant{2.5}, Variant{std::int64_t{-7}},
                            Variant{std::int64_t{9}}, Variant{std::string("s")},
                            Variant{2.75}, Variant{3.0}};
  for (int i = 0; i < 6; ++i) {
    Event e = distinct_event(i % 2);
    e.value = values[i];
    e.op = OpId{(std::uint64_t{3} << 40) | static_cast<std::uint64_t>(i)};
    evicting.append(e);
  }
  for (const EventStorage* log : {&storage, &evicting}) {
    EXPECT_GT(flip_every_bit<EventStorage>(
                  encoded(*log),
                  [](const EventStorage& restored) {
                    EXPECT_EQ(restored.query_severity(Severity::kInfo).size(),
                              restored.resident());
                  }),
              0);
  }

  // The historian's section likewise, with evicted samples of every kind.
  Historian historian(3);
  const Variant samples[] = {
      Variant{},       Variant{true},          Variant{1.5},
      Variant{1.75},   Variant{std::int64_t{40}}, Variant{std::int64_t{41}},
      Variant{std::string("x")}, Variant{-0.0}};
  for (int i = 0; i < 8; ++i) {
    historian.record(ItemId{static_cast<std::uint32_t>(1 + i % 2)}, millis(i),
                     samples[i], static_cast<Quality>(i % 4));
  }
  Writer hw;
  historian.encode(hw);
  auto answers = [](const Historian& restored) {
    for (std::uint32_t id : {1u, 2u}) {
      EXPECT_LE(restored.tail(ItemId{id}, 9).size(), 9u);
    }
  };
  EXPECT_GT(flip_every_bit<Historian>(hw.bytes(), answers), 0);

  // The record form's own failure modes, one byte off a well-formed
  // section each.
  const std::vector<Bytes> one{template_bytes(0)};
  const Bytes one_0 = double_bytes(1.0);
  auto events = [&](const Bytes& record, const Bytes& base = zero_base()) {
    return event_section(1, 1, one, {record}, base);
  };
  EXPECT_NO_THROW(decode_section(events(event_record(0x33, one_0, {0}, {2}))));
  // A value kind past string, and bits 6-7 set on an event.
  EXPECT_THROW(decode_section(events(event_record(0x35, {}, {0}, {2}))),
               DecodeError);
  EXPECT_THROW(decode_section(events(event_record(0x73, one_0, {0}, {2}))),
               DecodeError);
  // A coded value whose predecessor is not of its kind.
  EXPECT_THROW(decode_section(events(event_record(0x3b, {0, 0}, {0}, {2}))),
               DecodeError);
  EXPECT_THROW(decode_section(events(event_record(0x3a, {0}, {0}, {2}),
                                     base_bytes(3, 0, {0}))),
               DecodeError);
  // A double's shift of 63 decodes, one past it does not.
  const std::uint64_t one_bits = std::bit_cast<std::uint64_t>(1.0);
  EXPECT_NO_THROW(decode_section(events(event_record(0x3b, {63, 1}, {0}, {2}),
                                        base_bytes(3, one_bits, {0}))));
  EXPECT_THROW(decode_section(events(event_record(0x3b, {64, 1}, {0}, {2}),
                                     base_bytes(3, one_bits, {0}))),
               DecodeError);
  // Overlong varints: a timestamp step, a tag, a base's op.
  EXPECT_THROW(
      decode_section(events(event_record(0x33, one_0, {0x80, 0}, {2}))),
      DecodeError);
  Bytes overlong_tag = event_record(0x33, one_0, {0}, {2});
  overlong_tag[0] = 0x81;
  overlong_tag.insert(overlong_tag.begin() + 1, 0x00);
  EXPECT_THROW(decode_section(events(overlong_tag)), DecodeError);
  EXPECT_THROW(decode_section(events(event_record(0x33, one_0, {0}, {2}),
                                     base_bytes(0, 0, {0x80, 0x00}))),
               DecodeError);
  // A varint of 2^64 - 1 decodes; one bit past 64 does not.
  const Bytes max64{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01};
  Bytes past64 = max64;
  past64.back() = 0x02;
  EXPECT_NO_THROW(
      decode_section(events(event_record(0x13, one_0, {0}, max64))));
  EXPECT_THROW(decode_section(events(event_record(0x13, one_0, {0}, past64))),
               DecodeError);
  // A base whose kind is neither null, int64 nor double, or cut short.
  EXPECT_THROW(decode_section(events(event_record(0x33, one_0, {0}, {2}),
                                     base_bytes(1, 0, {0}))),
               DecodeError);
  Bytes short_base = event_section(1, 0, one, {});
  short_base.pop_back();
  EXPECT_THROW(decode_section(short_base), DecodeError);

  // The historian's: items out of order or twice, an op flag on a sample,
  // a base with a string's kind, a shift past 63.
  const Bytes sample{0x13, 0, 0, 0, 0, 0, 0, 0xf0, 0x3f, 0x00};  // 1.0 at 0
  const Bytes zero = zero_base(/*with_op=*/false);
  EXPECT_NO_THROW(decode_historian(
      historian_section({{1, 1, zero, sample}, {2, 1, zero, sample}})));
  EXPECT_THROW(decode_historian(historian_section(
                   {{2, 1, zero, sample}, {1, 1, zero, sample}})),
               DecodeError);
  EXPECT_THROW(decode_historian(historian_section(
                   {{1, 1, zero, sample}, {1, 1, zero, sample}})),
               DecodeError);
  Bytes with_op = sample;
  with_op[0] |= 0x20;
  EXPECT_THROW(decode_historian(historian_section({{1, 1, zero, with_op}})),
               DecodeError);
  Bytes string_base = zero;
  string_base[0] = 4;
  EXPECT_THROW(
      decode_historian(historian_section({{1, 1, string_base, sample}})),
      DecodeError);
  Writer double_base;
  double_base.u8(3);
  double_base.u64(one_bits);
  double_base.i64(0);
  EXPECT_NO_THROW(decode_historian(
      historian_section({{1, 1, double_base.bytes(), {0x1b, 63, 1, 0}}})));
  EXPECT_THROW(decode_historian(historian_section(
                   {{1, 1, double_base.bytes(), {0x1b, 64, 1, 0}}})),
               DecodeError);
}

TEST(StorageFootprint, MonitorEventsStayCompact) {
  SS_REQUIRE_HEAP_USAGE();
  constexpr int kEvents = 20000;
  const std::size_t before = test::heap_in_use();
  {
    EventStorage storage;
    Event e;
    e.item = ItemId{1};
    e.severity = Severity::kAlarm;
    e.code = "MONITOR_TRIGGER";
    e.message = "monitor condition met on item plant/reactor/temperature";
    // As the replicated Master sees the alarm workload: the Frontend's op
    // ids (its instance in the top bits, a counter below), and one
    // agreement timestamp per batch of a few requests, about a millisecond
    // apart.
    const std::uint64_t instance = std::uint64_t{0x2f1} << 40;
    SimTime batch_time = seconds(3);
    for (int k = 0; k < kEvents; ++k) {
      if (k % 5 == 0) batch_time += millis(1) + (k * 7919) % 50000;
      e.value = Variant{1e9 + k};
      e.timestamp = batch_time;
      e.op = OpId{instance | static_cast<std::uint64_t>(k + 1)};
      storage.append(e);
    }
    const std::size_t used = test::heap_in_use() - before;
    EXPECT_LE(used, 12u * kEvents) << used / kEvents << " bytes per event";
  }
}

// ---------------------------------------------------------------------------
// Handlers

HandlerContext test_ctx() {
  return HandlerContext{ItemId{1}, "item", millis(10), OpId{5}};
}

TEST(Handlers, ScaleTransformsValue) {
  ScaleHandler handler(2.0, 1.0);
  Variant value{std::int64_t{10}};
  std::vector<Event> events;
  EXPECT_EQ(handler.on_update(test_ctx(), value, events),
            UpdateAction::kContinue);
  EXPECT_DOUBLE_EQ(value.as_double(), 21.0);
  EXPECT_TRUE(events.empty());
  // Non-numeric values pass through untouched.
  Variant text{std::string("n/a")};
  handler.on_update(test_ctx(), text, events);
  EXPECT_EQ(text.as_string(), "n/a");
}

TEST(Handlers, OverrideReplacesWhileActive) {
  OverrideHandler handler(Variant{99.0});
  Variant value{1.0};
  std::vector<Event> events;
  handler.on_update(test_ctx(), value, events);
  EXPECT_DOUBLE_EQ(value.as_double(), 1.0);  // inactive: untouched

  handler.set_active(true);
  handler.on_update(test_ctx(), value, events);
  EXPECT_DOUBLE_EQ(value.as_double(), 99.0);
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].code, "OVERRIDE_APPLIED");
}

TEST(Handlers, MonitorFiresOnCondition) {
  MonitorHandler handler(MonitorHandler::Condition::kAbove, 50.0);
  std::vector<Event> events;
  Variant low{40.0};
  handler.on_update(test_ctx(), low, events);
  EXPECT_TRUE(events.empty());
  Variant high{60.0};
  handler.on_update(test_ctx(), high, events);
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].code, "MONITOR_TRIGGER");
  EXPECT_EQ(events[0].severity, Severity::kAlarm);
  EXPECT_EQ(events[0].timestamp, millis(10));
  // Level-triggered: fires on every matching update.
  handler.on_update(test_ctx(), high, events);
  EXPECT_EQ(events.size(), 2u);
  EXPECT_EQ(handler.triggers(), 2u);
}

TEST(Handlers, MonitorEdgeTriggeredFiresOnTransitions) {
  MonitorHandler handler(MonitorHandler::Condition::kAbove, 50.0,
                         Severity::kAlarm, /*edge_triggered=*/true);
  std::vector<Event> events;
  Variant high{60.0};
  Variant low{40.0};
  handler.on_update(test_ctx(), high, events);
  handler.on_update(test_ctx(), high, events);  // still active: no new event
  EXPECT_EQ(events.size(), 1u);
  handler.on_update(test_ctx(), low, events);
  handler.on_update(test_ctx(), high, events);  // re-trigger
  EXPECT_EQ(events.size(), 2u);
}

TEST(Handlers, MonitorBelowAndEquals) {
  MonitorHandler below(MonitorHandler::Condition::kBelow, 10.0);
  MonitorHandler equals(MonitorHandler::Condition::kEquals, 5.0);
  std::vector<Event> events;
  Variant v{5.0};
  below.on_update(test_ctx(), v, events);
  EXPECT_EQ(events.size(), 1u);
  equals.on_update(test_ctx(), v, events);
  EXPECT_EQ(events.size(), 2u);
}

TEST(Handlers, BlockDeniesWithReasonAndEvent) {
  BlockHandler handler;
  handler.block("maintenance window");
  std::vector<Event> events;
  std::string reason;
  EXPECT_FALSE(handler.on_write(test_ctx(), Variant{1.0}, events, reason));
  EXPECT_NE(reason.find("maintenance window"), std::string::npos);
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].code, "WRITE_DENIED");

  handler.unblock();
  reason.clear();
  EXPECT_TRUE(handler.on_write(test_ctx(), Variant{1.0}, events, reason));
  EXPECT_TRUE(reason.empty());
}

TEST(Handlers, BlockEnforcesRange) {
  BlockHandler handler(0.0, 100.0);
  std::vector<Event> events;
  std::string reason;
  EXPECT_TRUE(handler.on_write(test_ctx(), Variant{50.0}, events, reason));
  EXPECT_FALSE(handler.on_write(test_ctx(), Variant{150.0}, events, reason));
  EXPECT_FALSE(handler.on_write(test_ctx(), Variant{-1.0}, events, reason));
}

TEST(Handlers, DeadbandSuppressesSmallChanges) {
  DeadbandHandler handler(1.0);
  std::vector<Event> events;
  Variant first{10.0};
  EXPECT_EQ(handler.on_update(test_ctx(), first, events),
            UpdateAction::kContinue);
  Variant close{10.5};
  EXPECT_EQ(handler.on_update(test_ctx(), close, events),
            UpdateAction::kSuppress);
  Variant far{11.5};
  EXPECT_EQ(handler.on_update(test_ctx(), far, events),
            UpdateAction::kContinue);
}

TEST(Handlers, ClampClipsAndWarns) {
  ClampHandler handler(0.0, 10.0);
  std::vector<Event> events;
  Variant high{15.0};
  handler.on_update(test_ctx(), high, events);
  EXPECT_DOUBLE_EQ(high.as_double(), 10.0);
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].code, "VALUE_CLAMPED");
  Variant ok{5.0};
  handler.on_update(test_ctx(), ok, events);
  EXPECT_EQ(events.size(), 1u);
}

TEST(Handlers, ChainRunsInOrderAndStateRoundTrips) {
  HandlerChain chain;
  chain.emplace<ScaleHandler>(2.0, 0.0);
  auto* monitor = chain.emplace<MonitorHandler>(
      MonitorHandler::Condition::kAbove, 15.0);
  std::vector<Event> events;
  Variant value{10.0};  // scaled to 20 -> monitor fires
  EXPECT_EQ(chain.run_update(test_ctx(), value, events),
            UpdateAction::kContinue);
  EXPECT_DOUBLE_EQ(value.as_double(), 20.0);
  EXPECT_EQ(events.size(), 1u);
  EXPECT_EQ(monitor->triggers(), 1u);

  // State snapshot/restore across an identically configured chain.
  Writer w;
  chain.encode_state(w);
  HandlerChain other;
  other.emplace<ScaleHandler>(2.0, 0.0);
  other.emplace<MonitorHandler>(MonitorHandler::Condition::kAbove, 15.0);
  Reader r(w.bytes());
  other.decode_state(r);
  Writer w2;
  other.encode_state(w2);
  EXPECT_EQ(w.bytes(), w2.bytes());
}

TEST(Handlers, ChainStateMismatchThrows) {
  HandlerChain chain;
  chain.emplace<ScaleHandler>(1.0, 0.0);
  Writer w;
  chain.encode_state(w);
  HandlerChain other;  // no handlers
  Reader r(w.bytes());
  EXPECT_THROW(other.decode_state(r), DecodeError);
}

// ---------------------------------------------------------------------------
// Master

struct MasterHarness {
  ScadaMaster master;
  std::vector<std::pair<std::string, ScadaMessage>> hmi_out;
  std::vector<ScadaMessage> frontend_out;
  ItemId item;

  explicit MasterHarness(std::size_t retention = 0)
      : master(make_options(retention)) {
    master.set_da_sink([this](const std::string& sub, const ScadaMessage& m) {
      hmi_out.emplace_back(sub, m);
    });
    master.set_ae_sink([this](const std::string& sub, const ScadaMessage& m) {
      hmi_out.emplace_back(sub, m);
    });
    master.set_frontend_sink(
        [this](const std::string&, const ScadaMessage& m) {
          frontend_out.push_back(m);
        });
    item = master.add_item("tank/level");
    master.handle(ScadaMessage{Subscribe{Channel::kDa, ItemId{0}, "hmi"}},
                  MsgContext{}, "hmi");
    master.handle(ScadaMessage{Subscribe{Channel::kAe, ItemId{0}, "hmi"}},
                  MsgContext{}, "hmi");
  }

  static MasterOptions make_options(std::size_t retention) {
    MasterOptions options;
    options.deterministic = true;
    options.storage_retention = retention;
    return options;
  }

  MsgContext ctx(std::uint64_t op, SimTime ts) {
    MsgContext c;
    c.op = OpId{op};
    c.cid = ConsensusId{op};
    c.timestamp = ts;
    return c;
  }
};

TEST(Master, ItemUpdateFansOutToSubscribers) {
  MasterHarness h;
  ItemUpdate update;
  update.ctx.op = OpId{1};
  update.item = h.item;
  update.value = Variant{42.0};
  h.master.handle(ScadaMessage{update}, h.ctx(1, millis(5)), "frontend");

  ASSERT_EQ(h.hmi_out.size(), 1u);
  EXPECT_EQ(h.hmi_out[0].first, "hmi");
  const auto& out = std::get<ItemUpdate>(h.hmi_out[0].second);
  EXPECT_DOUBLE_EQ(out.value.as_double(), 42.0);
  EXPECT_EQ(out.ctx.timestamp, millis(5));  // deterministic stamp

  const Item* mirror = h.master.item(h.item);
  ASSERT_NE(mirror, nullptr);
  EXPECT_DOUBLE_EQ(mirror->value.as_double(), 42.0);
  EXPECT_EQ(mirror->timestamp, millis(5));
}

TEST(Master, LateSubscriberReceivesSnapshotOfLiveItems) {
  MasterHarness h;
  // The harness's own subscribe preceded any update: no snapshot was pushed.
  EXPECT_TRUE(h.hmi_out.empty());

  ItemUpdate update;
  update.item = h.item;
  update.value = Variant{95.5};
  h.master.handle(ScadaMessage{update}, h.ctx(1, millis(5)), "frontend");
  h.hmi_out.clear();

  // A subscriber joining after the update gets the current value at once —
  // a stable process value must not stay invisible until it next changes.
  h.master.handle(ScadaMessage{Subscribe{Channel::kDa, ItemId{0}, "panel"}},
                  h.ctx(2, millis(9)), "panel");
  ASSERT_EQ(h.hmi_out.size(), 1u);
  EXPECT_EQ(h.hmi_out[0].first, "panel");
  const auto& out = std::get<ItemUpdate>(h.hmi_out[0].second);
  EXPECT_EQ(out.item.value, h.item.value);
  EXPECT_DOUBLE_EQ(out.value.as_double(), 95.5);
  EXPECT_EQ(out.quality, Quality::kGood);
  EXPECT_EQ(out.ctx.timestamp, millis(5));  // the value's timestamp, not now

  // Items that never saw an update are not in the snapshot.
  h.hmi_out.clear();
  h.master.add_item("tank/untouched");
  h.master.handle(ScadaMessage{Subscribe{Channel::kDa, ItemId{0}, "audit"}},
                  h.ctx(3, millis(12)), "audit");
  ASSERT_EQ(h.hmi_out.size(), 1u);  // only the live item, not the new one
  EXPECT_EQ(std::get<ItemUpdate>(h.hmi_out[0].second).item.value,
            h.item.value);
}

TEST(Master, UpdateForUnknownItemIgnored) {
  MasterHarness h;
  ItemUpdate update;
  update.item = ItemId{999};
  update.value = Variant{1.0};
  h.master.handle(ScadaMessage{update}, h.ctx(1, millis(5)), "frontend");
  EXPECT_TRUE(h.hmi_out.empty());
  EXPECT_EQ(h.master.counters().updates_processed, 0u);
}

TEST(Master, MonitorCreatesEventAndStores) {
  MasterHarness h;
  h.master.handlers(h.item).emplace<MonitorHandler>(
      MonitorHandler::Condition::kAbove, 100.0);
  ItemUpdate update;
  update.item = h.item;
  update.value = Variant{150.0};
  h.master.handle(ScadaMessage{update}, h.ctx(1, millis(7)), "frontend");

  // ItemUpdate + EventUpdate both reach the HMI.
  ASSERT_EQ(h.hmi_out.size(), 2u);
  EXPECT_EQ(kind_of(h.hmi_out[0].second), ScadaMsgKind::kItemUpdate);
  EXPECT_EQ(kind_of(h.hmi_out[1].second), ScadaMsgKind::kEventUpdate);
  const auto& event = std::get<EventUpdate>(h.hmi_out[1].second).event;
  EXPECT_EQ(event.code, "MONITOR_TRIGGER");
  EXPECT_EQ(event.timestamp, millis(7));
  EXPECT_EQ(h.master.storage().size(), 1u);
}

TEST(Master, WriteFlowsToFrontendAndBack) {
  MasterHarness h;
  WriteValue write;
  write.ctx.op = OpId{9};
  write.item = h.item;
  write.value = Variant{75.0};
  h.master.handle(ScadaMessage{write}, h.ctx(9, millis(1)), "hmi");

  ASSERT_EQ(h.frontend_out.size(), 1u);
  EXPECT_TRUE(h.master.has_pending_write(OpId{9}));
  EXPECT_TRUE(h.hmi_out.empty());  // nothing to the HMI yet

  WriteResult result;
  result.ctx.op = OpId{9};
  result.item = h.item;
  result.status = WriteStatus::kOk;
  h.master.handle(ScadaMessage{result}, h.ctx(9, millis(2)), "frontend");

  EXPECT_FALSE(h.master.has_pending_write(OpId{9}));
  ASSERT_EQ(h.hmi_out.size(), 1u);
  EXPECT_EQ(kind_of(h.hmi_out[0].second), ScadaMsgKind::kWriteResult);
  EXPECT_EQ(std::get<WriteResult>(h.hmi_out[0].second).status,
            WriteStatus::kOk);
}

TEST(Master, BlockedWriteDeniedWithEvent) {
  MasterHarness h;
  auto* block = h.master.handlers(h.item).emplace<BlockHandler>();
  block->block("safety interlock");

  WriteValue write;
  write.ctx.op = OpId{9};
  write.item = h.item;
  write.value = Variant{75.0};
  h.master.handle(ScadaMessage{write}, h.ctx(9, millis(1)), "hmi");

  EXPECT_TRUE(h.frontend_out.empty());
  EXPECT_FALSE(h.master.has_pending_write(OpId{9}));
  // Per the paper (§II-B): a WriteResult on DA *and* an EventUpdate on AE.
  ASSERT_EQ(h.hmi_out.size(), 2u);
  EXPECT_EQ(kind_of(h.hmi_out[0].second), ScadaMsgKind::kEventUpdate);
  EXPECT_EQ(kind_of(h.hmi_out[1].second), ScadaMsgKind::kWriteResult);
  EXPECT_EQ(std::get<WriteResult>(h.hmi_out[1].second).status,
            WriteStatus::kDenied);
  EXPECT_EQ(h.master.counters().writes_denied, 1u);
}

TEST(Master, FailedWriteResultRaisesEvent) {
  MasterHarness h;
  WriteValue write;
  write.ctx.op = OpId{5};
  write.item = h.item;
  write.value = Variant{1.0};
  h.master.handle(ScadaMessage{write}, h.ctx(5, millis(1)), "hmi");
  h.hmi_out.clear();

  WriteResult result;
  result.ctx.op = OpId{5};
  result.item = h.item;
  result.status = WriteStatus::kFailed;
  result.reason = "rtu exception 4";
  h.master.handle(ScadaMessage{result}, h.ctx(5, millis(2)), "frontend");

  ASSERT_EQ(h.hmi_out.size(), 2u);
  EXPECT_EQ(kind_of(h.hmi_out[0].second), ScadaMsgKind::kEventUpdate);
  EXPECT_EQ(std::get<EventUpdate>(h.hmi_out[0].second).event.code,
            "WRITE_FAILED");
  EXPECT_EQ(kind_of(h.hmi_out[1].second), ScadaMsgKind::kWriteResult);
}

TEST(Master, InjectTimeoutResultUnblocksWrite) {
  MasterHarness h;
  WriteValue write;
  write.ctx.op = OpId{5};
  write.item = h.item;
  write.value = Variant{1.0};
  h.master.handle(ScadaMessage{write}, h.ctx(5, millis(1)), "hmi");
  h.hmi_out.clear();

  h.master.inject_timeout_result(OpId{5});
  EXPECT_FALSE(h.master.has_pending_write(OpId{5}));
  ASSERT_EQ(h.hmi_out.size(), 2u);
  EXPECT_EQ(std::get<EventUpdate>(h.hmi_out[0].second).event.code,
            "WRITE_TIMEOUT");
  EXPECT_EQ(std::get<WriteResult>(h.hmi_out[1].second).status,
            WriteStatus::kTimeout);
  EXPECT_EQ(h.master.counters().write_timeouts, 1u);

  // Injecting again is a no-op (idempotent across the adapter group).
  h.hmi_out.clear();
  h.master.inject_timeout_result(OpId{5});
  EXPECT_TRUE(h.hmi_out.empty());
}

TEST(Master, DuplicateWriteResultIgnored) {
  MasterHarness h;
  WriteValue write;
  write.ctx.op = OpId{5};
  write.item = h.item;
  write.value = Variant{1.0};
  h.master.handle(ScadaMessage{write}, h.ctx(5, millis(1)), "hmi");
  WriteResult result;
  result.ctx.op = OpId{5};
  result.item = h.item;
  result.status = WriteStatus::kOk;
  h.master.handle(ScadaMessage{result}, h.ctx(5, millis(2)), "frontend");
  h.hmi_out.clear();
  h.master.handle(ScadaMessage{result}, h.ctx(5, millis(3)), "frontend");
  EXPECT_TRUE(h.hmi_out.empty());
}

TEST(Master, UnsubscribeStopsDelivery) {
  MasterHarness h;
  h.master.handle(ScadaMessage{Unsubscribe{Channel::kDa, ItemId{0}, "hmi"}},
                  MsgContext{}, "hmi");
  ItemUpdate update;
  update.item = h.item;
  update.value = Variant{1.0};
  h.master.handle(ScadaMessage{update}, h.ctx(1, millis(1)), "frontend");
  EXPECT_TRUE(h.hmi_out.empty());
}

TEST(Master, PerItemSubscriptionOnlyThatItem) {
  MasterHarness h;
  // Replace the wildcard subscription with a per-item one on a second item.
  h.master.handle(ScadaMessage{Unsubscribe{Channel::kDa, ItemId{0}, "hmi"}},
                  MsgContext{}, "hmi");
  ItemId other = h.master.add_item("tank/temp");
  h.master.handle(ScadaMessage{Subscribe{Channel::kDa, other, "hmi"}},
                  MsgContext{}, "hmi");

  ItemUpdate update;
  update.item = h.item;
  update.value = Variant{1.0};
  h.master.handle(ScadaMessage{update}, h.ctx(1, millis(1)), "frontend");
  EXPECT_TRUE(h.hmi_out.empty());

  update.item = other;
  h.master.handle(ScadaMessage{update}, h.ctx(2, millis(2)), "frontend");
  EXPECT_EQ(h.hmi_out.size(), 1u);
}

TEST(Master, SnapshotRestoreRoundTrip) {
  MasterHarness h;
  h.master.handlers(h.item).emplace<MonitorHandler>(
      MonitorHandler::Condition::kAbove, 10.0);
  ItemUpdate update;
  update.item = h.item;
  update.value = Variant{20.0};
  h.master.handle(ScadaMessage{update}, h.ctx(1, millis(1)), "frontend");
  WriteValue write;
  write.ctx.op = OpId{2};
  write.item = h.item;
  write.value = Variant{5.0};
  h.master.handle(ScadaMessage{write}, h.ctx(2, millis(2)), "hmi");

  Bytes snap = h.master.snapshot();
  crypto::Digest digest = h.master.state_digest();

  // Build an identically configured master and restore into it.
  MasterHarness other;
  other.master.handlers(other.item)
      .emplace<MonitorHandler>(MonitorHandler::Condition::kAbove, 10.0);
  other.master.restore(snap);
  EXPECT_EQ(other.master.state_digest(), digest);
  EXPECT_TRUE(other.master.has_pending_write(OpId{2}));
  EXPECT_EQ(other.master.storage().size(), 1u);
  EXPECT_DOUBLE_EQ(other.master.item(h.item)->value.as_double(), 20.0);
}

/// Gives `h` every kind of replicated state: events (an alarm per update),
/// historian samples, DA/AE subscriptions and one pending write.
void populate(MasterHarness& h, int updates) {
  h.master.handlers(h.item).emplace<MonitorHandler>(
      MonitorHandler::Condition::kAbove, 10.0);
  h.master.handle(ScadaMessage{Subscribe{Channel::kAe, h.item, "panel"}},
                  MsgContext{}, "panel");
  for (int i = 0; i < updates; ++i) {
    ItemUpdate update;
    update.item = h.item;
    update.value = Variant{20.0 + i};
    auto op = static_cast<std::uint64_t>(i + 1);
    h.master.handle(ScadaMessage{update},
                    h.ctx(op, millis(static_cast<SimTime>(op))), "frontend");
  }
  WriteValue write;
  write.item = h.item;
  write.value = Variant{5.0};
  h.master.handle(ScadaMessage{write}, h.ctx(1000, millis(1000)), "hmi");
}

class MasterState : public ::testing::TestWithParam<std::size_t> {};

TEST_P(MasterState, StateDigestHashesTheSnapshot) {
  MasterHarness h(GetParam());
  populate(h, 40);
  ASSERT_GT(h.master.storage().resident(), 0u);
  ASSERT_GT(h.master.historian().total_samples(), 0u);
  ASSERT_EQ(h.master.pending_write_count(), 1u);
  EXPECT_EQ(h.master.state_digest(), crypto::Sha256::hash(h.master.snapshot()));
}

TEST_P(MasterState, RestoreRoundTripsEventLog) {
  MasterHarness h(GetParam());
  populate(h, 40);
  Bytes snap = h.master.snapshot();

  MasterHarness other(GetParam());
  other.master.handlers(other.item)
      .emplace<MonitorHandler>(MonitorHandler::Condition::kAbove, 10.0);
  other.master.restore(snap);
  EXPECT_EQ(other.master.snapshot(), snap);
  EXPECT_EQ(other.master.state_digest(), h.master.state_digest());
  const EventStorage& a = h.master.storage();
  const EventStorage& b = other.master.storage();
  EXPECT_EQ(b.query_item(h.item), a.query_item(h.item));
  EXPECT_EQ(b.query_severity(Severity::kInfo),
            a.query_severity(Severity::kInfo));
  EXPECT_EQ(b.query_range(millis(5), millis(30)),
            a.query_range(millis(5), millis(30)));
}

TEST_P(MasterState, RestoreRejectsTruncatedEventAndTrailingByte) {
  MasterHarness h(GetParam());
  populate(h, 40);
  Bytes snap = h.master.snapshot();
  // The snapshot ends with the log, then the historian: end the buffer one
  // byte before the last event does.
  Writer historian;
  h.master.historian().encode(historian);
  std::size_t log_end = snap.size() - historian.size();
  Bytes truncated(snap.begin(),
                  snap.begin() + static_cast<std::ptrdiff_t>(log_end) - 1);

  MasterHarness other(GetParam());
  other.master.handlers(other.item)
      .emplace<MonitorHandler>(MonitorHandler::Condition::kAbove, 10.0);
  // State of its own, which a rejected snapshot must leave as it was.
  ItemUpdate update;
  update.item = other.item;
  update.value = Variant{99.0};
  other.master.handle(ScadaMessage{update}, other.ctx(1, millis(1)),
                      "frontend");
  const Bytes before = other.master.snapshot();
  EXPECT_THROW(other.master.restore(truncated), DecodeError);
  EXPECT_EQ(other.master.snapshot(), before);
  Bytes trailing = snap;
  trailing.push_back(0);
  EXPECT_THROW(other.master.restore(trailing), DecodeError);
  EXPECT_EQ(other.master.snapshot(), before);
  Bytes short_historian(snap.begin(), snap.end() - 1);
  EXPECT_THROW(other.master.restore(short_historian), DecodeError);
  EXPECT_EQ(other.master.snapshot(), before);
  other.master.restore(snap);
  EXPECT_EQ(other.master.snapshot(), snap);
}

/// One Monitor per item on more items than the template table holds, so
/// an alarm on each leaves the last items' events with their template
/// inline. Returns the items.
std::vector<ItemId> add_monitored_bays(MasterHarness& h) {
  std::vector<ItemId> items;
  for (std::size_t i = 0; i < EventStorage::kMaxTemplates + 8; ++i) {
    ItemId item = h.master.add_item("bay/" + std::to_string(i));
    h.master.handlers(item).emplace<MonitorHandler>(
        MonitorHandler::Condition::kAbove, 10.0);
    items.push_back(item);
  }
  return items;
}

TEST_P(MasterState, StateDigestHashesTheSnapshotWithInlineTemplates) {
  MasterHarness h(GetParam());
  std::uint64_t op = 0;
  for (ItemId item : add_monitored_bays(h)) {
    ItemUpdate update;
    update.item = item;
    update.value = Variant{20.0 + static_cast<double>(op)};
    ++op;
    h.master.handle(ScadaMessage{update},
                    h.ctx(op, millis(static_cast<SimTime>(op))), "frontend");
  }
  ASSERT_EQ(h.master.storage().templates(), EventStorage::kMaxTemplates);
  ASSERT_EQ(h.master.storage().size(), op);
  const Bytes snap = h.master.snapshot();
  EXPECT_EQ(h.master.state_digest(), crypto::Sha256::hash(snap));

  MasterHarness other(GetParam());
  add_monitored_bays(other);
  other.master.restore(snap);
  EXPECT_EQ(other.master.snapshot(), snap);
  EXPECT_EQ(other.master.state_digest(), h.master.state_digest());
  EXPECT_EQ(other.master.storage().query_range(0, millis(100000)),
            h.master.storage().query_range(0, millis(100000)));
}

INSTANTIATE_TEST_SUITE_P(Retention, MasterState, ::testing::Values(0u, 4u));

/// (event retention, historian capacity)
class MasterProperty
    : public ::testing::TestWithParam<std::pair<std::size_t, std::size_t>> {
 protected:
  /// A deterministic master whose two items raise an alarm on every
  /// numeric value but NaN (one Monitor above -inf, one below +inf).
  std::unique_ptr<ScadaMaster> make_master() const {
    MasterOptions options;
    options.deterministic = true;
    options.storage_retention = GetParam().first;
    options.historian_capacity = GetParam().second;
    auto master = std::make_unique<ScadaMaster>(std::move(options));
    const double inf = std::numeric_limits<double>::infinity();
    master->handlers(master->add_item("a"))
        .emplace<MonitorHandler>(MonitorHandler::Condition::kAbove, -inf);
    master->handlers(master->add_item("b"))
        .emplace<MonitorHandler>(MonitorHandler::Condition::kBelow, inf);
    return master;
  }
};

TEST_P(MasterProperty, SnapshotRestoreSnapshotIsByteIdentical) {
  auto master = make_master();
  std::unique_ptr<ScadaMaster> restored;
  RandomEvents random(GetParam().first * 31 + GetParam().second);
  for (int i = 0; i < 2000; ++i) {
    const Event e = random.next();
    ItemUpdate update;
    update.item = ItemId{static_cast<std::uint32_t>(1 + i % 2)};  // a, b
    update.value = e.value;
    update.quality = static_cast<Quality>(i % 4);
    MsgContext ctx;
    ctx.op = e.op;
    ctx.timestamp = e.timestamp;
    master->handle(ScadaMessage{update}, ctx, "frontend");
    if (restored) restored->handle(ScadaMessage{update}, ctx, "frontend");
    if (i % 50 != 49) continue;
    const Bytes snap = master->snapshot();
    ASSERT_EQ(master->state_digest(), crypto::Sha256::hash(snap)) << i;
    auto copy = make_master();
    copy->restore(snap);
    ASSERT_EQ(copy->snapshot(), snap) << i;
    ASSERT_EQ(copy->state_digest(), master->state_digest()) << i;
    // A master restored earlier and fed the same updates since agrees.
    if (restored) {
      ASSERT_EQ(restored->snapshot(), snap) << i;
    } else if (i >= 1000) {
      restored = std::move(copy);
    }
  }
  ASSERT_NE(restored, nullptr);
  EXPECT_GT(master->storage().size(), 1000u);
  EXPECT_EQ(master->historian().total_samples(), 2000u);
}

INSTANTIATE_TEST_SUITE_P(
    RetentionAndCapacity, MasterProperty,
    ::testing::Values(std::make_pair(std::size_t{1}, std::size_t{1}),
                      std::make_pair(std::size_t{4}, std::size_t{3}),
                      std::make_pair(std::size_t{1}, std::size_t{4096}),
                      std::make_pair(std::size_t{4}, std::size_t{4096})));

TEST(Master, DeterministicTimestampsVsLocalClock) {
  // Two baseline masters with skewed clocks diverge on event timestamps —
  // the paper's challenge (c). The deterministic masters do not.
  SimTime skew = millis(3);
  MasterOptions opt_a;
  opt_a.clock = [] { return millis(100); };
  MasterOptions opt_b;
  opt_b.clock = [skew] { return millis(100) + skew; };

  auto run = [](ScadaMaster& master) {
    ItemId item = master.add_item("x");
    master.handlers(item).emplace<MonitorHandler>(
        MonitorHandler::Condition::kAbove, 0.0);
    ItemUpdate update;
    update.item = item;
    update.value = Variant{1.0};
    master.handle(ScadaMessage{update}, MsgContext{}, "frontend");
    return master.state_digest();
  };

  ScadaMaster a((MasterOptions(opt_a))), b((MasterOptions(opt_b)));
  EXPECT_NE(run(a), run(b));  // local clocks => divergence

  MasterOptions det;
  det.deterministic = true;
  ScadaMaster c((MasterOptions(det))), d((MasterOptions(det)));
  auto run_det = [](ScadaMaster& master) {
    ItemId item = master.add_item("x");
    master.handlers(item).emplace<MonitorHandler>(
        MonitorHandler::Condition::kAbove, 0.0);
    ItemUpdate update;
    update.item = item;
    update.value = Variant{1.0};
    MsgContext ctx;
    ctx.timestamp = millis(55);
    ctx.op = OpId{1};
    master.handle(ScadaMessage{update}, ctx, "frontend");
    return master.state_digest();
  };
  EXPECT_EQ(run_det(c), run_det(d));  // agreed timestamps => identical state
}

TEST(Master, OrderSensitivityMotivatesTotalOrder) {
  // The same two messages applied in different orders leave different state
  // — why challenge (a)/(b) (multiple entry points, multi-threading) breaks
  // naive replication.
  MasterOptions det;
  det.deterministic = true;
  ScadaMaster a{MasterOptions(det)}, b{MasterOptions(det)};
  for (ScadaMaster* m : {&a, &b}) m->add_item("x");

  ItemUpdate u1;
  u1.item = ItemId{1};
  u1.value = Variant{1.0};
  ItemUpdate u2;
  u2.item = ItemId{1};
  u2.value = Variant{2.0};
  MsgContext c1;
  c1.op = OpId{1};
  c1.timestamp = millis(1);
  MsgContext c2;
  c2.op = OpId{2};
  c2.timestamp = millis(1);

  a.handle(ScadaMessage{u1}, c1, "frontend");
  a.handle(ScadaMessage{u2}, c2, "frontend");
  b.handle(ScadaMessage{u2}, c2, "frontend");
  b.handle(ScadaMessage{u1}, c1, "frontend");
  EXPECT_NE(a.state_digest(), b.state_digest());
}

// ---------------------------------------------------------------------------
// Frontend

TEST(Frontend, FieldUpdateEmitsItemUpdate) {
  Frontend frontend;
  ItemId item = frontend.add_item("pump/speed", Variant{0.0});
  std::vector<ScadaMessage> out;
  frontend.set_master_sink([&](const ScadaMessage& m) { out.push_back(m); });
  frontend.field_update(item, Variant{10.0}, Quality::kGood, millis(3));
  ASSERT_EQ(out.size(), 1u);
  const auto& update = std::get<ItemUpdate>(out[0]);
  EXPECT_EQ(update.item, item);
  EXPECT_DOUBLE_EQ(update.value.as_double(), 10.0);
  EXPECT_EQ(update.source_time, millis(3));
  EXPECT_NE(update.ctx.op.value, 0u);  // op minted
  EXPECT_DOUBLE_EQ(frontend.item(item)->value.as_double(), 10.0);
}

TEST(Frontend, OpIdsAreUniqueAndNamespaced) {
  Frontend frontend(FrontendOptions{.instance_id = 3});
  ItemId item = frontend.add_item("x");
  std::vector<OpId> ops;
  frontend.set_master_sink([&](const ScadaMessage& m) {
    ops.push_back(context_of(m).op);
  });
  frontend.field_update(item, Variant{1.0});
  frontend.field_update(item, Variant{2.0});
  ASSERT_EQ(ops.size(), 2u);
  EXPECT_NE(ops[0], ops[1]);
  EXPECT_EQ(ops[0].value >> 40, 3u);
}

TEST(Frontend, WriteValueAppliesAndAcks) {
  Frontend frontend;
  ItemId item = frontend.add_item("valve", Variant{0.0});
  std::vector<ScadaMessage> out;
  frontend.set_master_sink([&](const ScadaMessage& m) { out.push_back(m); });

  WriteValue write;
  write.ctx.op = OpId{42};
  write.item = item;
  write.value = Variant{1.0};
  frontend.handle(ScadaMessage{write});

  ASSERT_EQ(out.size(), 1u);
  const auto& result = std::get<WriteResult>(out[0]);
  EXPECT_EQ(result.status, WriteStatus::kOk);
  EXPECT_EQ(result.ctx.op, OpId{42});  // context preserved end-to-end
  EXPECT_DOUBLE_EQ(frontend.item(item)->value.as_double(), 1.0);
}

TEST(Frontend, UnknownItemWriteFails) {
  Frontend frontend;
  std::vector<ScadaMessage> out;
  frontend.set_master_sink([&](const ScadaMessage& m) { out.push_back(m); });
  WriteValue write;
  write.ctx.op = OpId{1};
  write.item = ItemId{77};
  frontend.handle(ScadaMessage{write});
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(std::get<WriteResult>(out[0]).status, WriteStatus::kFailed);
}

TEST(Frontend, FieldWriterFailurePropagates) {
  Frontend frontend;
  ItemId item = frontend.add_item("valve", Variant{0.0});
  frontend.set_field_writer(
      [](OpId, ItemId, const Variant&,
         std::function<void(bool, std::string)> done) {
        done(false, "device offline");
      });
  std::vector<ScadaMessage> out;
  frontend.set_master_sink([&](const ScadaMessage& m) { out.push_back(m); });
  WriteValue write;
  write.ctx.op = OpId{1};
  write.item = item;
  write.value = Variant{1.0};
  frontend.handle(ScadaMessage{write});
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(std::get<WriteResult>(out[0]).status, WriteStatus::kFailed);
  EXPECT_EQ(std::get<WriteResult>(out[0]).reason, "device offline");
  // Value untouched on failure.
  EXPECT_DOUBLE_EQ(frontend.item(item)->value.as_double(), 0.0);
}

// ---------------------------------------------------------------------------
// HMI

TEST(Hmi, SubscribesAndMirrorsUpdates) {
  Hmi hmi;
  std::vector<ScadaMessage> out;
  hmi.set_master_sink([&](const ScadaMessage& m) { out.push_back(m); });
  hmi.subscribe_all();
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(std::get<Subscribe>(out[0]).channel, Channel::kDa);
  EXPECT_EQ(std::get<Subscribe>(out[1]).channel, Channel::kAe);

  ItemUpdate update;
  update.item = ItemId{1};
  update.value = Variant{9.0};
  update.ctx.timestamp = millis(4);
  hmi.handle(ScadaMessage{update});
  EXPECT_EQ(hmi.counters().updates_received, 1u);
  ASSERT_NE(hmi.item(ItemId{1}), nullptr);
  EXPECT_DOUBLE_EQ(hmi.item(ItemId{1})->value.as_double(), 9.0);
  EXPECT_EQ(hmi.item(ItemId{1})->timestamp, millis(4));
}

TEST(Hmi, WriteLifecycle) {
  Hmi hmi;
  std::vector<ScadaMessage> out;
  hmi.set_master_sink([&](const ScadaMessage& m) { out.push_back(m); });

  WriteResult received;
  OpId op = hmi.write(ItemId{2}, Variant{5.0},
                      [&](const WriteResult& r) { received = r; });
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(std::get<WriteValue>(out[0]).ctx.op, op);
  EXPECT_EQ(hmi.pending_writes(), 1u);

  WriteResult result;
  result.ctx.op = op;
  result.item = ItemId{2};
  result.status = WriteStatus::kOk;
  hmi.handle(ScadaMessage{result});
  EXPECT_EQ(hmi.pending_writes(), 0u);
  EXPECT_EQ(received.status, WriteStatus::kOk);
  EXPECT_EQ(hmi.counters().writes_ok, 1u);

  // A duplicate result does not fire the callback twice.
  hmi.handle(ScadaMessage{result});
  EXPECT_EQ(hmi.counters().writes_ok, 1u);
}

TEST(Hmi, CountsResultStatuses) {
  Hmi hmi;
  hmi.set_master_sink([](const ScadaMessage&) {});
  for (WriteStatus status :
       {WriteStatus::kDenied, WriteStatus::kTimeout, WriteStatus::kFailed}) {
    OpId op = hmi.write(ItemId{1}, Variant{1.0});
    WriteResult result;
    result.ctx.op = op;
    result.status = status;
    hmi.handle(ScadaMessage{result});
  }
  EXPECT_EQ(hmi.counters().writes_denied, 1u);
  EXPECT_EQ(hmi.counters().writes_timeout, 1u);
  EXPECT_EQ(hmi.counters().writes_failed, 1u);
}

TEST(Hmi, EventLogAccumulates) {
  Hmi hmi;
  int callbacks = 0;
  hmi.set_event_callback([&](const EventUpdate&) { ++callbacks; });
  for (int i = 0; i < 3; ++i) {
    EventUpdate event;
    event.event.code = "E" + std::to_string(i);
    hmi.handle(ScadaMessage{event});
  }
  EXPECT_EQ(hmi.event_log().size(), 3u);
  EXPECT_EQ(callbacks, 3);
  EXPECT_EQ(hmi.counters().events_received, 3u);
}

}  // namespace
}  // namespace ss::scada
