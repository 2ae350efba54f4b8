// Alarm & Event records (the AE subsystem's data model).
//
// Events are created by handlers (e.g. Monitor when a value crosses its
// threshold, Block when it denies a write) and persisted in EventStorage.
// Their timestamp is the deterministic operation timestamp in replicated
// mode — never the local OS clock (paper challenge (c)).
#pragma once

#include <string>

#include "common/serialization.h"
#include "common/types.h"
#include "scada/variant.h"

namespace ss::scada {

enum class Severity : std::uint8_t {
  kInfo = 0,
  kWarning,
  kAlarm,
  kCritical,
  kMax = kCritical,
};

inline const char* severity_name(Severity s) {
  switch (s) {
    case Severity::kInfo:
      return "info";
    case Severity::kWarning:
      return "warning";
    case Severity::kAlarm:
      return "alarm";
    case Severity::kCritical:
      return "critical";
  }
  return "?";
}

struct Event {
  EventId id;          ///< storage sequence number, assigned on append
  ItemId item;
  Severity severity = Severity::kInfo;
  std::string code;    ///< machine-readable, e.g. "MONITOR_HIGH"
  std::string message; ///< human-readable reason
  Variant value;       ///< item value that triggered the event
  SimTime timestamp = 0;
  OpId op;             ///< operation that produced the event

  /// id ‖ template ‖ tail. A handler repeats the template (item, severity,
  /// code, message) from event to event; the tail (value, timestamp, op)
  /// is what changes. EventStorage stores the two apart.
  void encode(Writer& w) const {
    w.id(id);
    encode_template(w);
    encode_tail(w);
  }

  static Event decode(Reader& r) {
    Event e;
    e.id = r.id<EventId>();
    e.decode_template(r);
    e.decode_tail(r);
    return e;
  }

  void encode_template(Writer& w) const {
    w.id(item);
    w.enumeration(severity);
    w.str(code);
    w.str(message);
  }

  void decode_template(Reader& r) {
    item = r.id<ItemId>();
    severity =
        r.enumeration<Severity>(static_cast<std::uint64_t>(Severity::kMax));
    code = r.str();
    message = r.str();
  }

  void encode_tail(Writer& w) const {
    value.encode(w);
    w.i64(timestamp);
    w.id(op);
  }

  void decode_tail(Reader& r) {
    value = Variant::decode(r);
    timestamp = r.i64();
    op = r.id<OpId>();
  }

  bool operator==(const Event&) const = default;
};

}  // namespace ss::scada
