// The transport seam: every SMaRt-SCADA component above this layer sends,
// receives, and schedules time through the Transport interface, never
// through a concrete network.
//
// Two backends implement it:
//  * sim::Network — the deterministic in-process simulated network all
//    tests, benches, and chaos sweeps run on (virtual time);
//  * net::SocketTransport — real UDP sockets on a poll-driven loop
//    (monotonic wall-clock time), for multi-process deployments.
//
// The authenticated-channel layer (HMAC keychain, see crypto::Keychain and
// core/scada_link) sits *above* this seam: components MAC and verify their
// payloads themselves, so integrity/authenticity hold identically over the
// simulated network and over real wires — the SecureSMART property that
// channel security must not depend on the transport.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <utility>

#include "common/bytes.h"
#include "common/types.h"

namespace ss::net {

/// One delivered message. `from` is the sender's claimed endpoint name; it
/// is NOT authenticated by the transport — receivers authenticate senders
/// via the HMAC inside the payload.
struct Message {
  std::string from;
  std::string to;
  Bytes payload;
};

/// Cancellable handle for a scheduled action. Cheap to copy; cancelling
/// twice is a no-op. active() reports "not cancelled" (matching
/// sim::TimerHandle semantics: firing does not clear it).
class Timer {
 public:
  struct Impl {
    virtual ~Impl() = default;
    virtual void cancel() = 0;
    virtual bool active() const = 0;
  };

  Timer() = default;
  explicit Timer(std::shared_ptr<Impl> impl) : impl_(std::move(impl)) {}

  void cancel() {
    if (impl_) impl_->cancel();
  }
  bool active() const { return impl_ && impl_->active(); }

 private:
  std::shared_ptr<Impl> impl_;
};

/// Message-passing transport with named endpoints and timer scheduling.
///
/// Contract (both backends):
///  * attach() registers (or replaces) the receive handler for a name;
///    detach() models a crash — in-flight messages to the name are dropped;
///  * send() never invokes a handler re-entrantly: delivery happens on a
///    later loop iteration, even for zero-latency/loopback paths;
///  * delivery is unreliable and unordered in general (the simulated
///    backend only drops under injected faults; UDP drops whenever the
///    kernel or the wire does) — retransmission is the caller's job;
///  * schedule() runs `action` once, `delay` nanoseconds of transport time
///    from now(); now() is virtual time on the simulated backend and
///    monotonic wall-clock time on the socket backend.
class Transport {
 public:
  using Handler = std::function<void(Message)>;

  virtual ~Transport() = default;

  virtual void attach(const std::string& name, Handler handler) = 0;
  virtual void detach(const std::string& name) = 0;
  virtual bool attached(const std::string& name) const = 0;

  virtual void send(const std::string& from, const std::string& to,
                    Bytes payload) = 0;

  virtual Timer schedule(SimTime delay, std::function<void()> action) = 0;
  virtual SimTime now() const = 0;

  /// Whether work that costs no modelled CPU still takes its turn as a
  /// zero-delay timer (net::Lanes). True by default, which keeps the
  /// simulator's event order; a backend whose CPU is real returns false,
  /// and such work then runs in place.
  virtual bool models_cpu() const { return true; }
};

}  // namespace ss::net
