// A net::Transport decorator that times the work each endpoint does.
//
// Every handler attached through it runs inside a scope charged to its
// endpoint; every action scheduled through it is charged to
// "<endpoint>:deferred" of whichever endpoint was running when it was
// scheduled (an action scheduled outside any handler belongs to the
// "bench" pseudo-endpoint). That splits, for example, a proxy's reply
// authentication (the bft client endpoint's handler) from the f+1 vote it
// queues through net::Lanes (the same endpoint's deferred work) without a
// single span inside src/. Time is steady_clock wall time on the loop
// thread, which for a single-threaded process is the CPU it spent there
// plus any preemption.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <utility>

#include "net/transport.h"

namespace scadabench {

class TimedTransport final : public ss::net::Transport {
 public:
  struct Busy {
    std::uint64_t calls = 0;
    std::int64_t ns = 0;
  };
  struct Endpoint {
    Busy handler;
    Busy deferred;
  };

  explicit TimedTransport(ss::net::Transport& inner) : inner_(inner) {}

  TimedTransport(const TimedTransport&) = delete;
  TimedTransport& operator=(const TimedTransport&) = delete;

  void attach(const std::string& name, Handler handler) override {
    Endpoint* ep = &endpoints_[name];
    inner_.attach(name, [this, ep, handler = std::move(handler)](
                            ss::net::Message m) {
      Scope scope(*this, ep, ep->handler);
      handler(std::move(m));
    });
  }
  void detach(const std::string& name) override { inner_.detach(name); }
  bool attached(const std::string& name) const override {
    return inner_.attached(name);
  }
  void send(const std::string& from, const std::string& to,
            ss::Bytes payload) override {
    inner_.send(from, to, std::move(payload));
  }
  ss::net::Timer schedule(ss::SimTime delay,
                          std::function<void()> action) override {
    Endpoint* owner = current_ != nullptr ? current_ : &endpoints_["bench"];
    return inner_.schedule(delay, [this, owner, action = std::move(action)] {
      Scope scope(*this, owner, owner->deferred);
      action();
    });
  }
  ss::SimTime now() const override { return inner_.now(); }

  /// Per-endpoint busy time since construction (or the last reset()).
  const std::map<std::string, Endpoint>& endpoints() const {
    return endpoints_;
  }
  void reset() {
    for (auto& [name, ep] : endpoints_) ep = Endpoint{};
  }

 private:
  class Scope {
   public:
    Scope(TimedTransport& t, Endpoint* ep, Busy& busy)
        : t_(t), prev_(t.current_), busy_(busy),
          start_(std::chrono::steady_clock::now()) {
      t_.current_ = ep;
    }
    ~Scope() {
      busy_.ns += std::chrono::duration_cast<std::chrono::nanoseconds>(
                      std::chrono::steady_clock::now() - start_)
                      .count();
      ++busy_.calls;
      t_.current_ = prev_;
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    TimedTransport& t_;
    Endpoint* prev_;
    Busy& busy_;
    std::chrono::steady_clock::time_point start_;
  };

  ss::net::Transport& inner_;
  // std::map: Endpoint addresses stay valid as endpoints are added, so the
  // wrapped handlers and scheduled actions can hold them directly.
  std::map<std::string, Endpoint> endpoints_;
  Endpoint* current_ = nullptr;
};

}  // namespace scadabench
