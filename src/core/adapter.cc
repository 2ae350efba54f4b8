#include "core/adapter.h"

#include <limits>

#include "common/logging.h"
#include "obs/trace.h"

namespace ss::core {

namespace {

Bytes vote_material(const std::string& from, const std::string& to,
                    const Bytes& body) {
  Writer w(body.size() + from.size() + to.size() + 8);
  w.str(from);
  w.str(to);
  w.blob(body);
  return std::move(w).take();
}

/// Applies the decided ordering context to a message before it enters the
/// Master — this is the ContextInfo of the paper (§IV-C).
scada::ScadaMessage stamp(const scada::ScadaMessage& msg,
                          const scada::MsgContext& ctx) {
  scada::ScadaMessage out = msg;
  std::visit(
      [&ctx](auto& m) {
        using T = std::decay_t<decltype(m)>;
        if constexpr (!std::is_same_v<T, scada::Subscribe> &&
                      !std::is_same_v<T, scada::Unsubscribe>) {
          m.ctx.cid = ctx.cid;
          m.ctx.order = ctx.order;
          m.ctx.timestamp = ctx.timestamp;
        }
      },
      out);
  return out;
}

}  // namespace

std::string adapter_principal(ReplicaId id) {
  return "adapter/" + std::to_string(id.value);
}

Adapter::Adapter(net::Transport& net, GroupConfig group, ReplicaId id,
                 const crypto::Keychain& keys, scada::ScadaMaster& master,
                 AdapterOptions options)
    : net_(net),
      group_(group),
      id_(id),
      endpoint_(adapter_principal(id)),
      keys_(keys),
      master_(master),
      opt_(options) {
  net_.attach(endpoint_,
              [this](net::Message m) { on_adapter_message(std::move(m)); });

  if (opt_.executor_lanes > 1) {
    executor_.reserve(opt_.executor_lanes);
    for (std::uint32_t i = 0; i < opt_.executor_lanes; ++i) {
      executor_.push_back(std::make_unique<net::Lanes>(net, 1));
    }
  }

  // Master output is buffered per ordered request and released when the
  // (virtual) execution time has been served — with executor lanes, a
  // backlogged conflict group delays its own output instead of silently
  // doing free work.
  master_.set_da_sink([this](const std::string& sub,
                             const scada::ScadaMessage& msg) {
    emissions_.emplace_back(sub, msg);
  });
  master_.set_ae_sink([this](const std::string& sub,
                             const scada::ScadaMessage& msg) {
    emissions_.emplace_back(sub, msg);
  });
  master_.set_frontend_sink(
      [this](const std::string& frontend, const scada::ScadaMessage& msg) {
        emissions_.emplace_back(frontend, msg);
      });

  obs_source_ = obs::Registry::instance().add_source(
      endpoint_, [this](const obs::Registry::Emit& emit) {
        emit("scada_requests", static_cast<double>(stats_.scada_requests));
        emit("timeouts_armed", static_cast<double>(stats_.timeouts_armed));
        emit("timeouts_cancelled",
             static_cast<double>(stats_.timeouts_cancelled));
        emit("timeout_votes_sent",
             static_cast<double>(stats_.timeout_votes_sent));
        emit("timeout_votes_received",
             static_cast<double>(stats_.timeout_votes_received));
        emit("timeout_injections",
             static_cast<double>(stats_.timeout_injections));
        emit("unknown_sources", static_cast<double>(stats_.unknown_sources));
        const scada::MasterCounters& mc = master_.counters();
        emit("master.updates_processed",
             static_cast<double>(mc.updates_processed));
        emit("master.writes_allowed", static_cast<double>(mc.writes_allowed));
        emit("master.writes_denied", static_cast<double>(mc.writes_denied));
        emit("master.write_results", static_cast<double>(mc.write_results));
        emit("master.write_timeouts", static_cast<double>(mc.write_timeouts));
        emit("master.events_created", static_cast<double>(mc.events_created));
        // Encoded sizes of the replicated logs, identical on every replica.
        emit("master.events_resident",
             static_cast<double>(master_.storage().resident()));
        emit("master.event_log_bytes",
             static_cast<double>(master_.storage().log_bytes()));
        emit("master.historian_bytes",
             static_cast<double>(master_.historian().bytes()));
      });
}

Adapter::~Adapter() { net_.detach(endpoint_); }

void Adapter::register_client(const std::string& source, ClientId client) {
  clients_[source] = client;
  sources_[client.value] = source;
}

void Adapter::route_to_client(const std::string& source,
                              const scada::ScadaMessage& msg) {
  auto it = clients_.find(source);
  if (it == clients_.end()) {
    ++stats_.unknown_sources;
    return;
  }
  if (replica_ != nullptr) {
    replica_->push_to_client(it->second, scada::encode_message(msg));
  }
}

Bytes Adapter::execute_ordered(const bft::ExecuteContext& ctx,
                               ByteView request) {
  CoreRequest req;
  try {
    req = CoreRequest::decode(request);
  } catch (const DecodeError&) {
    Writer w(1);
    w.u8(0);  // malformed request: negative ack (still deterministic)
    return std::move(w).take();
  }

  switch (req.kind) {
    case CoreRequestKind::kScada: {
      ++stats_.scada_requests;
      const SimTime adapter_t0 = net_.now();
      scada::ScadaMessage msg;
      try {
        msg = scada::decode_message(req.body);
      } catch (const DecodeError&) {
        Writer w(1);
        w.u8(0);
        return std::move(w).take();
      }

      scada::MsgContext mctx = context_of(msg);
      mctx.cid = ctx.cid;
      mctx.order = ctx.order;
      mctx.timestamp = ctx.timestamp;
      scada::ScadaMessage stamped = stamp(msg, mctx);

      // A WriteResult from the Frontend resolves the logical timeout.
      if (kind_of(stamped) == scada::ScadaMsgKind::kWriteResult) {
        cancel_write_timeout(mctx.op);
      }

      auto source_it = sources_.find(ctx.client.value);
      std::string source = source_it != sources_.end()
                               ? source_it->second
                               : "client/" + std::to_string(ctx.client.value);

      scada::MasterCounters before = master_.counters();
      const SimTime master_t0 = net_.now();
      master_.handle(stamped, mctx, source);
      obs::Tracer::instance().record(mctx.op, "master", endpoint_.c_str(),
                                     master_t0, net_.now());
      if (replica_ != nullptr) {
        replica_->charge(opt_.costs.adapter_process +
                         opt_.costs.serialize_per_msg);
      }
      charge_execution(stamped, master_cost(before, stamped));
      obs::Tracer::instance().record(mctx.op, "adapter", endpoint_.c_str(),
                                     adapter_t0, net_.now());
      Writer w(1);
      w.u8(1);
      return std::move(w).take();
    }
    case CoreRequestKind::kTimeoutResult: {
      Reader r(req.body);
      OpId op = r.id<OpId>();
      cancel_write_timeout(op);
      if (master_.has_pending_write(op)) {
        ++stats_.timeout_injections;
        master_.inject_timeout_result(op);
      }
      // The synthetic WriteResult's output (timeout result + event) leaves
      // immediately; charge the routine processing cost.
      if (replica_ != nullptr) replica_->charge(opt_.costs.da_process);
      flush_emissions(std::move(emissions_));
      emissions_.clear();
      Writer w(1);
      w.u8(1);
      return std::move(w).take();
    }
  }
  Writer w(1);
  w.u8(0);
  return std::move(w).take();
}

SimTime Adapter::master_cost(const scada::MasterCounters& before,
                             const scada::ScadaMessage& msg) const {
  const scada::MasterCounters& after = master_.counters();
  const sim::CostModel& costs = opt_.costs;
  SimTime cost = costs.da_process;
  if (kind_of(msg) == scada::ScadaMsgKind::kWriteValue) {
    cost += costs.write_block_check;
  }
  std::uint64_t events = after.events_created - before.events_created;
  cost += static_cast<SimTime>(events) *
          (costs.ae_event_create + costs.storage_append);
  std::uint64_t fanout = (after.updates_forwarded - before.updates_forwarded) +
                         (after.events_forwarded - before.events_forwarded);
  cost += static_cast<SimTime>(fanout) * costs.serialize_per_msg;
  std::uint64_t handled = after.updates_processed - before.updates_processed;
  cost += static_cast<SimTime>(handled) * costs.handler_process;
  return cost;
}

void Adapter::flush_emissions(std::vector<Emission> emissions) {
  for (Emission& emission : emissions) {
    // WriteValue commands only ever travel Frontend-ward; each one arms the
    // logical timeout, whichever frontend owns the item.
    if (kind_of(emission.second) == scada::ScadaMsgKind::kWriteValue) {
      arm_write_timeout(context_of(emission.second).op);
    }
    route_to_client(emission.first, emission.second);
  }
}

void Adapter::charge_execution(const scada::ScadaMessage& msg, SimTime cost) {
  std::vector<Emission> emissions = std::move(emissions_);
  emissions_.clear();

  if (executor_.empty()) {
    // Single-threaded prototype: SCADA processing serializes with the
    // protocol on the replica's one thread (the paper's design). Output
    // leaves immediately; the charge throttles future message processing.
    if (replica_ != nullptr) replica_->charge(cost);
    flush_emissions(std::move(emissions));
    return;
  }
  // Parallel execution: conflict group = item id. Same item -> same lane
  // (program order preserved, output released after the work is served);
  // different items proceed concurrently.
  ItemId item = std::visit(
      [](const auto& m) -> ItemId {
        using T = std::decay_t<decltype(m)>;
        if constexpr (std::is_same_v<T, scada::ItemUpdate> ||
                      std::is_same_v<T, scada::WriteValue> ||
                      std::is_same_v<T, scada::WriteResult>) {
          return m.item;
        } else if constexpr (std::is_same_v<T, scada::EventUpdate>) {
          return m.event.item;
        } else {
          return ItemId{0};
        }
      },
      msg);
  executor_[item.value % executor_.size()]->submit(
      cost, [this, emissions = std::move(emissions)]() mutable {
        flush_emissions(std::move(emissions));
      });
}

Bytes Adapter::execute_unordered(ClientId, ByteView request) {
  Writer w(64);
  try {
    Reader r(request);
    auto kind =
        r.enumeration<QueryKind>(static_cast<std::uint64_t>(QueryKind::kMax));
    ItemId item = r.id<ItemId>();
    std::uint64_t arg = r.varint();
    r.expect_done();
    switch (kind) {
      case QueryKind::kReadItem: {
        const scada::Item* found = master_.item(item);
        w.boolean(found != nullptr);
        if (found != nullptr) found->encode(w);
        break;
      }
      case QueryKind::kStateDigest: {
        w.raw(ByteView(master_.state_digest()));
        break;
      }
      case QueryKind::kEventCount: {
        w.varint(master_.storage().size());
        break;
      }
      case QueryKind::kHistoryTail: {
        std::vector<scada::Sample> samples = master_.historian().tail(
            item, static_cast<std::size_t>(std::min<std::uint64_t>(arg, 1024)));
        w.varint(samples.size());
        for (const scada::Sample& sample : samples) sample.encode(w);
        break;
      }
      case QueryKind::kHistoryAggregate: {
        scada::Aggregate agg = master_.historian().aggregate(
            item, 0, std::numeric_limits<SimTime>::max());
        w.varint(agg.count);
        w.f64(agg.min);
        w.f64(agg.max);
        w.f64(agg.mean);
        break;
      }
    }
  } catch (const DecodeError&) {
    // fall through with whatever was written; callers vote on replies anyway
  }
  return std::move(w).take();
}

void Adapter::restore(ByteView data) {
  master_.restore(data);
  // Re-arm logical timeouts for writes that were pending at the snapshot.
  for (auto& [op, timer] : write_timers_) timer.cancel();
  write_timers_.clear();
  for (OpId op : master_.pending_write_ops()) arm_write_timeout(op);
}

// --------------------------------------------------------------------------
// logical timeout protocol

void Adapter::arm_write_timeout(OpId op) {
  if (opt_.write_timeout <= 0) return;
  cancel_write_timeout(op);
  ++stats_.timeouts_armed;
  write_timers_[op.value] =
      net_.schedule(opt_.write_timeout, [this, op] {
        on_write_timeout(op);
      });
}

void Adapter::cancel_write_timeout(OpId op) {
  auto it = write_timers_.find(op.value);
  if (it != write_timers_.end()) {
    ++stats_.timeouts_cancelled;
    it->second.cancel();
    write_timers_.erase(it);
  }
  timeout_votes_.erase(op.value);
}

void Adapter::on_write_timeout(OpId op) {
  write_timers_.erase(op.value);
  if (!master_.has_pending_write(op)) return;
  SS_LOG(LogLevel::kInfo, net_.now(), endpoint_.c_str(),
         "write op %lu timed out; voting", static_cast<unsigned long>(op.value));
  broadcast_vote(op);
  record_vote(TimeoutVote{op, id_});
}

void Adapter::broadcast_vote(OpId op) {
  TimeoutVote vote{op, id_};
  Bytes body = vote.encode();
  for (ReplicaId peer : group_.replica_ids()) {
    if (peer == id_) continue;
    std::string to = adapter_principal(peer);
    crypto::Digest mac = keys_.mac(endpoint_, to,
                                   vote_material(endpoint_, to, body));
    Writer w(body.size() + endpoint_.size() + 40);
    w.str(endpoint_);
    w.blob(body);
    w.raw(ByteView(mac));
    ++stats_.timeout_votes_sent;
    net_.send(endpoint_, to, std::move(w).take());
  }
}

void Adapter::on_adapter_message(net::Message msg) {
  try {
    Reader r(msg.payload);
    std::string sender = r.str();
    Bytes body = r.blob();
    crypto::Digest mac{};
    for (auto& b : mac) b = r.u8();
    r.expect_done();
    if (!keys_.verify(sender, endpoint_,
                      vote_material(sender, endpoint_, body), mac)) {
      return;
    }
    TimeoutVote vote = TimeoutVote::decode(body);
    if (sender != adapter_principal(vote.voter)) return;
    ++stats_.timeout_votes_received;
    record_vote(vote);
  } catch (const DecodeError&) {
    // drop malformed vote
  }
}

void Adapter::record_vote(const TimeoutVote& vote) {
  if (vote.voter.value >= group_.n) return;
  if (!master_.has_pending_write(vote.op)) return;
  auto& votes = timeout_votes_[vote.op.value];
  votes.insert(vote.voter.value);
  if (votes.size() < group_.majority()) return;
  if (injected_.count(vote.op.value) > 0) return;
  injected_.insert(vote.op.value);
  if (injected_.size() > 65536) injected_.erase(injected_.begin());
  if (timeout_client_ != nullptr) {
    SS_LOG(LogLevel::kInfo, net_.now(), endpoint_.c_str(),
           "majority timeout for op %lu; ordering synthetic WriteResult",
           static_cast<unsigned long>(vote.op.value));
    timeout_client_->invoke_ordered(
        CoreRequest::timeout_result(vote.op).encode());
  }
}

}  // namespace ss::core
