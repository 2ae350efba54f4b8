#include "bft/replica.h"

#include <algorithm>
#include <chrono>
#include <vector>

#include "common/logging.h"
#include "obs/metrics.h"
#include "storage/replica_storage.h"

namespace ss::bft {

ReplicaCore::ReplicaCore(net::Transport& net, GroupConfig group, ReplicaId id,
                         const crypto::Keychain& keys, Executable& app,
                         Recoverable& state, ReplicaOptions options)
    : net_(net),
      group_(group),
      id_(id),
      endpoint_(crypto::replica_principal(id)),
      keys_(keys),
      app_(app),
      recoverable_(state),
      opt_(options),
      lanes_(net, options.lanes),
      storage_(options.storage),
      byz_rng_(0xBAD0000 + id.value),
      state_rto_([id] {
        net::BackoffOptions b;
        b.initial = millis(500);
        b.cap = seconds(4);
        std::uint64_t sm = 0x57A7EULL ^ id.value;
        b.seed = splitmix64(sm);
        return b;
      }()),
      engine_(make_engine(*this, group_, id_, keys_)) {
  opt_.max_batch = std::max<std::uint32_t>(opt_.max_batch, 1);
  net_.attach(endpoint_, [this](net::Message m) { on_message(std::move(m)); });
}

ReplicaCore::~ReplicaCore() { net_.detach(endpoint_); }

void ReplicaCore::set_timer_skew(double factor) {
  timer_skew_ = std::clamp(factor, 0.1, 100.0);
}

SimTime ReplicaCore::skewed(SimTime delay) const {
  if (timer_skew_ == 1.0) return delay;
  return static_cast<SimTime>(static_cast<double>(delay) * timer_skew_);
}

// --------------------------------------------------------------------------
// EngineHost services

void ReplicaCore::schedule(SimTime delay, std::function<void()> fn) {
  net_.schedule(skewed(delay), std::move(fn));
}

void ReplicaCore::send_to_replica(ReplicaId to, MsgType type, Bytes body) {
  send_envelope(crypto::replica_principal(to), type, std::move(body));
}

void ReplicaCore::broadcast_replicas(MsgType type, const Bytes& body) {
  broadcast(type, body);
}

void ReplicaCore::append_decision(ConsensusId cid, const Bytes& proposal) {
  if (storage_ != nullptr) storage_->append_decision(cid, proposal);
}

void ReplicaCore::commit(ConsensusId cid, const Batch& batch,
                         const crypto::Digest& digest) {
  last_decided_ = cid;
  ++stats_.batches_decided;
  lanes_.submit(opt_.per_decision_cost, [] {});
  execute_batch(cid, batch);
  last_timestamp_ = batch.timestamp;
  if (decision_observer_) {
    decision_observer_(cid, digest, batch.timestamp);
  }
  maybe_checkpoint();
}

std::uint64_t ReplicaCore::usig_stored_lease() const {
  return storage_ != nullptr ? storage_->usig_lease() : 0;
}

void ReplicaCore::usig_persist_lease(std::uint64_t lease) {
  if (storage_ != nullptr) storage_->write_usig_lease(lease);
}

// --------------------------------------------------------------------------
// networking

void ReplicaCore::on_message(net::Message msg) {
  if (crashed_) return;
  lanes_.submit(opt_.per_message_cost + processing_delay_,
                [this, payload = std::move(msg.payload)]() mutable {
                  if (crashed_) return;
                  deliver(prevalidate(std::move(payload)));
                });
}

ReplicaCore::Inbound ReplicaCore::prevalidate(Bytes payload) const {
  // The pure step: everything it reads (endpoint_, keys_, group_, id_, the
  // engine's immutable identity) is fixed for the replica's lifetime, and
  // every operation (decode, HMAC, SHA-256) is a pure function of its
  // inputs.
  Inbound in;
  try {
    in.env = Envelope::decode(std::move(payload));
  } catch (const DecodeError&) {
    in.decode_failed = true;
    return in;
  }
  // Verify under the epoch the sender claims; whether that epoch is still
  // current is a stateful policy question (accept_sender_epoch) — here we
  // only establish that the sender holds the keys for it.
  if (!keys_.verify(in.env.sender, endpoint_, in.env.epoch,
                    envelope_mac_pieces(in.env.type, in.env.sender, endpoint_,
                                        in.env.epoch, in.env.body),
                    in.env.mac)) {
    in.mac_failed = true;
    return in;
  }
  switch (in.env.type) {
    case MsgType::kClientRequest: {
      // A failed pre-decode leaves pre.request empty; the stateful handler
      // re-decodes and counts the failure there, keeping the stats
      // accounting in one place.
      try {
        ClientRequest req = ClientRequest::decode(in.env.body);
        in.pre.request_auth_ok =
            req.auth.size() == group_.n &&
            keys_.verify(crypto::client_principal(req.client), endpoint_,
                         req.encode_core(), req.auth[id_.value]);
        in.pre.request = std::move(req);
      } catch (const DecodeError&) {
      }
      break;
    }
    default:
      // Engine message types get their own pure step; anything else is
      // cheap and decoded by its handler.
      engine_->prevalidate(in.env, in.pre.engine);
      break;
  }
  return in;
}

void ReplicaCore::deliver(Inbound in) {
  if (crashed_) return;
  if (in.decode_failed) {
    ++stats_.decode_failures;
    return;
  }
  if (in.mac_failed) {
    ++stats_.mac_failures;
    return;
  }
  try {
    dispatch(std::move(in.env), std::move(in.pre));
  } catch (const DecodeError&) {
    ++stats_.decode_failures;
  }
}

void ReplicaCore::dispatch(Envelope env, Prevalidated pre) {
  // Replica-to-replica traffic must carry a current (or within-handover)
  // key epoch. Client requests are exempt: clients stay on epoch 0, and a
  // forwarded request's real gate is its per-replica authenticator anyway.
  if (env.type != MsgType::kClientRequest &&
      !accept_sender_epoch(env.sender, env.epoch)) {
    ++stats_.epoch_rejections;
    ++obs::Registry::instance().counter("bft.epoch_rejections");
    return;
  }
  switch (env.type) {
    case MsgType::kClientRequest:
      handle_client_request(env, pre);
      break;
    case MsgType::kStateRequest: {
      StateRequest req = StateRequest::decode(env.body);
      if (env.sender != crypto::replica_principal(req.requester)) return;
      handle_state_request(req);
      break;
    }
    case MsgType::kStateReply: {
      StateReplyView rep = StateReplyView::decode(env.body);
      if (env.sender != crypto::replica_principal(rep.replica)) return;
      // Moving the body keeps its buffer, which `rep` views.
      handle_state_reply(rep, std::move(env.body));
      break;
    }
    case MsgType::kClientReply:
    case MsgType::kServerPush:
      break;  // replies/pushes are never addressed to a replica
    default:
      engine_->on_message(env, pre.engine);
      break;
  }
}

void ReplicaCore::send_envelope(const std::string& to, MsgType type,
                                Bytes body) {
  // WAL replay re-derives local state only; every message a replayed
  // decision would emit was already sent by the pre-crash incarnation.
  if (replaying_) return;
  if (byzantine_ == ByzantineMode::kSilent) return;
  if (byzantine_ == ByzantineMode::kCorruptReplies &&
      (type == MsgType::kClientReply || type == MsgType::kServerPush) &&
      !body.empty()) {
    body[byz_rng_.below(body.size())] ^= 0x5a;
  }
  if (byzantine_ == ByzantineMode::kCorruptVotes) {
    engine_->corrupt_vote_for_test(type, body);
  }
  if (crashed_) return;
  Envelope env;
  env.type = type;
  env.sender = endpoint_;
  env.epoch = key_epoch_;
  env.body = std::move(body);
  env.mac = keys_.mac(
      endpoint_, to, key_epoch_,
      envelope_mac_pieces(type, endpoint_, to, key_epoch_, env.body));
  net_.send(endpoint_, to, env.encode());
}

void ReplicaCore::broadcast(MsgType type, const Bytes& body) {
  for (ReplicaId peer : group_.replica_ids()) {
    if (peer == id_) continue;
    send_envelope(crypto::replica_principal(peer), type, body);
  }
}

// --------------------------------------------------------------------------
// client requests

void ReplicaCore::handle_client_request(const Envelope& env,
                                        Prevalidated& pre) {
  // Decode and authenticator verification already ran when the message
  // came through prevalidate(); the fallback covers everything else.
  ClientRequest req;
  bool auth_ok;
  if (pre.request.has_value()) {
    auth_ok = pre.request_auth_ok;
    req = std::move(*pre.request);
  } else {
    req = ClientRequest::decode(env.body);
    auth_ok = req.auth.size() == group_.n &&
              keys_.verify(crypto::client_principal(req.client), endpoint_,
                           req.encode_core(), req.auth[id_.value]);
  }
  // The envelope may come from the client itself or from a replica
  // forwarding a stalled request; either way the request's own
  // authenticator (below) is what proves the client issued it.
  if (env.sender != crypto::client_principal(req.client)) {
    bool from_replica = false;
    for (ReplicaId peer : group_.replica_ids()) {
      if (env.sender == crypto::replica_principal(peer)) {
        from_replica = true;
        break;
      }
    }
    if (!from_replica) return;
  }

  // This replica's entry in the request authenticator must verify, so that
  // a batch containing the request can be validated by every follower.
  if (!auth_ok) {
    ++stats_.auth_failures;
    return;
  }

  if (req.mode == RequestMode::kUnordered) {
    ++stats_.unordered_executed;
    ClientReply reply;
    reply.replica = id_;
    reply.client = req.client;
    reply.sequence = req.sequence;
    reply.cid = ConsensusId{0};
    reply.payload = app_.execute_unordered(req.client, req.payload);
    send_envelope(crypto::client_principal(req.client), MsgType::kClientReply,
                  reply.encode());
    return;
  }

  if (executed_.contains(req.client, req.sequence)) {
    // Retransmission of a completed request: resend the cached reply.
    resend_cached_reply(req.client, req.sequence);
    return;
  }

  enqueue_pending(std::move(req));
  engine_->on_request_ready();
}

void ReplicaCore::enqueue_pending(ClientRequest req) {
  auto& per_client = pending_index_[req.client.value];
  if (per_client.count(req.sequence.value) > 0) {
    // A retransmission of a request still pending. Its suspect timer fires
    // once; if that vote against the leader was lost, the client asking
    // again is what makes this replica suspect again.
    if (suspects_leader() &&
        !suspect_timers_.contains({req.client.value, req.sequence.value})) {
      arm_suspect_timer(req.client, req.sequence);
    }
    return;
  }
  if (per_client.size() >= opt_.max_pending_per_client) {
    ++stats_.requests_flood_dropped;
    return;  // flood protection; the client will retransmit
  }
  ClientId client = req.client;
  RequestId seq = req.sequence;
  pending_.push_back(std::move(req));
  per_client[seq.value] = std::prev(pending_.end());
  if (suspects_leader()) arm_suspect_timer(client, seq);
}

bool ReplicaCore::suspects_leader() const {
  return !is_leader() || engine_->leader_self_suspects();
}

void ReplicaCore::erase_pending(ClientId client, RequestId seq) {
  auto cit = pending_index_.find(client.value);
  if (cit == pending_index_.end()) return;
  auto rit = cit->second.find(seq.value);
  if (rit == cit->second.end()) return;
  pending_.erase(rit->second);
  cit->second.erase(rit);
  if (cit->second.empty()) pending_index_.erase(cit);
  auto tit = suspect_timers_.find({client.value, seq.value});
  if (tit != suspect_timers_.end()) {
    tit->second.cancel();
    suspect_timers_.erase(tit);
  }
}

void ReplicaCore::arm_suspect_timer(ClientId client, RequestId seq) {
  PendingKey key{client.value, seq.value};
  RequestTimers& timers = suspect_timers_[key];

  auto still_pending = [this, client, seq] {
    if (crashed_ || executed_.contains(client, seq)) return false;
    auto cit = pending_index_.find(client.value);
    return cit != pending_index_.end() && cit->second.count(seq.value) > 0;
  };

  // Phase 1 (request_timeout/2): the leader may never have received the
  // request — forward it before blaming anyone (PBFT-style).
  if (opt_.forward_to_leader) {
    timers.forward = net_.schedule(
        skewed(opt_.request_timeout / 2), [this, client, seq, still_pending] {
          if (!still_pending() || is_leader()) return;
          auto cit = pending_index_.find(client.value);
          auto rit = cit->second.find(seq.value);
          ++stats_.requests_forwarded;
          send_envelope(crypto::replica_principal(engine_->current_leader()),
                        MsgType::kClientRequest, rit->second->encode());
        });
  }

  // Phase 2 (request_timeout): the leader had its chance; vote it out. Both
  // timers have fired by now, so the entry goes first (a view change below
  // may re-arm it): a retransmission finds no entry and arms a new round.
  timers.suspect =
      net_.schedule(skewed(opt_.request_timeout), [this, key, client, seq,
                                                  still_pending] {
        suspect_timers_.erase(key);
        if (!still_pending()) return;
        SS_LOG(LogLevel::kInfo, net_.now(), endpoint_.c_str(),
               "request (%u,%lu) not ordered in time; suspecting leader %u",
               client.value, static_cast<unsigned long>(seq.value),
               engine_->current_leader().value);
        engine_->suspect_leader();
      });
}

void ReplicaCore::rearm_suspect_timers() {
  for (const ClientRequest& req : pending_) {
    PendingKey key{req.client.value, req.sequence.value};
    auto tit = suspect_timers_.find(key);
    if (tit != suspect_timers_.end()) tit->second.cancel();
    suspect_timers_.erase(key);
    arm_suspect_timer(req.client, req.sequence);
  }
}

// --------------------------------------------------------------------------
// execution

Batch ReplicaCore::make_batch() {
  Batch batch;
  batch.timestamp = std::max(last_timestamp_ + 1, net_.now());
  for (const ClientRequest& req : pending_) {
    if (batch.requests.size() >= opt_.max_batch) break;
    batch.requests.push_back(req);
  }
  return batch;
}

void ReplicaCore::execute_batch(ConsensusId cid, const Batch& batch) {
  std::uint32_t order = 0;
  for (const ClientRequest& req : batch.requests) {
    erase_pending(req.client, req.sequence);
    if (executed_.contains(req.client, req.sequence)) {
      ++stats_.requests_deduped;
      ++order;
      continue;
    }
    ExecuteContext ctx;
    ctx.cid = cid;
    ctx.order = order++;
    ctx.timestamp = batch.timestamp;
    ctx.client = req.client;
    ctx.request = req.sequence;

    Bytes result = app_.execute_ordered(ctx, req.payload);
    executed_.insert(req.client, req.sequence);
    ++stats_.requests_executed;

    ClientReply reply;
    reply.replica = id_;
    reply.client = req.client;
    reply.sequence = req.sequence;
    reply.cid = cid;
    reply.payload = result;
    auto& cache = reply_cache_[req.client.value];
    cache[req.sequence.value] = CachedReply{cid, std::move(result)};
    while (cache.size() > 256) cache.erase(cache.begin());
    send_envelope(crypto::client_principal(req.client), MsgType::kClientReply,
                  reply.encode());
  }
}

void ReplicaCore::resend_cached_reply(ClientId client, RequestId seq) {
  auto cit = reply_cache_.find(client.value);
  if (cit == reply_cache_.end()) return;
  auto rit = cit->second.find(seq.value);
  if (rit == cit->second.end()) return;
  ClientReply reply;
  reply.replica = id_;
  reply.client = client;
  reply.sequence = seq;
  reply.cid = rit->second.cid;
  reply.payload = rit->second.payload;
  send_envelope(crypto::client_principal(client), MsgType::kClientReply,
                reply.encode());
}

void ReplicaCore::push_to_client(ClientId client, Bytes payload) {
  ServerPush push;
  push.replica = id_;
  push.client = client;
  // Monotonic per-replica sequence (shared across clients; gaps are fine).
  // The client-side PushVoter uses it to reject replayed captures. The
  // low-order counter is per-process, so a reincarnated replica starts it
  // over — folding the key epoch into the high bits keeps the composite
  // sequence monotone across reboots. Without it, a rebooted replica's
  // pushes read as replays at the voter until the counter re-passes its
  // pre-reboot frontier, and with rolling proactive recovery enough
  // replicas are muted at once to starve the f+1 vote quorum.
  push.seq = (static_cast<std::uint64_t>(key_epoch_) << 32) | next_push_seq_++;
  push.payload = std::move(payload);
  ++stats_.pushes_sent;
  send_envelope(crypto::client_principal(client), MsgType::kServerPush,
                push.encode());
}

// --------------------------------------------------------------------------
// checkpoints & state transfer

/// Replica-level recovery state (dedup table + reply cache) bundled with
/// the application snapshot, so a restored replica neither re-executes
/// requests nor goes mute toward retransmitting clients.
Pieces ReplicaCore::full_snapshot_pieces() const {
  Pieces app = recoverable_.state_pieces();
  Pieces out(16);
  out.writer().varint(app.size());  // the app snapshot's blob length prefix
  out.append(std::move(app));

  Writer& w = out.writer();
  executed_.encode(w);

  w.varint(reply_cache_.size());
  for (const auto& [client, replies] : reply_cache_) {
    w.varint(client);
    w.varint(replies.size());
    for (const auto& [seq, cached] : replies) {
      w.varint(seq);
      w.id(cached.cid);
      w.blob(cached.payload);
    }
  }
  return out;
}

Bytes ReplicaCore::full_snapshot() const {
  Pieces pieces = full_snapshot_pieces();
  Writer w(pieces.size());
  pieces.write_to(w);
  return std::move(w).take();
}

void ReplicaCore::apply_full_snapshot(ByteView data) {
  Reader r(data);
  ByteView app_snapshot = r.blob_view();

  DedupTable executed = DedupTable::decode(r);

  std::map<std::uint64_t, std::map<std::uint64_t, CachedReply>> replies;
  std::uint64_t ncache = r.varint();
  for (std::uint64_t i = 0; i < ncache; ++i) {
    std::uint64_t client = r.varint();
    std::uint64_t nreplies = r.varint();
    auto& per_client = replies[client];
    for (std::uint64_t j = 0; j < nreplies; ++j) {
      std::uint64_t seq = r.varint();
      CachedReply cached;
      cached.cid = r.id<ConsensusId>();
      cached.payload = r.blob();
      per_client[seq] = std::move(cached);
    }
  }
  r.expect_done();

  // Only commit once everything decoded (basic exception safety).
  recoverable_.restore(app_snapshot);
  executed_ = std::move(executed);
  reply_cache_ = std::move(replies);
}

void ReplicaCore::maybe_checkpoint() {
  if (opt_.checkpoint_interval == 0) return;
  if (last_decided_.value % opt_.checkpoint_interval != 0) return;
  checkpoint_digest_ = recoverable_.state_digest();
  checkpoint_cid_ = last_decided_;
  ++stats_.checkpoints;
  write_storage_checkpoint();
}

void ReplicaCore::checkpoint_now() {
  checkpoint_digest_ = recoverable_.state_digest();
  checkpoint_cid_ = last_decided_;
  ++stats_.checkpoints;
  write_storage_checkpoint();
}

void ReplicaCore::write_storage_checkpoint() {
  if (storage_ == nullptr || !checkpoint_digest_.has_value()) return;
  storage::CheckpointMeta meta;
  meta.cid = checkpoint_cid_;
  meta.last_timestamp = last_timestamp_;
  meta.app_digest = *checkpoint_digest_;
  storage_->write_checkpoint(meta, full_snapshot_pieces());
}

void ReplicaCore::request_state_now() {
  if (transferring_) return;
  transferring_ = true;
  state_replies_.clear();
  state_current_votes_.clear();
  StateRequest req{id_, last_decided_};
  broadcast(MsgType::kStateRequest, req.encode());
  net_.schedule(skewed(state_rto_.delay(state_retry_level_)), [this] {
    if (crashed_ || !transferring_) return;
    ++state_retry_level_;
    transferring_ = false;
    request_state_now();  // retry, backed off
  });
}

void ReplicaCore::maybe_request_state(ConsensusId evidence_cid) {
  if (evidence_cid.value < last_decided_.value + opt_.state_gap_threshold) {
    return;
  }
  request_state_now();
}

void ReplicaCore::note_progress_evidence(ConsensusId cid) {
  if (cid.value <= last_decided_.value) return;
  if (cid.value >= last_decided_.value + opt_.state_gap_threshold) {
    request_state_now();
    return;
  }
  // Small gap: peers are working on an instance we haven't decided. Usually
  // normal for a moment (cid == next is the live case — we decide it from
  // the same vote stream), so only transfer if the gap persists for a full
  // request timeout. The undecided-next case matters too: a replica that
  // missed the PROPOSE (lossy link, or votes dropped while a view change it
  // hadn't adopted yet was in flight) holds quorum votes it can never act
  // on, and if that instance is the last before a quiet period nothing else
  // would ever close the gap.
  if (cid.value > stall_target_) stall_target_ = cid.value;
  if (!stall_check_armed_) arm_stall_check(stall_target_);
}

void ReplicaCore::arm_stall_check(std::uint64_t target) {
  stall_check_armed_ = true;
  net_.schedule(skewed(opt_.request_timeout), [this, target] {
    stall_check_armed_ = false;
    if (crashed_) return;
    if (last_decided_.value < target) {
      request_state_now();
    } else if (last_decided_.value < stall_target_) {
      // Evidence for a later instance arrived while this check was armed;
      // it never got its own timer, so give it one — a one-shot check here
      // would go blind if that evidence was the last message before quiet.
      arm_stall_check(stall_target_);
    }
  });
}

void ReplicaCore::handle_state_request(const StateRequest& req) {
  if (req.requester == id_ || req.requester.value >= group_.n) return;
  send_envelope(crypto::replica_principal(req.requester), MsgType::kStateReply,
                encode_state_reply(id_, last_decided_, last_timestamp_,
                                   full_snapshot_pieces()));
}

void ReplicaCore::handle_state_reply(const StateReplyView& rep, Bytes body) {
  if (!transferring_) return;
  if (rep.replica.value >= group_.n) return;
  if (rep.cid.value <= last_decided_.value) {
    // f+1 peers say we are already current: end the transfer instead of
    // re-requesting forever.
    state_current_votes_.insert(rep.replica.value);
    if (state_current_votes_.size() >= group_.reply_quorum()) {
      transferring_ = false;
      state_retry_level_ = 0;
      state_replies_.clear();
      state_current_votes_.clear();
      note_rejoin_complete();
    }
    return;
  }
  // The reply replaces the peer's previous one, so a peer that answers
  // with many cids holds one snapshot here, not one per cid. Its digest is
  // taken once, hashing the snapshot where it lies in the body.
  HeldStateReply& held = state_replies_[rep.replica.value];
  held.digest = rep.digest();
  held.body = std::move(body);

  // f+1 replies with identical (cid, timestamp, snapshot) digests ensure at
  // least one is from a correct replica. Only the reply just held can have
  // completed a quorum.
  std::uint32_t matching = 0;
  for (const auto& [peer, other] : state_replies_) {
    if (other.digest == held.digest) ++matching;
  }
  if (matching < group_.reply_quorum()) return;

  const ConsensusId cid = rep.cid;
  const SimTime timestamp = rep.last_timestamp;
  {
    // Apply from the reply just held, every other dropped first, so the
    // state is held at most once more while the snapshot is restored.
    const Bytes winner = std::move(held.body);
    state_replies_.clear();
    try {
      apply_full_snapshot(StateReplyView::decode(winner).snapshot);
    } catch (const DecodeError&) {
      return;  // malformed despite quorum: keep waiting
    }
  }
  last_decided_ = cid;
  last_timestamp_ = timestamp;
  engine_->on_state_transfer_applied();
  transferring_ = false;
  state_retry_level_ = 0;
  ++stats_.state_transfers;
  note_rejoin_complete();
  if (storage_ != nullptr) {
    // The frontier just jumped past decisions this replica never logged.
    // Persist the transferred state as a checkpoint immediately (which
    // also truncates the now-stale WAL prefix) so the on-disk WAL never
    // has a seq gap below the checkpoint it would replay against.
    checkpoint_digest_ = recoverable_.state_digest();
    checkpoint_cid_ = last_decided_;
    write_storage_checkpoint();
  }
  SS_LOG(LogLevel::kInfo, net_.now(), endpoint_.c_str(),
         "state transfer complete at cid=%lu",
         static_cast<unsigned long>(last_decided_.value));
  // Drop pending requests that the snapshot already covers.
  for (auto it = pending_.begin(); it != pending_.end();) {
    if (executed_.contains(it->client, it->sequence)) {
      ClientId c = it->client;
      RequestId s = it->sequence;
      ++it;
      erase_pending(c, s);
    } else {
      ++it;
    }
  }
  engine_->on_request_ready();
}

// --------------------------------------------------------------------------
// crash / recovery

void ReplicaCore::crash() {
  crashed_ = true;
  net_.detach(endpoint_);
  for (auto& [key, timers] : suspect_timers_) timers.cancel();
  suspect_timers_.clear();
  pending_.clear();
  pending_index_.clear();
  engine_->on_crash();
  transferring_ = false;
}

void ReplicaCore::recover() {
  crashed_ = false;
  net_.attach(endpoint_, [this](net::Message m) { on_message(std::move(m)); });
  rejoin_started_ = net_.now();
  transferring_ = true;
  state_replies_.clear();
  StateRequest req{id_, last_decided_};
  broadcast(MsgType::kStateRequest, req.encode());
}

bool ReplicaCore::accept_sender_epoch(const std::string& sender,
                                      std::uint32_t epoch) {
  PeerEpoch& pe = peer_epochs_[sender];
  if (epoch == pe.current) return true;
  if (epoch > pe.current) {
    // The peer reincarnated (deriving a fresher epoch needs the group
    // secret, so this is not forgeable with stolen session keys). Honour
    // its previous epoch for the handover window: in-flight messages MAC'd
    // before the reboot are still legitimate for that long.
    pe.current = epoch;
    pe.prev_expiry = net_.now() + opt_.epoch_handover_window;
    return true;
  }
  return epoch + 1 == pe.current && net_.now() < pe.prev_expiry;
}

void ReplicaCore::note_rejoin_complete() {
  if (!rejoin_started_.has_value()) return;
  obs::Registry::instance()
      .histogram("bft.recovery_ns")
      .record(static_cast<std::int64_t>(net_.now() - *rejoin_started_));
  rejoin_started_.reset();
}

// --------------------------------------------------------------------------
// durable recovery

void ReplicaCore::recover_from_storage() {
  if (storage_ == nullptr) return;
  auto wall_start = std::chrono::steady_clock::now();
  bool restored_checkpoint = false;
  std::uint64_t replayed = 0;

  if (std::optional<storage::Checkpoint> ckpt = storage_->load_checkpoint()) {
    try {
      apply_full_snapshot(ckpt->full_snapshot);
      last_decided_ = ckpt->cid;
      last_timestamp_ = ckpt->last_timestamp;
      checkpoint_digest_ = ckpt->app_digest;
      checkpoint_cid_ = ckpt->cid;
      restored_checkpoint = true;
    } catch (const DecodeError&) {
      // The checkpoint file passed its CRC but its content does not decode
      // (e.g. written by an incompatible build). Recover from genesis + WAL.
      SS_LOG(LogLevel::kWarn, net_.now(), endpoint_.c_str(),
             "checkpoint snapshot undecodable; recovering from WAL only");
    }
  }

  // The records are handed over, not copied: maybe_checkpoint() inside the
  // loop may write a durable checkpoint and truncate the WAL file, which
  // leaves this vector as it is.
  const std::vector<storage::Wal::Record> records =
      storage_->take_wal_records();
  replaying_ = true;
  for (const storage::Wal::Record& rec : records) {
    if (rec.seq <= last_decided_.value) continue;  // covered by checkpoint
    if (rec.seq != last_decided_.value + 1) {
      // A seq gap can only mean records below a checkpoint outlived it
      // (which write_checkpoint prevents) — stop rather than execute out of
      // order; state transfer will fill in the rest.
      SS_LOG(LogLevel::kWarn, net_.now(), endpoint_.c_str(),
             "wal replay: seq gap at %lu (frontier %lu); stopping replay",
             static_cast<unsigned long>(rec.seq),
             static_cast<unsigned long>(last_decided_.value));
      break;
    }
    Batch batch;
    try {
      batch = Batch::decode(rec.payload);
    } catch (const DecodeError&) {
      SS_LOG(LogLevel::kWarn, net_.now(), endpoint_.c_str(),
             "wal replay: undecodable batch at seq %lu; stopping replay",
             static_cast<unsigned long>(rec.seq));
      break;
    }
    ConsensusId cid{rec.seq};
    last_decided_ = cid;
    execute_batch(cid, batch);
    last_timestamp_ = batch.timestamp;
    maybe_checkpoint();
    ++replayed;
  }
  replaying_ = false;

  if (restored_checkpoint || replayed > 0) {
    auto duration_ns = static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - wall_start)
            .count());
    storage_->note_recovery(duration_ns, replayed);
    SS_LOG(LogLevel::kInfo, net_.now(), endpoint_.c_str(),
           "recovered from storage: checkpoint=%s cid=%lu wal_replayed=%lu",
           restored_checkpoint ? "yes" : "no",
           static_cast<unsigned long>(last_decided_.value),
           static_cast<unsigned long>(replayed));
  }
}

void ReplicaCore::reboot(ByteView genesis_full_snapshot) {
  if (!crashed_) crash();

  // Back to constructed defaults, as a real process restart would be. The
  // stats_ counters deliberately survive: they are observational, and the
  // chaos engine's reports aggregate them across the whole run. The
  // engine's trusted-component state (MinBFT's USIG counter) also survives
  // — by design, a trusted counter never moves backwards.
  engine_->reset();
  last_decided_ = ConsensusId{0};
  last_timestamp_ = 0;
  pending_.clear();
  pending_index_.clear();
  executed_.clear();
  reply_cache_.clear();
  stall_check_armed_ = false;
  for (auto& [key, timers] : suspect_timers_) timers.cancel();
  suspect_timers_.clear();
  transferring_ = false;
  state_replies_.clear();
  state_current_votes_.clear();
  checkpoint_digest_.reset();
  checkpoint_cid_ = ConsensusId{0};
  next_push_seq_ = 1;
  byzantine_ = ByzantineMode::kNone;  // byzantine behaviour is in-memory
  peer_epochs_.clear();

  // A reincarnated replica derives fresh session keys: bump the key epoch
  // (durably, when storage is attached) so anything signed with the
  // pre-reboot keys ages out once the peers' handover windows close.
  // key_epoch_ itself is deliberately NOT reset above — it must only ever
  // move forward.
  key_epoch_ = storage_ != nullptr ? storage_->bump_epoch() : key_epoch_ + 1;

  // The app object is shared with the "process", so put it back to what a
  // fresh main() would construct before recovery layers anything on top.
  if (!genesis_full_snapshot.empty()) {
    apply_full_snapshot(genesis_full_snapshot);
  }

  recover_from_storage();

  crashed_ = false;
  net_.attach(endpoint_, [this](net::Message m) { on_message(std::move(m)); });
  rejoin_started_ = net_.now();
  // Disk brings us to the last durable frontier; peers supply whatever was
  // decided while we were down (bounded by what the WAL+checkpoint cover).
  request_state_now();
}

}  // namespace ss::bft
