#include "bft/engine_pbft.h"

#include <algorithm>
#include <functional>
#include <utility>

#include "common/logging.h"

namespace ss::bft {

PbftEngine::PbftEngine(EngineHost& host, const GroupConfig& group,
                       ReplicaId id, const crypto::Keychain& keys)
    : host_(host),
      group_(group),
      id_(id),
      endpoint_(crypto::replica_principal(id)),
      keys_(keys) {}

// --------------------------------------------------------------------------
// the pure step

void PbftEngine::prevalidate(const Envelope& env,
                             EnginePrevalidated& pre) const {
  // The pure step: everything it reads (endpoint_, keys_, group_, id_) is
  // immutable for the engine's lifetime, and every operation (decode, HMAC,
  // SHA-256) is a pure function of its inputs.
  if (env.type != MsgType::kPropose) return;
  try {
    Propose p = Propose::decode(env.body);
    PrevalidatedPropose pp;
    pp.digest = crypto::Sha256::hash(p.batch);
    try {
      pp.batch.batch = Batch::decode(p.batch);
      pp.batch.decoded = true;
      pp.batch.auth_ok = true;
      for (const ClientRequest& req : pp.batch.batch.requests) {
        if (req.auth.size() != group_.n ||
            !keys_.verify(crypto::client_principal(req.client), endpoint_,
                          req.encode_core(), req.auth[id_.value])) {
          pp.batch.auth_ok = false;
          break;
        }
      }
    } catch (const DecodeError&) {
    }
    pre.propose_pre = std::move(pp);
    pre.propose = std::move(p);
  } catch (const DecodeError&) {
  }
}

// --------------------------------------------------------------------------
// stateful dispatch

void PbftEngine::on_message(const Envelope& env, EnginePrevalidated& pre) {
  switch (env.type) {
    case MsgType::kPropose: {
      Propose p = pre.propose.has_value() ? std::move(*pre.propose)
                                          : Propose::decode(env.body);
      // The envelope sender must be the leader the message claims.
      if (env.sender != crypto::replica_principal(p.leader)) return;
      if (group_.leader_for(p.regency) != p.leader) return;
      handle_propose(std::move(p), /*from_sync=*/false,
                     std::move(pre.propose_pre));
      break;
    }
    case MsgType::kWrite: {
      PhaseVote v = PhaseVote::decode(env.body);
      if (env.sender != crypto::replica_principal(v.voter)) return;
      handle_write(v);
      break;
    }
    case MsgType::kAccept: {
      PhaseVote v = PhaseVote::decode(env.body);
      if (env.sender != crypto::replica_principal(v.voter)) return;
      handle_accept(v);
      break;
    }
    case MsgType::kStop: {
      Stop s = Stop::decode(env.body);
      if (env.sender != crypto::replica_principal(s.sender)) return;
      handle_stop(s);
      break;
    }
    case MsgType::kStopData: {
      StopData sd = StopData::decode(env.body);
      if (env.sender != crypto::replica_principal(sd.sender)) return;
      handle_stop_data(sd);
      break;
    }
    case MsgType::kSync: {
      Sync s = Sync::decode(env.body);
      if (env.sender != crypto::replica_principal(s.leader)) return;
      handle_sync(s);
      break;
    }
    default:
      break;  // not a PBFT engine message
  }
}

void PbftEngine::corrupt_vote_for_test(MsgType type, Bytes& body) const {
  if (type != MsgType::kWrite && type != MsgType::kAccept) return;
  PhaseVote v = PhaseVote::decode(body);
  v.value[0] ^= 0xff;
  body = v.encode();
}

// --------------------------------------------------------------------------
// consensus: normal case

void PbftEngine::maybe_propose() {
  if (host_.crashed() || !is_leader() || !sync_done_for_regency_) return;
  if (host_.pending_empty()) return;
  std::uint64_t next = host_.last_decided().value + 1;
  auto it = instances_.find(next);
  if (it != instances_.end() && it->second.proposal.has_value()) return;

  Batch batch = host_.make_batch();
  Propose p;
  p.cid = ConsensusId{next};
  p.regency = regency_;
  p.leader = id_;
  p.batch = batch.encode();
  ++host_.mutable_stats().proposals_sent;

  if (host_.byzantine() == ByzantineMode::kEquivocate) {
    // Send a conflicting batch (different timestamp => different digest) to
    // half of the peers. Correct replicas cannot gather a WRITE quorum on
    // either value; the suspect timers then vote the leader out.
    Batch other = batch;
    other.timestamp += 1;
    Propose p2 = p;
    p2.batch = other.encode();
    bool flip = false;
    for (ReplicaId peer : group_.replica_ids()) {
      if (peer == id_) continue;
      const Propose& chosen = flip ? p2 : p;
      host_.send_to_replica(peer, MsgType::kPropose, chosen.encode());
      flip = !flip;
    }
    // The equivocating leader does not vote itself, so neither value can
    // reach a WRITE quorum and the correct replicas vote the leader out.
    return;
  }
  host_.broadcast_replicas(MsgType::kPropose, p.encode());
  handle_propose(std::move(p), /*from_sync=*/false);
}

bool PbftEngine::validate_proposal(Instance& inst, Batch& out_batch) {
  if (inst.prevalidated.has_value()) {
    // prevalidate() already decoded the batch and checked every request
    // authenticator; only the state-dependent checks remain.
    PrevalidatedBatch pre = std::move(*inst.prevalidated);
    inst.prevalidated.reset();
    if (!pre.decoded || !pre.auth_ok) return false;
    out_batch = std::move(pre.batch);
    if (out_batch.timestamp <= host_.last_timestamp()) return false;
    if (out_batch.requests.empty()) return false;
    return true;
  }
  const Propose& p = *inst.proposal;
  try {
    out_batch = Batch::decode(p.batch);
  } catch (const DecodeError&) {
    return false;
  }
  if (out_batch.timestamp <= host_.last_timestamp()) return false;
  if (out_batch.requests.empty()) return false;
  for (const ClientRequest& req : out_batch.requests) {
    if (req.auth.size() != group_.n) return false;
    if (!keys_.verify(crypto::client_principal(req.client), endpoint_,
                      req.encode_core(), req.auth[id_.value])) {
      return false;
    }
  }
  return true;
}

void PbftEngine::handle_propose(Propose p, bool from_sync,
                                std::optional<PrevalidatedPropose> pre) {
  (void)from_sync;
  if (p.regency > regency_) note_regency_evidence(p.leader, p.regency);
  // Progress evidence counts even when the regency doesn't match ours yet:
  // a replica that rejoins while a view change is in flight drops every
  // vote of the new regency until it has adopted it, and if the instance
  // those votes decide is the last one before a quiet period, nothing else
  // would ever tell the replica it fell behind.
  host_.note_progress_evidence(p.cid);
  if (p.regency != regency_) return;
  if (p.cid.value <= host_.last_decided().value) return;

  Instance& inst = instances_[p.cid.value];
  crypto::Digest digest =
      pre.has_value() ? pre->digest : crypto::Sha256::hash(p.batch);
  if (inst.proposal.has_value()) {
    if (inst.digest != digest) {
      // Equivocation: the leader sent conflicting proposals for one
      // instance. That is proof of a Byzantine leader.
      SS_LOG(LogLevel::kWarn, host_.now(), endpoint_.c_str(),
             "conflicting proposals for cid=%lu; suspecting leader",
             static_cast<unsigned long>(p.cid.value));
      suspect_leader();
    }
    return;
  }
  inst.proposal = std::move(p);
  inst.digest = digest;
  if (pre.has_value()) inst.prevalidated = std::move(pre->batch);
  try_decide();
}

std::uint32_t PbftEngine::matching_votes(
    const std::map<ReplicaId, crypto::Digest>& votes,
    const crypto::Digest& value) const {
  std::uint32_t count = 0;
  for (const auto& [voter, digest] : votes) {
    if (digest == value) ++count;
  }
  return count;
}

void PbftEngine::handle_write(const PhaseVote& v) {
  if (v.voter.value >= group_.n) return;
  if (v.regency > regency_) note_regency_evidence(v.voter, v.regency);
  host_.note_progress_evidence(v.cid);  // even under an unadopted regency
  if (v.regency != regency_ || v.cid.value <= host_.last_decided().value) {
    return;
  }
  instances_[v.cid.value].writes[v.voter] = v.value;
  try_decide();
}

void PbftEngine::handle_accept(const PhaseVote& v) {
  if (v.voter.value >= group_.n) return;
  if (v.regency > regency_) note_regency_evidence(v.voter, v.regency);
  host_.note_progress_evidence(v.cid);  // even under an unadopted regency
  if (v.regency != regency_ || v.cid.value <= host_.last_decided().value) {
    return;
  }
  instances_[v.cid.value].accepts[v.voter] = v.value;
  try_decide();
}

void PbftEngine::try_decide() {
  for (;;) {
    std::uint64_t next = host_.last_decided().value + 1;
    auto it = instances_.find(next);
    if (it == instances_.end()) return;
    Instance& inst = it->second;
    if (!inst.proposal.has_value()) return;

    if (!inst.write_sent) {
      Batch batch;
      if (!validate_proposal(inst, batch)) {
        SS_LOG(LogLevel::kWarn, host_.now(), endpoint_.c_str(),
               "invalid proposal for cid=%lu; suspecting leader",
               static_cast<unsigned long>(next));
        instances_.erase(it);
        suspect_leader();
        return;
      }
      inst.write_sent = true;
      inst.writes[id_] = inst.digest;
      PhaseVote v{ConsensusId{next}, regency_, id_, inst.digest};
      host_.broadcast_replicas(MsgType::kWrite, v.encode());
    }

    if (!inst.accept_sent &&
        matching_votes(inst.writes, inst.digest) >= group_.quorum()) {
      inst.accept_sent = true;
      inst.accepts[id_] = inst.digest;
      PhaseVote v{ConsensusId{next}, regency_, id_, inst.digest};
      host_.broadcast_replicas(MsgType::kAccept, v.encode());
    }

    if (matching_votes(inst.accepts, inst.digest) < group_.quorum()) return;

    // Decided. Keep the decided value as the retained write-set: deciding
    // consumes the instance, but if the other accept-voters go quiet before
    // anyone else decides, this replica's STOP_DATA is the only surviving
    // certificate for the value — a fresh proposal at this cid would fork
    // the history.
    Batch batch = Batch::decode(inst.proposal->batch);
    crypto::Digest decided_digest = inst.digest;
    ConsensusId cid{next};
    // Write-ahead: the decision must be durable before any of its effects
    // (execution, replies, checkpoint) become visible, or a crash here
    // would leave the replica having acted on a decision it cannot replay.
    host_.append_decision(cid, inst.proposal->batch);
    Bytes decided_proposal = std::move(inst.proposal->batch);
    instances_.erase(it);
    retained_writeset_ = RetainedWriteset{cid, regency_, decided_digest,
                                          std::move(decided_proposal)};
    host_.commit(cid, batch, decided_digest);
    maybe_propose();
  }
}

// --------------------------------------------------------------------------
// view change (Mod-SMaRt synchronization phase)

void PbftEngine::suspect_leader() { send_stop(regency_ + 1); }

void PbftEngine::note_regency_evidence(ReplicaId sender,
                                       std::uint64_t regency) {
  if (regency <= regency_ || sender.value >= group_.n) return;
  auto& recorded = regency_evidence_[sender.value];
  if (regency <= recorded) return;
  recorded = regency;

  // Adopt the largest regency that f+1 distinct peers are operating in —
  // at least one of them is correct, so that regency was really installed.
  std::vector<std::uint64_t> observed;
  observed.reserve(regency_evidence_.size());
  for (const auto& [peer, r] : regency_evidence_) observed.push_back(r);
  std::sort(observed.begin(), observed.end(), std::greater<>());
  if (observed.size() < group_.f + 1) return;
  std::uint64_t adopt = observed[group_.f];
  if (adopt <= regency_) return;

  SS_LOG(LogLevel::kInfo, host_.now(), endpoint_.c_str(),
         "adopting regency %lu from peer evidence (was %lu)",
         static_cast<unsigned long>(adopt),
         static_cast<unsigned long>(regency_));
  refresh_retained_writeset();
  regency_ = adopt;
  ++host_.mutable_stats().view_changes;
  instances_.clear();
  sync_done_for_regency_ = true;
  for (auto it = regency_evidence_.begin(); it != regency_evidence_.end();) {
    if (it->second <= adopt) {
      it = regency_evidence_.erase(it);
    } else {
      ++it;
    }
  }
  maybe_propose();
}

void PbftEngine::send_stop(std::uint64_t regency) {
  if (regency <= regency_ || highest_stop_sent_ > regency) return;
  // Re-broadcasting an already-sent STOP is deliberate: STOPs can be lost
  // on lossy links, and peers stuck below the install quorum have no other
  // way to learn of this replica's vote. A request's suspect timer fires
  // once, and a client's retransmission of the still-pending request arms
  // it again (ReplicaCore::enqueue_pending), so the vote recurs for as long
  // as the client keeps asking.
  highest_stop_sent_ = regency;
  Stop s{regency, id_};
  host_.broadcast_replicas(MsgType::kStop, s.encode());
  handle_stop(s);  // record own vote (deduplicated by sender regency)
}

void PbftEngine::handle_stop(const Stop& s) {
  if (s.regency <= regency_) return;
  if (s.sender.value >= group_.n) return;
  auto& recorded = stop_regency_from_[s.sender.value];
  if (s.regency <= recorded) return;
  recorded = s.regency;

  // A STOP for regency r supports every target <= r. The largest target
  // supported by f+1 peers is joined; by 2f+1 peers it is installed.
  std::vector<std::uint64_t> supported;
  supported.reserve(stop_regency_from_.size());
  for (const auto& [sender, regency] : stop_regency_from_) {
    supported.push_back(regency);
  }
  std::sort(supported.begin(), supported.end(), std::greater<>());

  if (supported.size() >= group_.f + 1) {
    std::uint64_t join_target = supported[group_.f];
    if (join_target > regency_) send_stop(join_target);
  }
  if (supported.size() >= group_.sync_quorum()) {
    std::uint64_t install_target = supported[group_.sync_quorum() - 1];
    if (install_target > regency_) install_regency(install_target);
  }
}

void PbftEngine::install_regency(std::uint64_t regency) {
  if (regency <= regency_) return;

  // Capture (and retain across regencies) write-set evidence for the open
  // instance before wiping it: a value that may have been decided somewhere
  // must be re-reported in every synchronization phase until it decides
  // here too — otherwise a second view change forgets it and a conflicting
  // value could be ordered for the same instance.
  refresh_retained_writeset();

  StopData sd;
  sd.regency = regency;
  sd.sender = id_;
  sd.last_decided = host_.last_decided();
  if (retained_writeset_.has_value() &&
      (retained_writeset_->cid.value == host_.last_decided().value + 1 ||
       retained_writeset_->cid.value == host_.last_decided().value)) {
    sd.has_writeset = true;
    sd.writeset_cid = retained_writeset_->cid;
    sd.writeset_regency = retained_writeset_->regency;
    sd.writeset_digest = retained_writeset_->digest;
    sd.writeset_proposal = retained_writeset_->proposal;
  }

  regency_ = regency;
  ++host_.mutable_stats().view_changes;
  instances_.clear();
  // Votes up to the installed regency are consumed; higher ones remain
  // valid support for future view changes.
  for (auto vit = stop_regency_from_.begin();
       vit != stop_regency_from_.end();) {
    if (vit->second <= regency) {
      vit = stop_regency_from_.erase(vit);
    } else {
      ++vit;
    }
  }

  ReplicaId leader = group_.leader_for(regency_);
  SS_LOG(LogLevel::kInfo, host_.now(), endpoint_.c_str(),
         "installed regency %lu (leader %u)",
         static_cast<unsigned long>(regency), leader.value);

  if (leader == id_) {
    sync_done_for_regency_ = false;
    handle_stop_data(sd);  // record own evidence
    // If the STOP_DATA quorum never arrives (lossy links), step aside
    // rather than wedging the group under a silent leader.
    host_.schedule(host_.request_timeout(), [this, regency] {
      if (host_.crashed() || regency_ != regency || sync_done_for_regency_) {
        return;
      }
      SS_LOG(LogLevel::kInfo, host_.now(), endpoint_.c_str(),
             "sync phase for regency %lu stalled; stepping aside",
             static_cast<unsigned long>(regency));
      send_stop(regency + 1);
    });
  } else {
    sync_done_for_regency_ = true;
    host_.send_to_replica(leader, MsgType::kStopData, sd.encode());
    // Give the new leader a fresh chance before suspecting it too.
    host_.rearm_suspect_timers();
  }
}

void PbftEngine::refresh_retained_writeset() {
  if (retained_writeset_.has_value() &&
      retained_writeset_->cid.value < host_.last_decided().value) {
    // Stale: a later instance decided, so a quorum advanced past this cid
    // and its value is durable elsewhere. Evidence at exactly last_decided
    // is kept — it may be the only surviving certificate (see try_decide).
    retained_writeset_.reset();
  }
  std::uint64_t open = host_.last_decided().value + 1;
  auto it = instances_.find(open);
  if (it != instances_.end() && it->second.proposal.has_value() &&
      matching_votes(it->second.writes, it->second.digest) >=
          group_.quorum()) {
    // Fresh quorum evidence under the current regency supersedes whatever
    // was retained from earlier regencies.
    retained_writeset_ =
        RetainedWriteset{ConsensusId{open}, regency_, it->second.digest,
                         it->second.proposal->batch};
  }
}

void PbftEngine::handle_stop_data(const StopData& sd) {
  if (sd.regency != regency_ || group_.leader_for(regency_) != id_) return;
  if (sync_done_for_regency_) return;
  auto& collected = stop_data_[sd.regency];
  collected[sd.sender.value] = sd;
  if (collected.size() >= group_.sync_quorum()) {
    run_sync_decision(sd.regency);
  }
}

void PbftEngine::run_sync_decision(std::uint64_t regency) {
  if (regency != regency_ || sync_done_for_regency_) return;
  sync_done_for_regency_ = true;

  const auto& collected = stop_data_[regency];

  // The synchronization target is derived from the *reported* last-decided
  // cids, not this leader's own: a leader that fell behind would otherwise
  // aim the sync below the group's frontier, discard the write-set evidence
  // reported for the real open instance, and later re-propose a fresh batch
  // at a cid some replica already decided — forking the history. The
  // (f+1)-th highest report is certified by at least one correct replica
  // and cannot be inflated by the f faulty ones.
  std::vector<std::uint64_t> reported;
  reported.reserve(collected.size());
  for (const auto& [sender, sd] : collected) {
    reported.push_back(sd.last_decided.value);
  }
  std::sort(reported.begin(), reported.end(), std::greater<>());
  std::uint64_t certified = reported[group_.f];
  std::uint64_t max_reported = reported.front();
  std::uint64_t target_cid = certified + 1;

  // Among the reported write-sets for the target instance, a value with a
  // write quorum in a *later* regency supersedes earlier ones (only one
  // value can gain a write quorum per regency, and a later quorum implies
  // knowledge of any earlier possibly-decided value).
  const Bytes* chosen = nullptr;
  std::uint64_t best_regency = 0;
  crypto::Digest best_digest{};
  for (const auto& [sender, sd] : collected) {
    if (!sd.has_writeset || sd.writeset_cid.value != target_cid) continue;
    if (crypto::Sha256::hash(sd.writeset_proposal) != sd.writeset_digest) {
      continue;  // forged evidence
    }
    bool better = chosen == nullptr ||
                  sd.writeset_regency > best_regency ||
                  (sd.writeset_regency == best_regency &&
                   sd.writeset_digest < best_digest);
    if (better) {
      chosen = &sd.writeset_proposal;
      best_regency = sd.writeset_regency;
      best_digest = sd.writeset_digest;
    }
  }
  Bytes chosen_copy;
  if (chosen != nullptr) chosen_copy = *chosen;
  stop_data_.erase(regency);
  chosen = chosen != nullptr ? &chosen_copy : nullptr;

  if (chosen != nullptr) {
    Sync sync;
    sync.regency = regency;
    sync.leader = id_;
    sync.cid = ConsensusId{target_cid};
    sync.batch = *chosen;
    host_.broadcast_replicas(MsgType::kSync, sync.encode());
    Propose p{sync.cid, regency, id_, sync.batch};
    handle_propose(std::move(p), /*from_sync=*/true);
    // A behind leader can still pin the certified value for the group; it
    // catches its own state up in parallel so it can vote and execute.
    if (host_.last_decided().value + 1 < target_cid) {
      host_.request_state_transfer();
    }
  } else if (max_reported >= target_cid ||
             host_.last_decided().value + 1 < target_cid) {
    // Either some replica claims a decision at or past the target (a value
    // exists that this leader does not know — never propose fresh over it),
    // or this leader is behind the certified frontier. Catch up first;
    // proposals resume once state transfer completes.
    host_.request_state_transfer();
  } else {
    maybe_propose();
  }
}

void PbftEngine::handle_sync(const Sync& s) {
  if (group_.leader_for(s.regency) != s.leader) return;
  if (s.regency < regency_) return;
  if (s.regency > regency_) {
    // We missed the STOP quorum; adopt the new regency via the SYNC. Same
    // obligation as install_regency: write-set evidence for the open
    // instance must survive the wipe, or a later view change could order a
    // conflicting value for an instance that already decided elsewhere.
    refresh_retained_writeset();
    regency_ = s.regency;
    ++host_.mutable_stats().view_changes;
    instances_.clear();
    sync_done_for_regency_ = true;
  }
  Propose p{s.cid, s.regency, s.leader, s.batch};
  handle_propose(std::move(p), /*from_sync=*/true);
}

// --------------------------------------------------------------------------
// shell lifecycle hooks

void PbftEngine::on_state_transfer_applied() {
  retained_writeset_.reset();  // the open instance is now in the past
  // Keep instances buffered beyond the snapshot point: their proposals
  // and votes let us participate immediately instead of falling behind
  // again while traffic continues.
  for (auto it = instances_.begin(); it != instances_.end();) {
    if (it->first <= host_.last_decided().value) {
      it = instances_.erase(it);
    } else {
      ++it;
    }
  }
}

void PbftEngine::on_crash() { instances_.clear(); }

void PbftEngine::reset() {
  regency_ = 0;
  instances_.clear();
  retained_writeset_.reset();
  regency_evidence_.clear();
  highest_stop_sent_ = 0;
  stop_regency_from_.clear();
  stop_data_.clear();
  sync_done_for_regency_ = true;
}

}  // namespace ss::bft
