#include "bft/engine_minbft.h"

#include <algorithm>
#include <functional>
#include <utility>

#include "common/logging.h"

namespace ss::bft {

MinBftEngine::MinBftEngine(EngineHost& host, const GroupConfig& group,
                           ReplicaId id, const crypto::Keychain& keys)
    : host_(host),
      group_(group),
      id_(id),
      endpoint_(crypto::replica_principal(id)),
      keys_(keys),
      usig_(keys, id) {
  usig_.attach_persistence(host_.usig_stored_lease(), [this](
                                                          std::uint64_t lease) {
    host_.usig_persist_lease(lease);
  });
}

bool MinBftEngine::counter_fresh(std::map<std::uint32_t, std::uint64_t>& seen,
                                 ReplicaId sender, std::uint64_t counter) {
  std::uint64_t& last = seen[sender.value];
  if (counter <= last) return false;
  last = counter;
  return true;
}

// --------------------------------------------------------------------------
// the pure step

void MinBftEngine::prevalidate(const Envelope& env,
                               EnginePrevalidated& pre) const {
  // The pure step: everything it reads is immutable for the engine's
  // lifetime and every operation (decode, SHA-256, the cert's HMAC) is pure.
  // Counter *monotonicity* is mutable state and is checked later, in
  // handle_prepare.
  if (env.type != MsgType::kMbPrepare) return;
  try {
    MbPrepare p = MbPrepare::decode(env.body);
    PrevalidatedPropose pp;
    pp.digest = crypto::Sha256::hash(p.batch);
    pre.prepare_cert_ok = crypto::Usig::verify(
        keys_, p.leader, MbPrepare::material(p.view, p.cid, pp.digest),
        p.cert);
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
    pre.prepare_pre = std::move(pp);
    pre.prepare = std::move(p);
  } catch (const DecodeError&) {
  }
}

// --------------------------------------------------------------------------
// stateful dispatch

void MinBftEngine::on_message(const Envelope& env, EnginePrevalidated& pre) {
  switch (env.type) {
    case MsgType::kMbPrepare: {
      MbPrepare p = pre.prepare.has_value() ? std::move(*pre.prepare)
                                            : MbPrepare::decode(env.body);
      // The envelope sender must be the leader the message claims, and that
      // leader must actually lead the view it claims.
      if (env.sender != crypto::replica_principal(p.leader)) return;
      if (group_.leader_for(p.view) != p.leader) return;
      handle_prepare(std::move(p), /*own=*/false, std::move(pre.prepare_pre),
                     pre.prepare_cert_ok);
      break;
    }
    case MsgType::kMbCommit: {
      MbCommit c = MbCommit::decode(env.body);
      if (env.sender != crypto::replica_principal(c.replica)) return;
      handle_commit(c);
      break;
    }
    case MsgType::kMbViewChange: {
      MbViewChange vc = MbViewChange::decode(env.body);
      if (env.sender != crypto::replica_principal(vc.sender)) return;
      handle_viewchange(std::move(vc), /*own=*/false);
      break;
    }
    default:
      break;  // not a MinBFT engine message
  }
}

void MinBftEngine::corrupt_vote_for_test(MsgType type, Bytes& body) const {
  if (type != MsgType::kMbCommit) return;
  // Corrupt the counter certificate *after* the USIG sealed it — the shape
  // of vote corruption available to a compromised MinBFT replica, whose
  // application code can mangle bytes but cannot re-seal them. Receivers
  // drop the vote as a usig_rejection.
  MbCommit c = MbCommit::decode(body);
  c.cert.mac[0] ^= 0xff;
  body = c.encode();
}

// --------------------------------------------------------------------------
// consensus: normal case

void MinBftEngine::maybe_propose() {
  if (host_.crashed() || !is_leader() || !vc_done_for_view_) return;
  std::uint64_t next = host_.last_decided().value + 1;
  auto it = instances_.find(next);
  if (it != instances_.end() && it->second.prepare.has_value()) return;

  // A counter-certified COMMIT for the open instance pins this replica to
  // that value: the commit may have completed an f+1 quorum elsewhere, so a
  // leader holding one must re-propose the pinned value — proposing a fresh
  // batch over it would fork the decided history (the leader-side twin of
  // run_vc_decision's decided-entry rule).
  refresh_retained_prepare();
  if (retained_prepare_.has_value() && retained_prepare_->cid.value == next &&
      host_.byzantine() != ByzantineMode::kEquivocate) {
    MbPrepare p{view_, ConsensusId{next}, id_, retained_prepare_->batch, {}};
    p.cert = usig_.certify(
        MbPrepare::material(view_, p.cid, retained_prepare_->digest));
    ++host_.mutable_stats().proposals_sent;
    host_.broadcast_replicas(MsgType::kMbPrepare, p.encode());
    handle_prepare(std::move(p), /*own=*/true);
    return;
  }

  // A reported decision frontier past this replica means the open instance
  // may already hold a decided value we do not know — never propose a fresh
  // batch over it (see fresh_propose_floor_'s declaration).
  if (next <= fresh_propose_floor_) return;

  if (host_.pending_empty()) return;
  Batch batch = host_.make_batch();
  ConsensusId cid{next};
  ++host_.mutable_stats().proposals_sent;

  if (host_.byzantine() == ByzantineMode::kEquivocate) {
    // Send conflicting batches to the two halves of the group. The USIG
    // cannot certify both under one counter, so the two prepares carry
    // *distinct* valid certificates for one (view, cid) — exactly the
    // evidence correct replicas cross-check via the COMMIT's echoed
    // prepare certificate (equivocations_detected) before voting the
    // leader out. The equivocating leader withholds its own COMMIT, so
    // neither value can reach the f+1 quorum.
    Batch other = batch;
    other.timestamp += 1;
    MbPrepare p1{view_, cid, id_, batch.encode(), {}};
    p1.cert = usig_.certify(
        MbPrepare::material(view_, cid, crypto::Sha256::hash(p1.batch)));
    MbPrepare p2{view_, cid, id_, other.encode(), {}};
    p2.cert = usig_.certify(
        MbPrepare::material(view_, cid, crypto::Sha256::hash(p2.batch)));
    bool flip = false;
    for (ReplicaId peer : group_.replica_ids()) {
      if (peer == id_) continue;
      const MbPrepare& chosen = flip ? p2 : p1;
      host_.send_to_replica(peer, MsgType::kMbPrepare, chosen.encode());
      flip = !flip;
    }
    return;
  }

  MbPrepare p{view_, cid, id_, batch.encode(), {}};
  p.cert = usig_.certify(
      MbPrepare::material(view_, cid, crypto::Sha256::hash(p.batch)));
  host_.broadcast_replicas(MsgType::kMbPrepare, p.encode());
  handle_prepare(std::move(p), /*own=*/true);
}

void MinBftEngine::flag_equivocation(Instance& inst, ConsensusId cid) {
  if (inst.equivocation_flagged) return;
  inst.equivocation_flagged = true;
  ++host_.mutable_stats().equivocations_detected;
  SS_LOG(LogLevel::kWarn, host_.now(), endpoint_.c_str(),
         "conflicting USIG-certified prepares for cid=%lu; leader %u "
         "equivocated",
         static_cast<unsigned long>(cid.value),
         group_.leader_for(view_).value);
  suspect_leader();
}

void MinBftEngine::handle_prepare(MbPrepare p, bool own,
                                  std::optional<PrevalidatedPropose> pre,
                                  bool cert_prevalidated_ok) {
  crypto::Digest digest =
      pre.has_value() ? pre->digest : crypto::Sha256::hash(p.batch);
  if (!own) {
    // Progress evidence counts even under an unadopted view (see
    // PbftEngine::handle_propose for why a rejoining replica needs it).
    host_.note_progress_evidence(p.cid);
    // Certificate before anything stateful: view evidence and the instance
    // table must only ever see messages the claimed leader's USIG sealed.
    bool cert_ok = pre.has_value()
                       ? cert_prevalidated_ok
                       : crypto::Usig::verify(
                             keys_, p.leader,
                             MbPrepare::material(p.view, p.cid, digest),
                             p.cert);
    if (!cert_ok) {
      ++host_.mutable_stats().usig_rejections;
      return;
    }
    if (p.view > view_) note_view_evidence(p.leader, p.view);
    if (p.view != view_) return;
    if (p.cid.value <= host_.last_decided().value) return;
    if (p.cid.value >
        host_.last_decided().value + host_.state_gap_threshold()) {
      // Past the state-transfer gap the batch can only arrive via snapshot
      // anyway; buffering it would let an authenticated Byzantine peer grow
      // instances_ without bound.
      return;
    }
    if (!counter_fresh(prepare_counters_, p.leader, p.cert.counter)) {
      ++host_.mutable_stats().usig_rejections;
      return;
    }
  }

  Instance& inst = instances_[p.cid.value];
  if (inst.prepare.has_value()) {
    if (inst.digest != digest) {
      // Two valid leader certificates for one instance with different
      // values: non-repudiable proof of equivocation (a correct leader's
      // USIG would never certify both).
      flag_equivocation(inst, p.cid);
    }
    return;
  }
  inst.prepare = std::move(p);
  inst.digest = digest;
  if (pre.has_value()) inst.prevalidated = std::move(pre->batch);
  try_decide();
}

void MinBftEngine::handle_commit(const MbCommit& c) {
  if (c.replica.value >= group_.n) return;
  host_.note_progress_evidence(c.cid);  // even under an unadopted view
  if (c.replica != id_) {
    // Certificate before anything stateful (view evidence, the echo slot,
    // the vote itself): a forged commit must not steer views or consume
    // per-peer state.
    if (!crypto::Usig::verify(keys_, c.replica,
                              MbCommit::material(c.view, c.cid, c.value),
                              c.cert)) {
      ++host_.mutable_stats().usig_rejections;
      return;
    }
    if (c.view > view_) note_view_evidence(c.replica, c.view);
  }
  if (c.view == view_ && c.replica != id_ &&
      c.cid.value == host_.last_decided().value &&
      decided_echo_.has_value() &&
      decided_echo_->cid.value == c.cid.value) {
    // The sender is still voting for an instance this replica already
    // decided: it is one COMMIT short of the f+1 quorum and, since decided
    // replicas never re-vote, the live stream will not complete it. Supply
    // the missing vote directly — at most once per (view, cid) per peer,
    // or two same-frontier replicas bounce echoes forever (each echo IS a
    // commit for the other's decided frontier, with a fresh counter). The
    // freshness check runs before the slot insert so a replayed commit
    // cannot burn a peer's one echo for the current (view, cid).
    if (echo_view_ != view_ || echo_cid_ != c.cid.value) {
      echo_view_ = view_;
      echo_cid_ = c.cid.value;
      echo_sent_to_.clear();
    }
    if (counter_fresh(commit_counters_, c.replica, c.cert.counter) &&
        echo_sent_to_.insert(c.replica.value).second) {
      SS_LOG(LogLevel::kDebug, host_.now(), endpoint_.c_str(),
             "echoing decided cid=%lu to stuck replica %u",
             static_cast<unsigned long>(c.cid.value), c.replica.value);
      MbCommit echo{view_, c.cid, id_, decided_echo_->digest,
                    decided_echo_->cert, {}};
      echo.cert = usig_.certify(
          MbCommit::material(view_, c.cid, decided_echo_->digest));
      host_.send_to_replica(c.replica, MsgType::kMbCommit, echo.encode());
    }
    return;
  }
  if (c.view != view_ || c.cid.value <= host_.last_decided().value) return;
  if (c.cid.value >
      host_.last_decided().value + host_.state_gap_threshold()) {
    return;  // bound instances_ (see handle_prepare)
  }
  if (c.replica != id_ &&
      !counter_fresh(commit_counters_, c.replica, c.cert.counter)) {
    ++host_.mutable_stats().usig_rejections;
    return;
  }

  Instance& inst = instances_[c.cid.value];
  // The voter echoes the prepare certificate it committed on. If it
  // verifies for a *different* value than the prepare we hold, the
  // leader certified both — equivocation, proven without ever seeing
  // the second prepare directly.
  bool equivocated =
      inst.prepare.has_value() && inst.digest != c.value &&
      crypto::Usig::verify(keys_, group_.leader_for(c.view),
                           MbPrepare::material(c.view, c.cid, c.value),
                           c.prepare_cert);
  inst.commits[c.replica] = c.value;
  // Last use of inst: flagging suspects the leader, which can complete a
  // view change synchronously and clear instances_ out from under the
  // reference.
  if (equivocated) flag_equivocation(inst, c.cid);
  try_decide();
}

std::uint32_t MinBftEngine::matching_commits(const Instance& inst) const {
  std::uint32_t count = 0;
  for (const auto& [sender, digest] : inst.commits) {
    if (digest == inst.digest) ++count;
  }
  return count;
}

bool MinBftEngine::validate_batch(Instance& inst, Batch& out_batch) {
  if (inst.prevalidated.has_value()) {
    PrevalidatedBatch pre = std::move(*inst.prevalidated);
    inst.prevalidated.reset();
    if (!pre.decoded || !pre.auth_ok) return false;
    out_batch = std::move(pre.batch);
    if (out_batch.timestamp <= host_.last_timestamp()) return false;
    if (out_batch.requests.empty()) return false;
    return true;
  }
  const MbPrepare& p = *inst.prepare;
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

void MinBftEngine::try_decide() {
  for (;;) {
    std::uint64_t next = host_.last_decided().value + 1;
    auto it = instances_.find(next);
    if (it == instances_.end()) return;
    Instance& inst = it->second;
    if (!inst.prepare.has_value()) return;

    if (!inst.commit_sent) {
      Batch batch;
      if (!validate_batch(inst, batch)) {
        SS_LOG(LogLevel::kWarn, host_.now(), endpoint_.c_str(),
               "invalid prepare for cid=%lu; suspecting leader",
               static_cast<unsigned long>(next));
        instances_.erase(it);
        suspect_leader();
        return;
      }
      inst.commit_sent = true;
      inst.commits[id_] = inst.digest;
      MbCommit c{view_, ConsensusId{next}, id_, inst.digest,
                 inst.prepare->cert, {}};
      c.cert = usig_.certify(
          MbCommit::material(view_, ConsensusId{next}, inst.digest));
      host_.broadcast_replicas(MsgType::kMbCommit, c.encode());
    }

    // f+1 COMMITs from distinct senders: at least one is correct, and a
    // correct committer re-reports the value in every view change until it
    // decides — so the value survives any leader replacement.
    if (matching_commits(inst) < group_.quorum()) return;

    Batch batch = Batch::decode(inst.prepare->batch);
    crypto::Digest decided_digest = inst.digest;
    ConsensusId cid{next};
    // Write-ahead: the decision must be durable before any of its effects
    // become visible (same contract as the PBFT engine).
    host_.append_decision(cid, inst.prepare->batch);
    // Keep the decided value as the retained prepared-entry: if the other
    // committers go quiet before anyone else decides, this replica's
    // VIEW-CHANGE evidence is the only surviving certificate for it.
    retained_prepare_ =
        RetainedPrepare{cid, inst.prepare->view, decided_digest,
                        std::move(inst.prepare->batch), inst.prepare->cert};
    // Separately from the view-change evidence (which moves on to the next
    // open instance as soon as this replica commits there), keep the decided
    // value around for laggard rescue — see decided_echo_'s declaration.
    decided_echo_ = retained_prepare_;
    instances_.erase(it);
    host_.commit(cid, batch, decided_digest);
    maybe_propose();
  }
}

// --------------------------------------------------------------------------
// view change

void MinBftEngine::suspect_leader() { send_viewchange(view_ + 1); }

void MinBftEngine::note_view_evidence(ReplicaId sender, std::uint64_t view) {
  if (view <= view_ || sender.value >= group_.n) return;
  auto& recorded = view_evidence_[sender.value];
  if (view <= recorded) return;
  recorded = view;

  // Adopt the largest view that f+1 distinct peers demonstrably operate in
  // — at least one of them is correct, so that view was really installed.
  std::vector<std::uint64_t> observed;
  observed.reserve(view_evidence_.size());
  for (const auto& [peer, v] : view_evidence_) observed.push_back(v);
  std::sort(observed.begin(), observed.end(), std::greater<>());
  if (observed.size() < group_.f + 1) return;
  std::uint64_t adopt = observed[group_.f];
  if (adopt <= view_) return;

  if (group_.leader_for(adopt) == id_) {
    // Evidence says the group operates in a view this replica leads.
    // Leadership is never assumed from hearsay: installing here would skip
    // run_vc_decision entirely (fresh_propose_floor_, pinned-value
    // recovery), and f Byzantine senders can steer observed[f] onto any
    // view at or below a genuinely installed one — including one this
    // replica leads — making it propose fresh over an instance the group
    // already decided. Vote for the view instead — it installs only
    // through the f+1 view-change quorum, whose evidence run_vc_decision
    // consumes.
    send_viewchange(adopt);
    return;
  }

  SS_LOG(LogLevel::kInfo, host_.now(), endpoint_.c_str(),
         "adopting view %lu from peer evidence (was %lu)",
         static_cast<unsigned long>(adopt), static_cast<unsigned long>(view_));
  refresh_retained_prepare();
  view_ = adopt;
  ++host_.mutable_stats().view_changes;
  instances_.clear();
  vc_done_for_view_ = true;
  for (auto it = view_evidence_.begin(); it != view_evidence_.end();) {
    if (it->second <= adopt) {
      it = view_evidence_.erase(it);
    } else {
      ++it;
    }
  }
  // No maybe_propose(): the adopter is by construction not adopt's leader.
}

void MinBftEngine::send_viewchange(std::uint64_t view) {
  if (view <= view_ || highest_vc_sent_ > view) return;
  // Re-broadcasting for an already-voted target is deliberate (and mints a
  // fresh counter certificate each time): view-change votes can be lost on
  // lossy links. A request's suspect timer fires once, and a client's
  // retransmission of the still-pending request arms it again
  // (ReplicaCore::enqueue_pending), so the vote recurs for as long as the
  // client keeps asking.
  highest_vc_sent_ = view;

  refresh_retained_prepare();
  MbViewChange vc;
  vc.view = view;
  vc.sender = id_;
  vc.last_decided = host_.last_decided();
  if (retained_prepare_.has_value() &&
      (retained_prepare_->cid.value == host_.last_decided().value + 1 ||
       retained_prepare_->cid.value == host_.last_decided().value)) {
    vc.has_prepared = true;
    vc.prepared_view = retained_prepare_->view;
    vc.prepared_cid = retained_prepare_->cid;
    vc.prepared_digest = retained_prepare_->digest;
    vc.prepared_batch = retained_prepare_->batch;
    vc.prepared_cert = retained_prepare_->cert;
  }
  vc.cert = usig_.certify(vc.material());
  host_.broadcast_replicas(MsgType::kMbViewChange, vc.encode());
  handle_viewchange(std::move(vc), /*own=*/true);
}

void MinBftEngine::handle_viewchange(MbViewChange vc, bool own) {
  if (vc.sender.value >= group_.n) return;
  if (!own) {
    if (!crypto::Usig::verify(keys_, vc.sender, vc.material(), vc.cert)) {
      ++host_.mutable_stats().usig_rejections;
      return;
    }
    if (!counter_fresh(vc_counters_, vc.sender, vc.cert.counter)) {
      ++host_.mutable_stats().usig_rejections;
      return;
    }
    // A verified vote reports the sender's decision frontier — progress
    // evidence even when its view target is stale (during view thrash the
    // votes may be the only traffic a lagging replica ever receives).
    host_.note_progress_evidence(vc.last_decided);
  }
  if (vc.view <= view_) return;
  std::uint32_t sender = vc.sender.value;
  auto stored = vc_from_.find(sender);
  if (stored != vc_from_.end() && stored->second.view >= vc.view &&
      !own) {
    return;  // keep the newest vote per sender
  }
  vc_from_[sender] = std::move(vc);

  // A VIEW-CHANGE for view v supports every target <= v. The largest
  // target supported by f+1 distinct senders installs (with n = 2f+1 the
  // join and install quorums coincide).
  std::vector<std::uint64_t> supported;
  supported.reserve(vc_from_.size());
  for (const auto& [s, stored_vc] : vc_from_) {
    supported.push_back(stored_vc.view);
  }
  std::sort(supported.begin(), supported.end(), std::greater<>());
  if (supported.size() < group_.sync_quorum()) return;
  std::uint64_t target = supported[group_.sync_quorum() - 1];
  if (target <= view_) return;
  // Join before installing, so this replica's own evidence is part of the
  // set the new leader decides from. Only if not already voted for this
  // target: send_viewchange re-enters here via its own-vote delivery, and
  // re-voting an already-voted target would recurse without bound (its
  // retransmit guard deliberately admits view == highest_vc_sent_).
  if (highest_vc_sent_ < target) send_viewchange(target);
  install_view(target);
}

void MinBftEngine::install_view(std::uint64_t view) {
  if (view <= view_) return;
  refresh_retained_prepare();
  view_ = view;
  ++host_.mutable_stats().view_changes;
  instances_.clear();
  vc_done_for_view_ = true;

  ReplicaId leader = group_.leader_for(view_);
  SS_LOG(LogLevel::kInfo, host_.now(), endpoint_.c_str(),
         "installed view %lu (leader %u)", static_cast<unsigned long>(view),
         leader.value);

  // Give the new leader a fresh chance before suspecting it (the leader
  // self-suspects here, so it rearms its own timers too).
  host_.rearm_suspect_timers();
  if (leader == id_) {
    // Unlike Mod-SMaRt there is no separate evidence round: the f+1
    // view-change messages that installed the view *are* the evidence, so
    // the new leader decides immediately and synchronously.
    vc_done_for_view_ = false;
    run_vc_decision(view);
  }

  // Votes up to the installed view are consumed; higher ones remain valid
  // support for future view changes.
  for (auto it = vc_from_.begin(); it != vc_from_.end();) {
    if (it->second.view <= view) {
      it = vc_from_.erase(it);
    } else {
      ++it;
    }
  }
}

void MinBftEngine::run_vc_decision(std::uint64_t view) {
  if (view != view_ || vc_done_for_view_) return;
  vc_done_for_view_ = true;

  // Only the votes that actually supported this target participate.
  std::vector<const MbViewChange*> votes;
  for (const auto& [sender, vc] : vc_from_) {
    if (vc.view >= view) votes.push_back(&vc);
  }
  if (votes.empty()) return;  // cannot happen from install_view, belt+braces

  // The synchronization target comes from the *reported* frontiers (see
  // PbftEngine::run_sync_decision for the fork this prevents): with f+1
  // reports, the (f+1)-th highest is certified by at least one correct
  // replica. The leader's own decisions are certain too, so the open
  // instance is the first one past *both* — a lagging voter must never
  // drag the target below what this leader already decided, or every view
  // stalls in a state transfer that has nothing to teach it.
  std::vector<std::uint64_t> reported;
  reported.reserve(votes.size());
  for (const MbViewChange* vc : votes) {
    reported.push_back(vc->last_decided.value);
  }
  std::sort(reported.begin(), reported.end(), std::greater<>());
  std::uint64_t certified =
      reported[std::min<std::size_t>(group_.f, reported.size() - 1)];
  std::uint64_t max_reported = reported.front();
  std::uint64_t target_cid =
      std::max(certified, host_.last_decided().value) + 1;
  // Everything up to the highest reported frontier is potentially decided:
  // freeze fresh proposals below it (monotonic; see the member's comment).
  if (max_reported > fresh_propose_floor_) fresh_propose_floor_ = max_reported;

  // Choose among the verified prepared entries for the target instance. An
  // entry whose sender already *decided* it (last_decided >= the entry's
  // cid) is a certain value and wins outright; among merely-prepared
  // entries a later view supersedes, since only one value per view can
  // carry the leader's counter certificate past correct replicas.
  const MbViewChange* best = nullptr;
  bool best_decided = false;
  for (const MbViewChange* vc : votes) {
    if (!vc->has_prepared || vc->prepared_cid.value != target_cid) continue;
    if (crypto::Sha256::hash(vc->prepared_batch) != vc->prepared_digest) {
      continue;  // forged evidence
    }
    if (!crypto::Usig::verify(
            keys_, group_.leader_for(vc->prepared_view),
            MbPrepare::material(vc->prepared_view, vc->prepared_cid,
                                vc->prepared_digest),
            vc->prepared_cert)) {
      continue;  // not actually certified by that view's leader
    }
    bool decided = vc->last_decided.value >= target_cid;
    bool better =
        best == nullptr || (decided && !best_decided) ||
        (decided == best_decided &&
         (vc->prepared_view > best->prepared_view ||
          (vc->prepared_view == best->prepared_view &&
           vc->prepared_digest < best->prepared_digest)));
    if (better) {
      best = vc;
      best_decided = decided;
    }
  }

  // A voter pinning an instance this leader already decided is stuck one
  // COMMIT short of the f+1 quorum: its peers' commits were lost, and
  // decided replicas never re-vote an instance. Re-send the decided value's
  // prepare plus a fresh COMMIT under the new view so it closes the gap
  // without a full state transfer. (These sends handle nothing locally, so
  // the vote pointers stay valid.)
  if (decided_echo_.has_value() &&
      decided_echo_->cid.value == host_.last_decided().value) {
    bool laggard = false;
    for (const MbViewChange* vc : votes) {
      if (vc->last_decided.value < host_.last_decided().value) laggard = true;
    }
    if (laggard) {
      SS_LOG(LogLevel::kDebug, host_.now(), endpoint_.c_str(),
             "laggard echo for cid=%lu under view=%lu",
             static_cast<unsigned long>(decided_echo_->cid.value),
             static_cast<unsigned long>(view_));
      MbPrepare p{view_, decided_echo_->cid, id_, decided_echo_->batch, {}};
      p.cert = usig_.certify(
          MbPrepare::material(view_, p.cid, decided_echo_->digest));
      host_.broadcast_replicas(MsgType::kMbPrepare, p.encode());
      MbCommit c{view_, decided_echo_->cid, id_, decided_echo_->digest,
                 p.cert, {}};
      c.cert = usig_.certify(
          MbCommit::material(view_, c.cid, decided_echo_->digest));
      host_.broadcast_replicas(MsgType::kMbCommit, c.encode());
    }
  }

  if (best != nullptr) {
    SS_LOG(LogLevel::kDebug, host_.now(), endpoint_.c_str(),
           "re-preparing pinned cid=%lu from sender=%u under view=%lu",
           static_cast<unsigned long>(target_cid), best->sender.value,
           static_cast<unsigned long>(view_));
    // Re-prepare the pinned value under the new view with a fresh counter.
    // Copy what we need out of *best first: handle_prepare can cascade into
    // another view change that prunes vc_from_ under the pointers.
    const crypto::Digest pinned = best->prepared_digest;
    MbPrepare p{view_, ConsensusId{target_cid}, id_, best->prepared_batch,
                {}};
    p.cert = usig_.certify(MbPrepare::material(view_, p.cid, pinned));
    host_.broadcast_replicas(MsgType::kMbPrepare, p.encode());
    handle_prepare(std::move(p), /*own=*/true);
    // A behind leader can still pin the certified value for the group; it
    // catches its own state up in parallel.
    if (host_.last_decided().value + 1 < target_cid) {
      host_.request_state_transfer();
    }
  } else if (max_reported > host_.last_decided().value) {
    // Some replica demonstrably decided past this leader's frontier: a
    // value exists that this leader does not know — never propose fresh
    // over it. Catch up first; proposing resumes when the transfer lands.
    SS_LOG(LogLevel::kInfo, host_.now(), endpoint_.c_str(),
           "view %lu: behind (target=%lu, max_reported=%lu, decided=%lu); "
           "state transfer before proposing",
           static_cast<unsigned long>(view),
           static_cast<unsigned long>(target_cid),
           static_cast<unsigned long>(max_reported),
           static_cast<unsigned long>(host_.last_decided().value));
    host_.request_state_transfer();
  } else {
    maybe_propose();
  }
}

void MinBftEngine::refresh_retained_prepare() {
  if (retained_prepare_.has_value() &&
      retained_prepare_->cid.value < host_.last_decided().value) {
    // Stale: a later instance decided, so the group advanced past this cid
    // and its value is durable elsewhere. Evidence at exactly last_decided
    // is kept — it may be the only surviving certificate (see try_decide).
    retained_prepare_.reset();
  }
  std::uint64_t open = host_.last_decided().value + 1;
  auto it = instances_.find(open);
  if (it != instances_.end() && it->second.prepare.has_value() &&
      it->second.commit_sent) {
    // This replica counter-certified a COMMIT for the value: it may have
    // completed an f+1 quorum elsewhere, so it must be re-reported in every
    // view change until it decides here too.
    retained_prepare_ = RetainedPrepare{
        ConsensusId{open}, it->second.prepare->view, it->second.digest,
        it->second.prepare->batch, it->second.prepare->cert};
  }
}

// --------------------------------------------------------------------------
// shell lifecycle hooks

void MinBftEngine::on_state_transfer_applied() {
  retained_prepare_.reset();  // the open instance is now in the past
  for (auto it = instances_.begin(); it != instances_.end();) {
    if (it->first <= host_.last_decided().value) {
      it = instances_.erase(it);
    } else {
      ++it;
    }
  }
}

void MinBftEngine::on_crash() { instances_.clear(); }

void MinBftEngine::reset() {
  // Everything except the USIG: its counter (and the durable lease behind
  // it) survives reincarnation by construction — that is the whole point
  // of a trusted monotonic counter.
  view_ = 0;
  instances_.clear();
  retained_prepare_.reset();
  decided_echo_.reset();
  fresh_propose_floor_ = 0;
  echo_view_ = 0;
  echo_cid_ = 0;
  echo_sent_to_.clear();
  view_evidence_.clear();
  highest_vc_sent_ = 0;
  vc_from_.clear();
  vc_done_for_view_ = true;
  prepare_counters_.clear();
  commit_counters_.clear();
  vc_counters_.clear();
}

}  // namespace ss::bft
