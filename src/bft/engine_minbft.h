// MinBFT-style agreement engine (Veronese et al., "Efficient Byzantine
// Fault-Tolerance") — INTERNAL to src/bft.
//
// A trusted monotonic counter (crypto/usig.h) makes equivocation
// detectable, which shrinks the group to n = 2f+1 and the quorums to f+1:
//
//   leader:    MB_PREPARE(view, cid, batch) + UI  ->  all
//   everyone:  MB_COMMIT(view, cid, digest) + UI  ->  all  (on valid prepare)
//   decide on f+1 matching COMMITs from distinct senders (the leader's
//   PREPARE is not a vote; the leader broadcasts its own COMMIT too).
//
// The view change is two messages: MB_VIEW_CHANGE carries the sender's
// non-repudiable evidence (counter-certified) inline, f+1 matching targets
// install the view, and the new leader's re-PREPARE under the new view
// closes it — there is no separate STOP_DATA/SYNC round.
//
// Documented simplifications vs. the paper's MinBFT (see DESIGN.md §16):
// instances are cid-indexed rather than counter-ordered, there is no
// counter-contiguity gating, and the view change carries one prepared entry
// instead of the full message log. Equivocation is *detected* (conflicting
// USIG certificates for one instance, surfaced in stats as
// equivocations_detected) rather than made impossible by log ordering.
//
// Do not include outside src/bft — select via GroupConfig::protocol and
// bft::make_engine (tools/check_engine_headers.sh enforces this).
#pragma once

#include <map>
#include <optional>
#include <set>
#include <vector>

#include "bft/engine.h"
#include "crypto/usig.h"

namespace ss::bft {

class MinBftEngine final : public AgreementEngine {
 public:
  MinBftEngine(EngineHost& host, const GroupConfig& group, ReplicaId id,
               const crypto::Keychain& keys);

  Protocol protocol() const override { return Protocol::kMinBft; }
  QuorumConfig quorums() const override {
    return QuorumConfig{group_.n, group_.f, group_.quorum(),
                        group_.sync_quorum()};
  }
  void prevalidate(const Envelope& env,
                   EnginePrevalidated& pre) const override;
  void on_message(const Envelope& env, EnginePrevalidated& pre) override;
  void on_request_ready() override { maybe_propose(); }
  void suspect_leader() override;
  std::uint64_t view() const override { return view_; }
  ReplicaId current_leader() const override {
    return group_.leader_for(view_);
  }
  bool leader_self_suspects() const override { return true; }
  void on_state_transfer_applied() override;
  void on_crash() override;
  void reset() override;
  void corrupt_vote_for_test(MsgType type, Bytes& body) const override;

 private:
  struct Instance {
    std::optional<MbPrepare> prepare;
    crypto::Digest digest{};
    bool commit_sent = false;
    /// true once a conflicting leader certificate was counted for this
    /// instance, so one equivocation inflates the metric exactly once.
    bool equivocation_flagged = false;
    std::map<ReplicaId, crypto::Digest> commits;  ///< by commit *sender*
    std::optional<PrevalidatedBatch> prevalidated;
  };

  bool is_leader() const { return group_.leader_for(view_) == id_; }

  /// Per-sender, per-message-type strict counter monotonicity: records and
  /// enforces that `counter` exceeds the last one accepted from `sender`
  /// in `seen`. Tracked per type so in-flight reordering between a
  /// leader's PREPARE and its immediately-following COMMIT cannot starve
  /// the prepare.
  bool counter_fresh(std::map<std::uint32_t, std::uint64_t>& seen,
                     ReplicaId sender, std::uint64_t counter);

  // --- consensus: normal case ---------------------------------------------
  void maybe_propose();
  void handle_prepare(MbPrepare p, bool own,
                      std::optional<PrevalidatedPropose> pre = std::nullopt,
                      bool cert_prevalidated_ok = false);
  void handle_commit(const MbCommit& c);
  std::uint32_t matching_commits(const Instance& inst) const;
  void try_decide();
  bool validate_batch(Instance& inst, Batch& out_batch);
  void flag_equivocation(Instance& inst, ConsensusId cid);

  // --- view change --------------------------------------------------------
  void note_view_evidence(ReplicaId sender, std::uint64_t view);
  void send_viewchange(std::uint64_t view);
  void handle_viewchange(MbViewChange vc, bool own);
  void install_view(std::uint64_t view);
  void run_vc_decision(std::uint64_t view);
  void refresh_retained_prepare();

  EngineHost& host_;
  GroupConfig group_;
  ReplicaId id_;
  std::string endpoint_;
  const crypto::Keychain& keys_;
  /// The trusted component. Deliberately survives reset() — a trusted
  /// counter never moves backwards, even across a process reincarnation
  /// (the durable lease in EngineHost enforces it across real crashes).
  crypto::Usig usig_;

  std::uint64_t view_ = 0;
  std::map<std::uint64_t, Instance> instances_;  // keyed by cid value

  /// The prepared-but-possibly-decided value for the open instance,
  /// retained across view changes until it decides here too (same
  /// obligation as PbftEngine's retained write-set: a value this replica
  /// counter-certified a COMMIT for may have reached f+1 elsewhere).
  struct RetainedPrepare {
    ConsensusId cid;
    std::uint64_t view = 0;
    crypto::Digest digest{};
    Bytes batch;
    crypto::UsigCert cert;  ///< the certifying leader's prepare UI
  };
  std::optional<RetainedPrepare> retained_prepare_;

  /// The most recently *decided* instance's prepare evidence. A peer stuck
  /// one COMMIT short of the f+1 quorum on an instance this replica already
  /// decided can never finish it from the live vote stream — decided
  /// replicas do not re-vote — and at n = 2f+1 the state-transfer quorum
  /// (f+1 identical snapshots) livelocks whenever the two peers' frontiers
  /// are skewed. This entry lets the replica re-supply the missing vote:
  /// broadcast by a new leader whose view-change votes expose a laggard,
  /// and echoed point-to-point when a peer's COMMIT for our decided
  /// frontier arrives (see handle_commit).
  std::optional<RetainedPrepare> decided_echo_;
  /// Echo rate limit: peers already sent a decided-instance echo under the
  /// current (view, cid). Without it two replicas at the same frontier
  /// bounce echoes forever — each one's echo COMMIT lands at the other as
  /// "a commit for my decided frontier" and triggers a reply, and every
  /// echo mints a fresh USIG counter so the freshness check never breaks
  /// the cycle. A view change (or frontier advance) re-arms the echo.
  std::uint64_t echo_view_ = 0;
  std::uint64_t echo_cid_ = 0;
  std::set<std::uint32_t> echo_sent_to_;

  /// Highest view each peer has been observed *operating* in (prepares and
  /// commits, not view-change votes); f+1 distinct peers demonstrably in a
  /// higher view pull a slept-through replica forward.
  std::map<std::uint32_t, std::uint64_t> view_evidence_;

  /// Fresh proposals are forbidden at or below this cid: a view-change vote
  /// reported a decision frontier this replica has not reached, so a value
  /// may exist for the open instance that this replica does not know.
  /// Proposing a *fresh* batch over it would fork the decided history. The
  /// floor only blocks fresh batches — the evidence-carrying re-propose
  /// paths (retained pin, view-change best entry, laggard echo) are exactly
  /// how the unknown value gets re-supplied. The replica moves past the
  /// floor by deciding up to it (echo, state transfer), never by waiting
  /// it out.
  std::uint64_t fresh_propose_floor_ = 0;

  std::uint64_t highest_vc_sent_ = 0;
  /// Newest view-change message per sender. A VIEW-CHANGE for view v
  /// supports every target <= v (STOP-style aggregation), and its inline
  /// prepared-entry evidence feeds the new leader's decision directly.
  std::map<std::uint32_t, MbViewChange> vc_from_;
  bool vc_done_for_view_ = true;

  // Monotonicity frontiers for received USIG counters (mutable state;
  // certificate HMAC verification itself is pure, in prevalidate).
  std::map<std::uint32_t, std::uint64_t> prepare_counters_;
  std::map<std::uint32_t, std::uint64_t> commit_counters_;
  std::map<std::uint32_t, std::uint64_t> vc_counters_;
};

}  // namespace ss::bft
