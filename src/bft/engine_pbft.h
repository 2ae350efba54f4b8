// PBFT-style agreement engine (mini BFT-SMaRt) — INTERNAL to src/bft.
//
// Normal case is a sequential, leader-driven 3-phase agreement per batch:
//
//   leader:    PROPOSE(cid, batch)  ->  all
//   everyone:  WRITE(cid, digest)   ->  all   (on valid proposal)
//   everyone:  ACCEPT(cid, digest)  ->  all   (on WRITE quorum)
//   decide when ACCEPT quorum; execute batch in cid order.
//
// Quorums are ceil((n+f+1)/2) of n = 3f+1 replicas. Leader change follows
// Mod-SMaRt's STOP / STOP_DATA / SYNC synchronization phase. This is the
// byte-for-byte extraction of the pre-seam bft::Replica agreement logic;
// the determinism regression in tests/sim_test.cc holds it to the recorded
// pre-refactor timeline.
//
// Do not include outside src/bft — select via GroupConfig::protocol and
// bft::make_engine (tools/check_engine_headers.sh enforces this).
#pragma once

#include <map>
#include <optional>
#include <vector>

#include "bft/engine.h"

namespace ss::bft {

class PbftEngine final : public AgreementEngine {
 public:
  PbftEngine(EngineHost& host, const GroupConfig& group, ReplicaId id,
             const crypto::Keychain& keys);

  Protocol protocol() const override { return Protocol::kPbft; }
  QuorumConfig quorums() const override {
    return QuorumConfig{group_.n, group_.f, group_.quorum(),
                        group_.sync_quorum()};
  }
  void prevalidate(const Envelope& env,
                   EnginePrevalidated& pre) const override;
  void on_message(const Envelope& env, EnginePrevalidated& pre) override;
  void on_request_ready() override { maybe_propose(); }
  void suspect_leader() override;
  std::uint64_t view() const override { return regency_; }
  ReplicaId current_leader() const override {
    return group_.leader_for(regency_);
  }
  void on_state_transfer_applied() override;
  void on_crash() override;
  void reset() override;
  void corrupt_vote_for_test(MsgType type, Bytes& body) const override;

 private:
  struct Instance {
    std::optional<Propose> proposal;
    crypto::Digest digest{};
    bool write_sent = false;
    bool accept_sent = false;
    std::map<ReplicaId, crypto::Digest> writes;
    std::map<ReplicaId, crypto::Digest> accepts;
    /// Batch prevalidate() verified for this proposal, consumed by
    /// validate_proposal (absent on the fallback paths).
    std::optional<PrevalidatedBatch> prevalidated;
  };

  bool is_leader() const { return group_.leader_for(regency_) == id_; }

  // --- consensus: normal case ---------------------------------------------
  void maybe_propose();
  void handle_propose(Propose p, bool from_sync,
                      std::optional<PrevalidatedPropose> pre = std::nullopt);
  void handle_write(const PhaseVote& v);
  void handle_accept(const PhaseVote& v);
  std::uint32_t matching_votes(const std::map<ReplicaId, crypto::Digest>& votes,
                               const crypto::Digest& value) const;
  void try_decide();
  bool validate_proposal(Instance& inst, Batch& out_batch);

  // --- view change (Mod-SMaRt synchronization phase) ----------------------
  void note_regency_evidence(ReplicaId sender, std::uint64_t regency);
  void send_stop(std::uint64_t regency);
  void handle_stop(const Stop& s);
  void install_regency(std::uint64_t regency);
  void handle_stop_data(const StopData& sd);
  void run_sync_decision(std::uint64_t regency);
  void handle_sync(const Sync& s);
  void refresh_retained_writeset();

  EngineHost& host_;
  GroupConfig group_;
  ReplicaId id_;
  std::string endpoint_;
  const crypto::Keychain& keys_;

  std::uint64_t regency_ = 0;
  std::map<std::uint64_t, Instance> instances_;  // keyed by cid value

  /// Write-quorum evidence for the open instance, retained across view
  /// changes until the instance decides (a possibly-decided value must be
  /// re-reported in every STOP_DATA, not just the first one).
  struct RetainedWriteset {
    ConsensusId cid;
    std::uint64_t regency = 0;
    crypto::Digest digest{};
    Bytes proposal;
  };
  std::optional<RetainedWriteset> retained_writeset_;

  /// Highest regency each peer has been observed *operating* in (consensus
  /// messages, not STOPs). A replica that slept through a view change —
  /// e.g. crashed and recovered — adopts a regency once f+1 distinct peers
  /// demonstrably run it; otherwise it stays deaf forever.
  std::map<std::uint32_t, std::uint64_t> regency_evidence_;

  std::uint64_t highest_stop_sent_ = 0;
  /// Highest regency each peer has STOPped for. A STOP for regency r also
  /// supports every regency below r (PBFT-style aggregation), otherwise
  /// lossy links can scatter votes across regencies and deadlock the view
  /// change.
  std::map<std::uint32_t, std::uint64_t> stop_regency_from_;
  std::map<std::uint64_t, std::map<std::uint32_t, StopData>> stop_data_;
  bool sync_done_for_regency_ = true;
};

}  // namespace ss::bft
