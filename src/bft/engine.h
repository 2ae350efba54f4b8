// The agreement-engine seam.
//
// bft::ReplicaCore (replica.h) is a protocol-agnostic shell: transport
// wiring, message authentication, client-request queueing, execution +
// reply caching, checkpoints, storage/recovery, key epochs, and state
// transfer. Everything that is *agreement* — proposing, vote
// collection, deciding, and the view change — lives behind the
// AgreementEngine interface below, so protocols with different quorum
// structures (PBFT-style 3f+1, MinBFT-style 2f+1) plug in without the
// SCADA layers ever seeing protocol internals.
//
// Engine implementations (engine_pbft.h, engine_minbft.h) are internal to
// src/bft: nothing outside this directory may include them
// (tools/check_engine_headers.sh enforces this). Select a protocol through
// GroupConfig::protocol and the make_engine() factory instead.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>

#include "bft/messages.h"
#include "common/config.h"
#include "common/types.h"
#include "crypto/keychain.h"

namespace ss::bft {

/// Fault behaviours a test/bench can switch a replica into. A Byzantine
/// replica in these modes exercises the failure paths the protocol must
/// mask (f of n replicas may behave this way).
enum class ByzantineMode {
  kNone,
  kSilent,          ///< sends nothing at all (crash-like, but still receives)
  kCorruptReplies,  ///< flips bytes in client replies and pushes
  kCorruptVotes,    ///< votes for a wrong digest / corrupts vote certificates
  kEquivocate,      ///< as leader, proposes different batches to different peers
};

struct ReplicaStats {
  std::uint64_t proposals_sent = 0;
  std::uint64_t batches_decided = 0;
  std::uint64_t requests_executed = 0;
  std::uint64_t requests_deduped = 0;
  std::uint64_t unordered_executed = 0;
  std::uint64_t mac_failures = 0;
  std::uint64_t decode_failures = 0;
  std::uint64_t auth_failures = 0;
  std::uint64_t view_changes = 0;
  std::uint64_t state_transfers = 0;
  std::uint64_t checkpoints = 0;
  std::uint64_t pushes_sent = 0;
  std::uint64_t requests_forwarded = 0;
  std::uint64_t requests_flood_dropped = 0;
  /// Replica-to-replica messages dropped by the key-epoch recency policy
  /// (valid MAC for the claimed epoch, but the epoch is stale).
  std::uint64_t epoch_rejections = 0;
  /// MinBFT only: protocol messages dropped because the sender's USIG
  /// counter did not advance (replay / stale), and leader equivocations
  /// proven by conflicting counter certificates for one instance.
  std::uint64_t usig_rejections = 0;
  std::uint64_t equivocations_detected = 0;
};

/// The quorum structure an engine operates under, for callers that size
/// groups or reason about fault budgets without protocol knowledge
/// (tests).
struct QuorumConfig {
  std::uint32_t n = 0;
  std::uint32_t f = 0;
  std::uint32_t commit = 0;        ///< matching votes that decide an instance
  std::uint32_t view_install = 0;  ///< votes that install a view change
};

/// Pre-validation results: pure functions of the wire payload and the
/// replica's immutable identity (keys, group, id). Computed by the pure step
/// (prevalidate), consumed by the stateful handlers, which compute them
/// themselves when a field is absent (sync-path proposals, the leader's own
/// proposal).
struct PrevalidatedBatch {
  bool decoded = false;
  bool auth_ok = false;  ///< every request authenticator verified
  Batch batch;
};
struct PrevalidatedPropose {
  crypto::Digest digest{};  ///< Sha256 of the proposal's batch bytes
  PrevalidatedBatch batch;
};

/// Engine-specific slice of the pure step. One struct shared by all engines
/// keeps the Inbound plumbing protocol-agnostic; each engine fills (and
/// later consumes) only its own fields.
struct EnginePrevalidated {
  // PBFT: decoded kPropose body + its batch pre-validation.
  std::optional<Propose> propose;
  std::optional<PrevalidatedPropose> propose_pre;
  // MinBFT: decoded kMbPrepare body + its batch pre-validation + the
  // verified USIG certificate (pure HMAC; the stateful handler still checks
  // counter monotonicity, which is mutable state).
  std::optional<MbPrepare> prepare;
  std::optional<PrevalidatedPropose> prepare_pre;
  bool prepare_cert_ok = false;
};

/// Services the shell provides to an engine. Implemented privately by
/// ReplicaCore.
class EngineHost {
 public:
  virtual ~EngineHost() = default;

  virtual SimTime now() const = 0;
  /// Fire-and-forget timer (engine timers are never cancelled; callbacks
  /// must re-check state, as the pre-seam code did).
  virtual void schedule(SimTime delay, std::function<void()> fn) = 0;
  virtual void send_to_replica(ReplicaId to, MsgType type, Bytes body) = 0;
  virtual void broadcast_replicas(MsgType type, const Bytes& body) = 0;

  virtual ConsensusId last_decided() const = 0;
  virtual SimTime last_timestamp() const = 0;
  virtual bool pending_empty() const = 0;
  /// Builds the next proposal batch from the pending queue (leader only).
  virtual Batch make_batch() = 0;

  /// Write-ahead log of a decided proposal; must be called before commit()
  /// so the decision is durable before any of its effects are visible.
  virtual void append_decision(ConsensusId cid, const Bytes& proposal) = 0;
  /// Applies a decision: advances the frontier, executes the batch, sends
  /// replies, fires the decision observer, and takes a checkpoint when the
  /// interval says so. The engine advances its own protocol state first.
  virtual void commit(ConsensusId cid, const Batch& batch,
                      const crypto::Digest& digest) = 0;

  /// Evidence that peers progressed to `cid` (drives the shell's
  /// stall-detection and state-transfer machinery).
  virtual void note_progress_evidence(ConsensusId cid) = 0;
  virtual void request_state_transfer() = 0;
  /// Re-arms the leader-suspect timers over every pending request (a fresh
  /// leader deserves a fresh chance after a view change).
  virtual void rearm_suspect_timers() = 0;

  virtual SimTime request_timeout() const = 0;
  /// Instances this far past last_decided() are reachable only through
  /// state transfer; engines must not buffer messages beyond the gap (it
  /// bounds their open-instance tables against far-future floods).
  virtual std::uint64_t state_gap_threshold() const = 0;
  virtual ReplicaStats& mutable_stats() = 0;
  virtual bool crashed() const = 0;
  virtual ByzantineMode byzantine() const = 0;

  /// MinBFT: durable USIG counter lease (storage-backed when available).
  virtual std::uint64_t usig_stored_lease() const = 0;
  virtual void usig_persist_lease(std::uint64_t lease) = 0;
};

/// One agreement protocol instance, owned by a ReplicaCore. The engine owns
/// all protocol state (view/regency, open instances, view-change evidence)
/// and drives the shell through EngineHost.
class AgreementEngine {
 public:
  virtual ~AgreementEngine() = default;

  virtual Protocol protocol() const = 0;
  virtual QuorumConfig quorums() const = 0;

  /// The pure step for engine message types: decode + expensive checks
  /// (digests, request authenticators, USIG cert HMACs). Reads only state
  /// fixed for the engine's lifetime; no replica state changes here.
  virtual void prevalidate(const Envelope& env,
                           EnginePrevalidated& pre) const = 0;

  /// The stateful handler for every envelope type the shell does not own.
  /// Decodes env.body itself (DecodeError propagates to the shell's
  /// dispatch guard) and performs its own sender-principal checks.
  virtual void on_message(const Envelope& env, EnginePrevalidated& pre) = 0;

  /// The pending-request queue may have work (request arrival, decision,
  /// state-transfer completion): propose if this replica leads.
  virtual void on_request_ready() = 0;

  /// The shell's request timers gave up on the current leader.
  virtual void suspect_leader() = 0;

  /// Whether the shell should arm request suspect timers on the leader too,
  /// so a leader that cannot get its own proposals decided suspects itself.
  /// PBFT leaves this off: a deposed leader rejoins through the 2f+1 group's
  /// f+1 STOP-join rule, which needs no timeout evidence of its own. With
  /// n = 2f+1 that escape hatch does not exist — after one crash only f
  /// peers remain, so a stale self-styled leader (e.g. freshly reincarnated
  /// at view 0) can only walk forward on its own timer evidence.
  virtual bool leader_self_suspects() const { return false; }

  /// Monotone view counter (PBFT regency / MinBFT view).
  virtual std::uint64_t view() const = 0;
  virtual ReplicaId current_leader() const = 0;

  /// State transfer installed a snapshot at host.last_decided(): drop
  /// evidence the snapshot supersedes, keep buffered future instances.
  virtual void on_state_transfer_applied() = 0;
  /// Replica detached from the network (volatile-state crash).
  virtual void on_crash() = 0;
  /// Full process-restart semantics (reboot): back to constructed protocol
  /// state. Trusted-component state (USIG counter) survives by design.
  virtual void reset() = 0;

  /// ByzantineMode::kCorruptVotes hook: given an outbound engine message,
  /// corrupt it the way a vote-equivocating replica would (or leave it
  /// untouched for non-vote types).
  virtual void corrupt_vote_for_test(MsgType type, Bytes& body) const = 0;
};

/// Builds the engine selected by group.protocol. The returned engine keeps
/// references to host and keys; both must outlive it.
std::unique_ptr<AgreementEngine> make_engine(EngineHost& host,
                                             const GroupConfig& group,
                                             ReplicaId id,
                                             const crypto::Keychain& keys);

}  // namespace ss::bft
