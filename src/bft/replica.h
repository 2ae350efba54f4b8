// BFT SMR replica shell.
//
// One ReplicaCore pairs with one application (in SMaRt-SCADA: the Adapter
// wrapping a deterministic SCADA Master) and one AgreementEngine
// (engine.h). The shell owns everything protocol-agnostic — transport
// wiring, message authentication, client-request queueing and flood
// protection, execution + reply caching, checkpoints, durable
// storage/recovery, session-key epochs, and snapshot state transfer — and
// routes agreement traffic to the engine selected by GroupConfig::protocol
// (PBFT-style 3f+1 or MinBFT-style 2f+1; see DESIGN.md §16).
//
// Deterministic time: the leader stamps each batch, followers validate
// monotonicity, and the stamp is the only clock the application ever sees.
#pragma once

#include <deque>
#include <functional>
#include <list>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <unordered_map>
#include <unordered_set>

#include "bft/dedup_table.h"
#include "bft/engine.h"
#include "bft/executable.h"
#include "bft/messages.h"
#include "common/config.h"
#include "common/rng.h"
#include "crypto/keychain.h"
#include "net/backoff.h"
#include "net/lanes.h"
#include "net/transport.h"

namespace ss::storage {
class ReplicaStorage;
}  // namespace ss::storage

namespace ss::bft {

struct ReplicaOptions {
  SimTime request_timeout = millis(400);  ///< leader-suspect timer
  /// Before suspecting the leader, a non-leader forwards the pending
  /// request to it at request_timeout/2 — the leader may simply never have
  /// received it (PBFT/BFT-SMaRt request forwarding).
  bool forward_to_leader = true;
  /// Flood protection: pending requests per client beyond this are dropped.
  std::size_t max_pending_per_client = 1024;
  std::uint32_t max_batch = 64;
  std::uint64_t checkpoint_interval = 128;
  std::uint64_t state_gap_threshold = 64;  ///< behind by this much => transfer
  /// Virtual CPU cost charged per received protocol message (MAC check etc.)
  SimTime per_message_cost = 0;
  /// Virtual CPU cost charged per decided batch (bookkeeping).
  SimTime per_decision_cost = 0;
  std::uint32_t lanes = 1;
  /// After a peer presents a fresh key epoch, messages MAC'd under its
  /// immediately previous epoch are still accepted this long (in-flight
  /// traffic from before the reincarnation) and rejected afterwards — the
  /// bound on how long session keys stolen before a reboot stay useful.
  SimTime epoch_handover_window = seconds(2);
  /// Durable store (storage/replica_storage.h). With one attached, every
  /// decided batch is logged (fsync'd) before it executes and checkpoints
  /// are written to disk. Not owned; must outlive the replica.
  storage::ReplicaStorage* storage = nullptr;
};

class ReplicaCore final : private EngineHost {
 public:
  ReplicaCore(net::Transport& net, GroupConfig group, ReplicaId id,
              const crypto::Keychain& keys, Executable& app,
              Recoverable& state, ReplicaOptions options = {});
  ~ReplicaCore() override;

  ReplicaCore(const ReplicaCore&) = delete;
  ReplicaCore& operator=(const ReplicaCore&) = delete;

  ReplicaId id() const { return id_; }
  const std::string& endpoint() const { return endpoint_; }
  const ReplicaStats& stats() const { return stats_; }
  const GroupConfig& group() const { return group_; }
  /// Agreement protocol this replica runs (fixed at construction).
  Protocol protocol() const { return engine_->protocol(); }
  /// The engine's quorum structure — what group-size-aware callers should
  /// derive n and the fault budget from instead of assuming n = 3f + 1.
  QuorumConfig quorum_config() const { return engine_->quorums(); }
  /// Monotone view counter (PBFT regency / MinBFT view).
  std::uint64_t regency() const { return engine_->view(); }
  ConsensusId last_decided() const override { return last_decided_; }
  SimTime last_timestamp() const override { return last_timestamp_; }
  bool is_leader() const { return engine_->current_leader() == id_; }

  /// Pushes an asynchronous message to a client (see PushSink). Called by
  /// the application during execute_ordered.
  void push_to_client(ClientId client, Bytes payload);

  /// Charges extra virtual CPU time to this replica's service lanes — the
  /// deterministic SCADA Master shares the replica's (single) thread in
  /// SMaRt-SCADA, so its processing time serializes with the protocol's.
  void charge(SimTime cost) {
    if (cost > 0) lanes_.submit(cost, [] {});
  }

  /// Digest of the latest checkpointed application state, for divergence
  /// checks in tests.
  const std::optional<crypto::Digest>& last_checkpoint_digest() const {
    return checkpoint_digest_;
  }
  /// Consensus id the latest checkpoint covers (meaningful only when
  /// last_checkpoint_digest() is set). Checkpoints taken at the same cid
  /// must carry the same digest on every correct replica.
  ConsensusId last_checkpoint_cid() const { return checkpoint_cid_; }

  /// Observation point for cross-replica invariant checking: fires after
  /// every locally executed decision with the batch digest and the batch's
  /// deterministic timestamp. Decisions skipped over by state transfer are
  /// not reported (the replica never executed them itself).
  using DecisionObserver = std::function<void(
      ConsensusId cid, const crypto::Digest& batch_digest, SimTime timestamp)>;
  void set_decision_observer(DecisionObserver observer) {
    decision_observer_ = std::move(observer);
  }

  /// Detaches from the network (crash). A crashed replica stays silent until
  /// recover() is called.
  void crash();

  /// Re-attaches and initiates state transfer from the peers.
  void recover();
  bool crashed() const override { return crashed_; }

  // --- durability (optional; replicas run fine without it) -----------------

  /// DEPRECATED: pass ReplicaOptions::storage at construction instead. Kept
  /// as a forwarding shim for one release (PR 9's ReplicaOptions
  /// consolidation); new call sites must use the options struct.
  void set_storage(storage::ReplicaStorage* storage) { storage_ = storage; }

  /// Restores state from the attached storage: loads the newest checkpoint,
  /// then replays the WAL suffix through the normal execute path (with all
  /// network sends suppressed — the outside world already saw them). Call
  /// once at process start, before serving traffic.
  void recover_from_storage();

  /// Emulates a full process restart in place (for the deterministic
  /// simulation, where destroying the replica mid-run is not an option):
  /// wipes all volatile state back to constructed defaults, restores the
  /// given genesis image, recovers from storage, re-attaches to the network
  /// and asks peers for whatever was decided while "down".
  void reboot(ByteView genesis_full_snapshot);

  /// Forces a checkpoint of the current frontier (and, with storage
  /// attached, persists it). Used on graceful shutdown and by tests that
  /// compare checkpoint digests at a known cid.
  void checkpoint_now();

  /// Asks peers for any decisions made while this replica was down. Safe to
  /// call at any time; a transfer already in flight makes it a no-op.
  void request_state_transfer() override { request_state_now(); }

  /// The full recovery image (app snapshot + dedup table + reply cache) —
  /// what state transfer ships and checkpoints persist.
  Bytes full_snapshot() const;

  /// State replies held for the transfer in flight: at most one per peer.
  std::size_t held_state_replies() const { return state_replies_.size(); }

  void set_byzantine(ByzantineMode mode) { byzantine_ = mode; }
  ByzantineMode byzantine() const override { return byzantine_; }

  // --- gray-failure injection (chaos hooks) --------------------------------
  // A gray replica is *correct* — it signs, votes, and executes honestly —
  // but slow: these knobs model overloaded CPUs and drifting clocks without
  // making the replica Byzantine, so safety invariants must keep holding
  // while liveness margins shrink.

  /// Extra virtual CPU charged per inbound message (on top of
  /// per_message_cost) — an overloaded or degraded replica that lags the
  /// protocol without ever misbehaving. 0 disables.
  void set_processing_delay(SimTime delay) {
    processing_delay_ = delay > 0 ? delay : 0;
  }
  SimTime processing_delay() const { return processing_delay_; }

  /// Multiplies every timer this replica schedules (suspect timers, stall
  /// checks, engine timeouts, state-transfer retries) — a skewed local
  /// clock. 1.0 disables; clamped to [0.1, 100].
  void set_timer_skew(double factor);
  double timer_skew() const { return timer_skew_; }

  /// Session-key epoch this replica signs outbound messages under. 0 until
  /// the first reincarnation; reboot() bumps it (durably, when storage is
  /// attached).
  std::uint32_t key_epoch() const { return key_epoch_; }
  /// Adopts an outbound key epoch explicitly — a freshly exec'd replica
  /// process installs the epoch its supervisor bumped at spawn.
  void set_key_epoch(std::uint32_t epoch) { key_epoch_ = epoch; }

 private:
  /// One inbound message after the pure step (decode + MAC verify +
  /// pre-validation), handed to the stateful step.
  struct Prevalidated {
    std::optional<ClientRequest> request;  ///< decoded kClientRequest body
    bool request_auth_ok = false;
    EnginePrevalidated engine;
  };
  struct Inbound {
    bool decode_failed = false;
    bool mac_failed = false;
    Envelope env;
    Prevalidated pre;
  };

  using PendingKey = std::pair<std::uint64_t, std::uint64_t>;  // client, seq

  // --- EngineHost (the shell's services for the agreement engine) --------
  SimTime now() const override { return net_.now(); }
  void schedule(SimTime delay, std::function<void()> fn) override;
  void send_to_replica(ReplicaId to, MsgType type, Bytes body) override;
  void broadcast_replicas(MsgType type, const Bytes& body) override;
  bool pending_empty() const override { return pending_.empty(); }
  Batch make_batch() override;
  void append_decision(ConsensusId cid, const Bytes& proposal) override;
  void commit(ConsensusId cid, const Batch& batch,
              const crypto::Digest& digest) override;
  void note_progress_evidence(ConsensusId cid) override;
  void rearm_suspect_timers() override;
  SimTime request_timeout() const override { return opt_.request_timeout; }
  std::uint64_t state_gap_threshold() const override {
    return opt_.state_gap_threshold;
  }
  ReplicaStats& mutable_stats() override { return stats_; }
  std::uint64_t usig_stored_lease() const override;
  void usig_persist_lease(std::uint64_t lease) override;

  // --- networking ---------------------------------------------------------
  void on_message(net::Message msg);
  /// The pure step: decode + MAC verify + per-type pre-validation. Reads
  /// only state fixed for the replica's lifetime. The payload's buffer
  /// becomes the envelope body.
  Inbound prevalidate(Bytes payload) const;
  /// The stateful step: stats for failed pure steps, then dispatch.
  void deliver(Inbound in);
  void dispatch(Envelope env, Prevalidated pre);
  void send_envelope(const std::string& to, MsgType type, Bytes body);
  void broadcast(MsgType type, const Bytes& body);
  /// Key-epoch recency policy for replica-to-replica traffic (mutates
  /// peer_epochs_). The MAC already verified under the claimed epoch —
  /// this decides whether that epoch is still current.
  bool accept_sender_epoch(const std::string& sender, std::uint32_t epoch);
  void note_rejoin_complete();

  // --- client requests ----------------------------------------------------
  void handle_client_request(const Envelope& env, Prevalidated& pre);
  void enqueue_pending(ClientRequest req);
  void erase_pending(ClientId client, RequestId seq);
  /// Whether this replica times its pending requests against the leader:
  /// followers do, and so does a self-suspecting leader (MinBFT).
  bool suspects_leader() const;
  void arm_suspect_timer(ClientId client, RequestId seq);

  // --- execution ----------------------------------------------------------
  void execute_batch(ConsensusId cid, const Batch& batch);

  // --- state transfer & checkpoints ----------------------------------------
  void maybe_checkpoint();
  void write_storage_checkpoint();
  void maybe_request_state(ConsensusId evidence_cid);
  void arm_stall_check(std::uint64_t target);
  void request_state_now();
  void resend_cached_reply(ClientId client, RequestId seq);
  /// The full recovery image as pieces: the app state's own pieces behind
  /// their length prefix, then the dedup table and the reply cache.
  Pieces full_snapshot_pieces() const;
  void apply_full_snapshot(ByteView data);
  void handle_state_request(const StateRequest& req);
  /// `rep` views `body`, the envelope body as it arrived.
  void handle_state_reply(const StateReplyView& rep, Bytes body);

  net::Transport& net_;
  GroupConfig group_;
  ReplicaId id_;
  std::string endpoint_;
  const crypto::Keychain& keys_;
  Executable& app_;
  Recoverable& recoverable_;
  ReplicaOptions opt_;
  net::Lanes lanes_;

  ConsensusId last_decided_{0};
  SimTime last_timestamp_ = 0;

  std::list<ClientRequest> pending_;
  std::unordered_map<std::uint64_t, std::map<std::uint64_t,
      std::list<ClientRequest>::iterator>> pending_index_;
  DedupTable executed_;

  /// Cached reply payloads for retransmitting clients. Part of the state
  /// snapshot: a replica brought up to date by state transfer must be able
  /// to answer retransmissions of requests it never executed itself.
  struct CachedReply {
    ConsensusId cid;
    Bytes payload;
  };
  std::map<std::uint64_t, std::map<std::uint64_t, CachedReply>>
      reply_cache_;  // client -> seq -> reply

  /// Small-gap stall detection: evidence that peers decided ahead of us.
  /// One timer at a time; stall_target_ tracks the highest evidence cid so
  /// evidence arriving while armed still gets checked (the callback re-arms).
  bool stall_check_armed_ = false;
  std::uint64_t stall_target_ = 0;

  /// A pending request's two timers: forward it to the leader at
  /// request_timeout/2, suspect the leader at request_timeout. Both go
  /// when the request does or the suspect timer fires; a retransmission of
  /// a request with no entry arms a new pair.
  struct RequestTimers {
    net::Timer forward;
    net::Timer suspect;
    void cancel() {
      forward.cancel();
      suspect.cancel();
    }
  };
  std::map<PendingKey, RequestTimers> suspect_timers_;

  // state transfer
  bool transferring_ = false;
  /// A peer's newest state reply: its envelope body as it arrived, and the
  /// digest the vote compares, taken once on arrival.
  struct HeldStateReply {
    Bytes body;  ///< an encoded StateReply
    crypto::Digest digest{};
  };
  /// Peer replica id -> its newest reply. One per peer, so a peer that
  /// answers with many cids replaces its reply instead of piling them up.
  std::map<std::uint32_t, HeldStateReply> state_replies_;
  /// Peers confirming we are already up to date (ends a moot transfer).
  std::set<std::uint32_t> state_current_votes_;

  std::optional<crypto::Digest> checkpoint_digest_;
  ConsensusId checkpoint_cid_{0};
  storage::ReplicaStorage* storage_ = nullptr;  // optional, not owned
  /// True while recover_from_storage() replays the WAL: replayed decisions
  /// must mutate local state only, never re-emit network messages.
  bool replaying_ = false;
  DecisionObserver decision_observer_;
  std::uint64_t next_push_seq_ = 1;  // anti-replay seq for ServerPush
  bool crashed_ = false;
  ByzantineMode byzantine_ = ByzantineMode::kNone;
  Rng byz_rng_{0xBAD};

  // gray-failure injection state
  SimTime processing_delay_ = 0;
  double timer_skew_ = 1.0;
  /// Applies the injected clock skew to a local timer delay.
  SimTime skewed(SimTime delay) const;

  /// State-transfer re-request timing: exponential backoff so a replica that
  /// cannot reach a serving quorum (partition, flooded peers) stops
  /// re-broadcasting full-snapshot requests every 500 ms; level resets when
  /// a transfer round concludes.
  net::AdaptiveTimeout state_rto_;
  std::uint32_t state_retry_level_ = 0;

  // key epochs (proactive recovery)
  std::uint32_t key_epoch_ = 0;
  /// Per-peer epoch tracking: the newest epoch seen from the peer, and how
  /// long the immediately previous one is still honoured.
  struct PeerEpoch {
    std::uint32_t current = 0;
    SimTime prev_expiry = 0;
  };
  std::map<std::string, PeerEpoch> peer_epochs_;
  /// Set when recover()/reboot() starts rejoining; cleared (and the
  /// duration recorded) when state transfer completes.
  std::optional<SimTime> rejoin_started_;

  ReplicaStats stats_;

  /// The agreement protocol (created last: its constructor may read host
  /// accessors). Owns all protocol state — view, open instances, view-change
  /// evidence — behind the AgreementEngine interface.
  std::unique_ptr<AgreementEngine> engine_;
};

/// The pre-seam name; every existing call site keeps compiling.
using Replica = ReplicaCore;

}  // namespace ss::bft
