// Wire messages of the BFT SMR protocol.
//
// The consensus phases follow BFT-SMaRt's VP-Consensus naming
// (PROPOSE / WRITE / ACCEPT ~= PBFT's pre-prepare / prepare / commit), and
// the synchronization phase follows Mod-SMaRt (STOP / STOP_DATA / SYNC).
// Every message travels inside an Envelope carrying an HMAC over the body,
// keyed with the (sender, receiver) pair key.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/bytes.h"
#include "common/serialization.h"
#include "common/types.h"
#include "crypto/sha256.h"
#include "crypto/usig.h"

namespace ss::bft {

enum class MsgType : std::uint8_t {
  kClientRequest = 0,
  kClientReply,
  kServerPush,
  kPropose,
  kWrite,
  kAccept,
  kStop,
  kStopData,
  kSync,
  kStateRequest,
  kStateReply,
  // MinBFT engine (engine_minbft.h): every message carries a USIG trusted
  // counter certificate, which is what makes the 2f+1 / f+1 quorums sound.
  kMbPrepare,
  kMbCommit,
  kMbViewChange,
  kMax = kMbViewChange,
};

const char* msg_type_name(MsgType t);

/// Outer framing: body is the encoded inner message, mac authenticates
/// (sender -> receiver, type, epoch, body).
struct Envelope {
  MsgType type{};
  std::string sender;  ///< principal == endpoint name
  /// Sender's session-key epoch. 0 is the provisioning-time pair key
  /// (clients, adapters); a replica bumps its epoch at every reincarnation
  /// so session keys stolen before the reboot stop verifying once the
  /// receiver's handover window closes.
  std::uint32_t epoch = 0;
  Bytes body;
  crypto::Digest mac{};

  Bytes encode() const;
  static Envelope decode(ByteView data);  // throws DecodeError
  /// decode() that keeps `data`'s buffer as the body: the header is cut
  /// off in place, so a large body is never copied.
  static Envelope decode(Bytes&& data);  // throws DecodeError
};

/// Byte string an Envelope's HMAC covers: (type, sender, receiver, epoch,
/// body). The receiver is folded in so a MAC for one peer cannot be
/// replayed to another.
Bytes envelope_mac_material(MsgType type, const std::string& sender,
                            const std::string& receiver, std::uint32_t epoch,
                            const Bytes& body);
/// The same bytes as pieces: the fields, then a view of `body` (which must
/// outlive them). What senders and receivers MAC, so no body is copied.
Pieces envelope_mac_pieces(MsgType type, const std::string& sender,
                           const std::string& receiver, std::uint32_t epoch,
                           const Bytes& body);

enum class RequestMode : std::uint8_t { kOrdered = 0, kUnordered = 1 };

struct ClientRequest {
  ClientId client;
  RequestId sequence;
  RequestMode mode = RequestMode::kOrdered;
  Bytes payload;
  /// PBFT-style authenticator: one MAC per replica over encode_core(), so a
  /// Byzantine leader cannot fabricate requests on behalf of a client —
  /// followers verify their own entry when validating a proposal.
  std::vector<crypto::Digest> auth;

  /// Encoding without the authenticator (what the MACs and digest cover).
  Bytes encode_core() const;
  Bytes encode() const;
  static ClientRequest decode(ByteView data);
  crypto::Digest digest() const;
};

struct ClientReply {
  ReplicaId replica;
  ClientId client;
  RequestId sequence;
  ConsensusId cid;  ///< instance that ordered it (0 for unordered)
  Bytes payload;

  Bytes encode() const;
  static ClientReply decode(ByteView data);
};

/// Replica-initiated push to a client (asynchronous SCADA messages).
struct ServerPush {
  ReplicaId replica;
  ClientId client;
  /// Per-replica monotonic push sequence, starting at 1. Rides inside the
  /// MAC-covered body so the client-side voter can reject replayed
  /// captures (0 = unsequenced, legacy/test path).
  std::uint64_t seq = 0;
  Bytes payload;

  Bytes encode() const;
  static ServerPush decode(ByteView data);
};

/// A batch of client requests, stamped by the leader at propose time. The
/// timestamp is validated (monotonically increasing) by every replica, then
/// becomes the deterministic ExecuteContext::timestamp.
struct Batch {
  SimTime timestamp = 0;
  std::vector<ClientRequest> requests;

  Bytes encode() const;
  static Batch decode(ByteView data);
  crypto::Digest digest() const;
};

struct Propose {
  ConsensusId cid;
  std::uint64_t regency = 0;
  ReplicaId leader;
  Bytes batch;  ///< encoded Batch

  Bytes encode() const;
  static Propose decode(ByteView data);
};

/// WRITE and ACCEPT share a shape: a vote for a value digest in an instance.
struct PhaseVote {
  ConsensusId cid;
  std::uint64_t regency = 0;
  ReplicaId voter;
  crypto::Digest value{};

  Bytes encode() const;
  static PhaseVote decode(ByteView data);
};

/// STOP: "I suspect the current leader; move to `regency`".
struct Stop {
  std::uint64_t regency = 0;  ///< the regency the sender wants to install
  ReplicaId sender;

  Bytes encode() const;
  static Stop decode(ByteView data);
};

/// STOP_DATA: sent to the new leader after installing a regency; carries the
/// sender's write-set evidence so a possibly-decided value is preserved.
/// The evidence is *retained* across regencies until the instance decides —
/// otherwise a second view change would forget a possibly-decided value.
struct StopData {
  std::uint64_t regency = 0;
  ReplicaId sender;
  ConsensusId last_decided;
  /// Value (with full proposal) the sender saw a WRITE quorum for in the
  /// open instance, if any.
  bool has_writeset = false;
  ConsensusId writeset_cid;
  std::uint64_t writeset_regency = 0;  ///< regency the quorum was seen in
  crypto::Digest writeset_digest{};
  Bytes writeset_proposal;

  Bytes encode() const;
  static StopData decode(ByteView data);
};

/// SYNC: the new leader's re-proposal that closes the synchronization phase.
struct Sync {
  std::uint64_t regency = 0;
  ReplicaId leader;
  ConsensusId cid;
  Bytes batch;  ///< encoded Batch (recovered write-set value or fresh batch)

  Bytes encode() const;
  static Sync decode(ByteView data);
};

// --- MinBFT engine messages (2f+1 replicas, USIG trusted counters) --------

/// PREPARE: the leader's counter-certified proposal for one instance. The
/// certificate seals (view, cid, batch digest) to the leader's monotonic
/// counter — two conflicting prepares for one instance are cryptographic
/// proof of equivocation.
struct MbPrepare {
  std::uint64_t view = 0;
  ConsensusId cid;
  ReplicaId leader;
  Bytes batch;  ///< encoded Batch
  crypto::UsigCert cert;

  /// Byte string the leader's USIG certificate covers. Leads with the
  /// message-type domain tag: PREPARE and COMMIT materials are otherwise
  /// shape-identical, and one counter certificate must never verify as
  /// both (a stolen-session-key holder could replay a leader's prepare
  /// certificate as a commit vote the leader never cast).
  static Bytes material(std::uint64_t view, ConsensusId cid,
                        const crypto::Digest& batch_digest);

  Bytes encode() const;
  static MbPrepare decode(ByteView data);
};

/// COMMIT: a replica's counter-certified vote for a prepared value. Carries
/// the leader's prepare certificate so receivers can cross-check the value
/// against what the leader certified for this instance (equivocation
/// detection without waiting for a second conflicting prepare).
struct MbCommit {
  std::uint64_t view = 0;
  ConsensusId cid;
  ReplicaId replica;
  crypto::Digest value{};  ///< batch digest being committed
  crypto::UsigCert prepare_cert;
  crypto::UsigCert cert;

  /// Byte string the voter's USIG certificate covers (domain-tagged; see
  /// MbPrepare::material).
  static Bytes material(std::uint64_t view, ConsensusId cid,
                        const crypto::Digest& value);

  Bytes encode() const;
  static MbCommit decode(ByteView data);
};

/// VIEW-CHANGE: STOP and STOP_DATA folded into one message — the counter
/// certificate makes the sender's evidence non-repudiable, so it can be
/// broadcast with the vote instead of sent to the new leader after a
/// separate install round. f+1 matching view targets install the view; the
/// new leader's re-PREPARE under the new view closes it.
struct MbViewChange {
  std::uint64_t view = 0;  ///< the view the sender wants to install
  ReplicaId sender;
  ConsensusId last_decided;
  /// The prepared-but-undecided value the sender knows of, if any, with the
  /// prepare certificate of the leader that certified it.
  bool has_prepared = false;
  std::uint64_t prepared_view = 0;
  ConsensusId prepared_cid;
  crypto::Digest prepared_digest{};
  Bytes prepared_batch;
  crypto::UsigCert prepared_cert;
  crypto::UsigCert cert;

  /// Encoding without the sender's own certificate.
  Bytes encode_core() const;
  /// Byte string the sender's USIG certificate covers: encode_core()
  /// behind the message-type domain tag (see MbPrepare::material).
  Bytes material() const;
  Bytes encode() const;
  static MbViewChange decode(ByteView data);
};

struct StateRequest {
  ReplicaId requester;
  ConsensusId have;  ///< requester's last decided instance

  Bytes encode() const;
  static StateRequest decode(ByteView data);
};

struct StateReply {
  ReplicaId replica;
  ConsensusId cid;  ///< state is valid as of this decided instance
  SimTime last_timestamp = 0;
  Bytes snapshot;

  Bytes encode() const;
  static StateReply decode(ByteView data);
  /// Digest over (cid, last_timestamp, snapshot) — what the requester votes on.
  crypto::Digest digest() const;
};

/// A StateReply read where it lies: `snapshot` views the decoded buffer.
struct StateReplyView {
  ReplicaId replica;
  ConsensusId cid;
  SimTime last_timestamp = 0;
  ByteView snapshot;

  static StateReplyView decode(ByteView data);  // throws DecodeError
  /// StateReply::digest(), hashing the snapshot in place.
  crypto::Digest digest() const;
};

/// StateReply::encode() of a snapshot kept as pieces, into one buffer of
/// exactly the encoded size.
Bytes encode_state_reply(ReplicaId replica, ConsensusId cid,
                         SimTime last_timestamp, const Pieces& snapshot);

}  // namespace ss::bft
