// Application-facing interfaces of the BFT library.
//
// Mirrors BFT-SMaRt's Executable/Recoverable split: the replicated
// application implements Executable to apply totally-ordered requests and
// Recoverable so lagging or recovering replicas can be brought up to date by
// state transfer instead of replaying the whole history.
#pragma once

#include <functional>

#include "common/bytes.h"
#include "common/serialization.h"
#include "common/types.h"
#include "crypto/sha256.h"

namespace ss::bft {

/// Deterministic context handed to the application with every ordered
/// request. `timestamp` is the leader-assigned, quorum-validated batch
/// timestamp — the paper's answer to challenge (c), non-deterministic
/// timestamps: replicas must never consult their local clock while
/// executing.
struct ExecuteContext {
  ConsensusId cid;          ///< consensus instance that decided the batch
  std::uint32_t order = 0;  ///< index of this request within the batch
  SimTime timestamp = 0;    ///< deterministic batch timestamp
  ClientId client;          ///< issuing client
  RequestId request;        ///< client-local request sequence number
};

/// The replicated service. Implementations must be deterministic: the reply
/// and every state change may depend only on (current state, ctx, request).
class Executable {
 public:
  virtual ~Executable() = default;

  /// Applies one totally-ordered request; the return value is sent back to
  /// the issuing client (and voted on with f+1 matching copies).
  virtual Bytes execute_ordered(const ExecuteContext& ctx,
                                ByteView request) = 0;

  /// Serves a read-only request directly, without ordering. Must not
  /// modify state.
  virtual Bytes execute_unordered(ClientId client, ByteView request) = 0;
};

/// State-transfer hooks.
class Recoverable {
 public:
  virtual ~Recoverable() = default;

  /// Serializes the full application state (deterministically!).
  virtual Bytes snapshot() const = 0;

  /// snapshot()'s bytes as pieces, which checkpoints and state replies are
  /// written from. Applications whose state is large override it to view
  /// their state where it lies instead of joining it into one buffer; the
  /// views stay valid until the state next changes.
  virtual Pieces state_pieces() const {
    Pieces out;
    out.adopt(snapshot());
    return out;
  }

  /// Replaces the application state with a snapshot.
  virtual void restore(ByteView snapshot) = 0;

  /// Digest of snapshot(), taken at every checkpoint. Applications whose
  /// state is large override it to hash their state in place instead of
  /// materialising the snapshot; the result must stay equal to this one.
  virtual crypto::Digest state_digest() const {
    return crypto::Sha256::hash(snapshot());
  }
};

/// Replica-to-client push channel. SCADA is event-driven: a single ordered
/// ItemUpdate can fan out into ItemUpdate/EventUpdate pushes toward the HMI
/// proxy — the asynchronous messages of challenge (d). The application
/// receives this sink at registration time and may call it during
/// execute_ordered.
using PushSink = std::function<void(ClientId to, Bytes payload)>;

}  // namespace ss::bft
