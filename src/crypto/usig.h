// Simulated USIG: the Unique Sequential Identifier Generator of MinBFT
// (Veronese et al., "Efficient Byzantine Fault-Tolerance").
//
// A real USIG is a tamper-proof component (TPM / SGX enclave) that binds a
// strictly monotonic counter to each message it certifies; because even a
// compromised replica cannot produce two certificates with the same counter
// value, equivocation becomes detectable and the protocol runs with 2f+1
// replicas and f+1 quorums. Here the tamper-proof boundary is simulated the
// same way the Keychain simulates session-key establishment: the signing
// key derives from the group secret, which replica application code never
// holds directly — stealing a replica's session keys does not let an
// attacker mint counter certificates.
//
// Durability uses a counter *lease*: the counter's upper bound is persisted
// every `kLeaseStep` increments (through a caller-supplied sink, storage
// Env-backed in production), and a restarting USIG resumes from the
// persisted lease. The counter therefore never repeats a value across a
// crash — it may skip up to kLeaseStep values, which is harmless: USIG
// consumers require monotonicity, not contiguity.
#pragma once

#include <cstdint>
#include <functional>

#include "common/bytes.h"
#include "common/types.h"
#include "crypto/keychain.h"
#include "crypto/sha256.h"

namespace ss::crypto {

/// UI in MinBFT terms: a counter value sealed to a message by the trusted
/// component's HMAC. Verifiable by every replica (the verification key
/// derives from the group secret), forgeable by none.
struct UsigCert {
  std::uint64_t counter = 0;
  Digest mac{};
};

class Usig {
 public:
  /// Counter values covered by one durable lease write.
  static constexpr std::uint64_t kLeaseStep = 64;

  Usig(const Keychain& keys, ReplicaId id);

  /// Installs the durable counter lease: `stored_lease` is the last value
  /// the sink persisted (0 if none) and `persist` is invoked — before any
  /// covered certificate is produced — whenever the lease advances. The
  /// counter resumes at the stored lease so no value issued before a crash
  /// is ever reissued after it.
  void attach_persistence(std::uint64_t stored_lease,
                          std::function<void(std::uint64_t)> persist);

  /// Increments the counter and seals it to `material`. Total order: each
  /// call returns a strictly larger counter than every earlier call,
  /// including calls made by pre-crash incarnations (given persistence).
  UsigCert certify(ByteView material);

  /// Last counter value issued.
  std::uint64_t counter() const { return counter_; }

  /// Verifies that `cert` seals `material` under `signer`'s trusted
  /// counter. Pure function of its inputs.
  static bool verify(const Keychain& keys, ReplicaId signer, ByteView material,
                     const UsigCert& cert);

 private:
  const Keychain& keys_;
  ReplicaId id_;
  std::uint64_t counter_ = 0;
  std::uint64_t lease_ = 0;  ///< certificates above this need a lease write
  std::function<void(std::uint64_t)> persist_;
};

}  // namespace ss::crypto
