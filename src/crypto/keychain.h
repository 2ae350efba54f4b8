// Pairwise session keys and MAC vectors for the replica group.
//
// Each pair of principals (replica or client) shares a symmetric key derived
// deterministically from a group secret — standing in for the session-key
// establishment BFT-SMaRt performs at connection setup. A MacVector is the
// PBFT-style authenticator: one MAC per replica, so a message broadcast to
// the group can be verified by every replica without public-key operations.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/bytes.h"
#include "common/config.h"
#include "crypto/hmac.h"

namespace ss::crypto {

/// A principal name: "replica/3", "client/17", etc.
std::string replica_principal(ss::ReplicaId id);
std::string client_principal(ss::ClientId id);

class Keychain {
 public:
  /// `group_secret` seeds every derived pairwise key.
  explicit Keychain(std::string group_secret)
      : secret_(std::move(group_secret)) {}

  /// Symmetric key shared by principals a and b (order-insensitive).
  Bytes pair_key(const std::string& a, const std::string& b) const;

  /// Session key for messages sent by `sender` to `receiver` under the
  /// sender's key epoch. Epoch 0 is the provisioning-time pair key
  /// (order-insensitive; clients and adapters stay on it forever). Epoch
  /// e > 0 is the direction-sensitive key a replica derives at its e-th
  /// reincarnation. Derivation requires the group secret — standing in for
  /// SecureSMART's tamper-proof key store — so stealing a replica's epoch-e
  /// session keys yields nothing about its post-recovery epoch-(e+1) keys.
  Bytes session_key(const std::string& sender, const std::string& receiver,
                    std::uint32_t epoch) const;

  Digest mac(const std::string& sender, const std::string& receiver,
             ByteView message) const;
  Digest mac(const std::string& sender, const std::string& receiver,
             std::uint32_t epoch, ByteView message) const;
  Digest mac(const std::string& sender, const std::string& receiver,
             std::uint32_t epoch, const Pieces& message) const;

  bool verify(const std::string& sender, const std::string& receiver,
              ByteView message, const Digest& mac_value) const;
  bool verify(const std::string& sender, const std::string& receiver,
              std::uint32_t epoch, ByteView message,
              const Digest& mac_value) const;
  bool verify(const std::string& sender, const std::string& receiver,
              std::uint32_t epoch, const Pieces& message,
              const Digest& mac_value) const;

 private:
  std::string secret_;
};

/// One MAC per replica: the authenticator attached to group broadcasts.
struct MacVector {
  std::vector<Digest> macs;  // indexed by replica id

  static MacVector create(const Keychain& chain, const std::string& sender,
                          const GroupConfig& group, ByteView message);

  bool verify_entry(const Keychain& chain, const std::string& sender,
                    ss::ReplicaId receiver, ByteView message) const;
};

}  // namespace ss::crypto
