// Replica-group configuration shared by the BFT library and the SMaRt-SCADA
// deployment builders.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/types.h"

namespace ss {

/// Agreement protocol run by the replica group. The group size and every
/// quorum below derive from this choice:
///
///   protocol | n      | commit quorum      | view-change quorum
///   ---------+--------+--------------------+-------------------
///   kPbft    | 3f + 1 | ceil((n+f+1)/2)    | 2f + 1
///   kMinBft  | 2f + 1 | f + 1              | f + 1
///
/// kMinBft's smaller quorums are sound only because every replica's
/// protocol messages carry USIG trusted-counter certificates (DESIGN.md
/// §16); equivocation is detectable instead of merely outvotable.
enum class Protocol : std::uint8_t {
  kPbft = 0,
  kMinBft = 1,
};

const char* protocol_name(Protocol p);

/// Parses "pbft" / "minbft" (as accepted by SS_PROTOCOL). Throws
/// std::invalid_argument on anything else.
Protocol parse_protocol(const std::string& name);

/// The protocol SS_PROTOCOL names, kPbft when it is unset. Throws
/// std::invalid_argument like parse_protocol on any other value.
Protocol protocol_from_env();

/// Static view of the replica group: n = 3f + 1 replicas tolerating f
/// Byzantine faults (the paper's system model, §IV-B), or n = 2f + 1 when
/// running the MinBFT-style trusted-counter protocol.
struct GroupConfig {
  std::uint32_t n = 4;
  std::uint32_t f = 1;
  Protocol protocol = Protocol::kPbft;

  GroupConfig() = default;
  GroupConfig(std::uint32_t n_in, std::uint32_t f_in);
  GroupConfig(std::uint32_t n_in, std::uint32_t f_in, Protocol protocol_in);

  /// Builds the canonical PBFT config for a given f (n = 3f + 1).
  static GroupConfig for_f(std::uint32_t f);

  /// Builds the canonical config for a protocol at a given f
  /// (n = 3f + 1 for kPbft, n = 2f + 1 for kMinBft).
  static GroupConfig for_protocol(Protocol protocol, std::uint32_t f);

  /// Minimum group size the protocol's fault model requires, in 64 bits:
  /// above f = 2^31 - 1 (MinBFT) or (2^32 - 2) / 3 (PBFT) it has no
  /// uint32_t value, and the constructor rejects such an f.
  static std::uint64_t min_n(Protocol protocol, std::uint32_t f) {
    return protocol == Protocol::kMinBft ? 2 * std::uint64_t{f} + 1
                                         : 3 * std::uint64_t{f} + 1;
  }

  /// Agreement commit quorum: the Byzantine dissemination quorum
  /// ceil((n + f + 1) / 2) under PBFT, f + 1 counter-certified votes under
  /// MinBFT.
  std::uint32_t quorum() const {
    return protocol == Protocol::kMinBft
               ? f + 1
               : static_cast<std::uint32_t>((std::uint64_t{n} + f + 2) / 2);
  }

  /// Votes needed by a client to accept a reply: f + 1 matching messages.
  std::uint32_t reply_quorum() const { return f + 1; }

  /// Votes needed to install a view change / logical timeout: 2f + 1 under
  /// PBFT, f + 1 under MinBFT.
  std::uint32_t sync_quorum() const {
    return protocol == Protocol::kMinBft ? f + 1 : 2 * f + 1;
  }

  /// Simple-majority quorum used by the logical-timeout protocol.
  std::uint32_t majority() const { return n / 2 + 1; }

  std::vector<ReplicaId> replica_ids() const;

  /// Leader for a given regency (round-robin, as in BFT-SMaRt).
  ReplicaId leader_for(std::uint64_t regency) const {
    return ReplicaId{static_cast<std::uint32_t>(regency % n)};
  }
};

}  // namespace ss
