#include "common/config.h"

#include <cstdlib>
#include <limits>

namespace ss {

const char* protocol_name(Protocol p) {
  switch (p) {
    case Protocol::kPbft:
      return "pbft";
    case Protocol::kMinBft:
      return "minbft";
  }
  return "unknown";
}

Protocol parse_protocol(const std::string& name) {
  if (name == "pbft") return Protocol::kPbft;
  if (name == "minbft") return Protocol::kMinBft;
  throw std::invalid_argument("unknown protocol: \"" + name +
                              "\" (expected pbft or minbft)");
}

Protocol protocol_from_env() {
  const char* name = std::getenv("SS_PROTOCOL");
  return name != nullptr ? parse_protocol(name) : Protocol::kPbft;
}

GroupConfig::GroupConfig(std::uint32_t n_in, std::uint32_t f_in)
    : GroupConfig(n_in, f_in, Protocol::kPbft) {}

GroupConfig::GroupConfig(std::uint32_t n_in, std::uint32_t f_in,
                         Protocol protocol_in)
    : n(n_in), f(f_in), protocol(protocol_in) {
  // A size that does not fit n's type would wrap into a small group with
  // nonsense quorums. Rejecting it also keeps f + 1 (< 2f + 1) in range.
  if (min_n(protocol, f) > std::numeric_limits<std::uint32_t>::max()) {
    throw std::invalid_argument("GroupConfig: f = " + std::to_string(f) +
                                " needs more than 2^32 - 1 replicas");
  }
  if (n < min_n(protocol, f)) {
    throw std::invalid_argument(
        protocol == Protocol::kMinBft
            ? "GroupConfig requires n >= 2f + 1 for minbft"
            : "GroupConfig requires n >= 3f + 1");
  }
  if (n == 0) throw std::invalid_argument("GroupConfig requires n > 0");
}

GroupConfig GroupConfig::for_f(std::uint32_t f) {
  return for_protocol(Protocol::kPbft, f);
}

GroupConfig GroupConfig::for_protocol(Protocol protocol, std::uint32_t f) {
  // The cast wraps only for an f the constructor rejects.
  return GroupConfig(static_cast<std::uint32_t>(min_n(protocol, f)), f,
                     protocol);
}

std::vector<ReplicaId> GroupConfig::replica_ids() const {
  std::vector<ReplicaId> ids;
  ids.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) ids.emplace_back(i);
  return ids;
}

}  // namespace ss
