// The replica's dedup table: which client requests it has executed.
//
// A retransmitted request that was already executed must get its cached
// reply, not a second execution. Per client the table keeps the kWindow
// highest sequence numbers executed, sorted, in a flat deque: an in-order
// request appends at the back, a lookup is one comparison with the back or
// a binary search, and the window slides with pop_front. It is part of the
// replica's full snapshot (ReplicaCore::full_snapshot_pieces).
#pragma once

#include <cstdint>
#include <deque>
#include <unordered_map>

#include "common/serialization.h"
#include "common/types.h"

namespace ss::bft {

class DedupTable {
 public:
  /// Sequence numbers kept per client; a client that retransmits a request
  /// this stale has long since failed its own timeout.
  static constexpr std::size_t kWindow = 4096;

  bool contains(ClientId client, RequestId seq) const;
  /// Remembers `seq`, then forgets the lowest numbers above kWindow.
  void insert(ClientId client, RequestId seq);
  void clear() { clients_.clear(); }

  /// Clients in ascending id, each with its count and numbers ascending.
  void encode(Writer& w) const;
  /// Inverse of encode(). Accepts each client's numbers in any order and
  /// with repeats (and a client listed twice), keeping each number once;
  /// the window is enforced on the next insert(), not here.
  static DedupTable decode(Reader& r);

 private:
  std::unordered_map<std::uint64_t, std::deque<std::uint64_t>> clients_;
};

}  // namespace ss::bft
