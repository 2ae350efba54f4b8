#include "bft/dedup_table.h"

#include <algorithm>
#include <vector>

namespace ss::bft {

bool DedupTable::contains(ClientId client, RequestId seq) const {
  const auto it = clients_.find(client.value);
  if (it == clients_.end()) return false;
  const std::deque<std::uint64_t>& seqs = it->second;
  if (seqs.empty() || seq.value < seqs.front() || seq.value > seqs.back()) {
    return false;
  }
  return std::binary_search(seqs.begin(), seqs.end(), seq.value);
}

void DedupTable::insert(ClientId client, RequestId seq) {
  std::deque<std::uint64_t>& seqs = clients_[client.value];
  if (seqs.empty() || seq.value > seqs.back()) {
    seqs.push_back(seq.value);
  } else {
    const auto it = std::lower_bound(seqs.begin(), seqs.end(), seq.value);
    if (*it != seq.value) seqs.insert(it, seq.value);
  }
  while (seqs.size() > kWindow) seqs.pop_front();
}

void DedupTable::encode(Writer& w) const {
  std::vector<std::uint64_t> clients;
  clients.reserve(clients_.size());
  for (const auto& [client, _] : clients_) clients.push_back(client);
  std::sort(clients.begin(), clients.end());
  w.varint(clients.size());
  for (std::uint64_t client : clients) {
    const std::deque<std::uint64_t>& seqs = clients_.at(client);
    w.varint(client);
    w.varint(seqs.size());
    for (std::uint64_t s : seqs) w.varint(s);
  }
}

DedupTable DedupTable::decode(Reader& r) {
  std::unordered_map<std::uint64_t, std::vector<std::uint64_t>> decoded;
  const std::uint64_t nclients = r.varint();
  for (std::uint64_t i = 0; i < nclients; ++i) {
    const std::uint64_t client = r.varint();
    const std::uint64_t nseqs = r.varint();
    std::vector<std::uint64_t>& seqs = decoded[client];
    for (std::uint64_t j = 0; j < nseqs; ++j) seqs.push_back(r.varint());
  }
  DedupTable table;
  for (auto& [client, seqs] : decoded) {
    std::sort(seqs.begin(), seqs.end());
    seqs.erase(std::unique(seqs.begin(), seqs.end()), seqs.end());
    table.clients_[client].assign(seqs.begin(), seqs.end());
  }
  return table;
}

}  // namespace ss::bft
