#include "crypto/keychain.h"

#include <algorithm>

namespace ss::crypto {

std::string replica_principal(ss::ReplicaId id) {
  return "replica/" + std::to_string(id.value);
}

std::string client_principal(ss::ClientId id) {
  return "client/" + std::to_string(id.value);
}

Bytes Keychain::pair_key(const std::string& a, const std::string& b) const {
  const std::string& lo = std::min(a, b);
  const std::string& hi = std::max(a, b);
  std::string material = secret_ + "|" + lo + "|" + hi;
  Digest d = Sha256::hash(ss::bytes_of(material));
  return Bytes(d.begin(), d.end());
}

Bytes Keychain::session_key(const std::string& sender,
                            const std::string& receiver,
                            std::uint32_t epoch) const {
  if (epoch == 0) return pair_key(sender, receiver);
  std::string material = secret_ + "|epoch/" + std::to_string(epoch) + "|" +
                         sender + "|" + receiver;
  Digest d = Sha256::hash(ss::bytes_of(material));
  return Bytes(d.begin(), d.end());
}

Digest Keychain::mac(const std::string& sender, const std::string& receiver,
                     ByteView message) const {
  return hmac_sha256(pair_key(sender, receiver), message);
}

Digest Keychain::mac(const std::string& sender, const std::string& receiver,
                     std::uint32_t epoch, ByteView message) const {
  return hmac_sha256(session_key(sender, receiver, epoch), message);
}

Digest Keychain::mac(const std::string& sender, const std::string& receiver,
                     std::uint32_t epoch, const Pieces& message) const {
  return hmac_sha256(session_key(sender, receiver, epoch), message);
}

bool Keychain::verify(const std::string& sender, const std::string& receiver,
                      ByteView message, const Digest& mac_value) const {
  return hmac_verify(pair_key(sender, receiver), message, mac_value);
}

bool Keychain::verify(const std::string& sender, const std::string& receiver,
                      std::uint32_t epoch, ByteView message,
                      const Digest& mac_value) const {
  return hmac_verify(session_key(sender, receiver, epoch), message, mac_value);
}

bool Keychain::verify(const std::string& sender, const std::string& receiver,
                      std::uint32_t epoch, const Pieces& message,
                      const Digest& mac_value) const {
  return hmac_verify(session_key(sender, receiver, epoch), message, mac_value);
}

MacVector MacVector::create(const Keychain& chain, const std::string& sender,
                            const GroupConfig& group, ByteView message) {
  MacVector v;
  v.macs.reserve(group.n);
  for (ss::ReplicaId id : group.replica_ids()) {
    v.macs.push_back(chain.mac(sender, replica_principal(id), message));
  }
  return v;
}

bool MacVector::verify_entry(const Keychain& chain, const std::string& sender,
                             ss::ReplicaId receiver, ByteView message) const {
  if (receiver.value >= macs.size()) return false;
  return chain.verify(sender, replica_principal(receiver), message,
                      macs[receiver.value]);
}

}  // namespace ss::crypto
