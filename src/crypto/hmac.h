// HMAC-SHA-256 (RFC 2104).
//
// BFT-SMaRt authenticates point-to-point channels with MACs rather than
// per-message signatures for the common case; we do the same. The paper's
// TLS channels between components and their proxies are likewise replaced
// by HMAC-authenticated sim links (same integrity/authenticity property).
#pragma once

#include "common/bytes.h"
#include "common/serialization.h"
#include "crypto/sha256.h"

namespace ss::crypto {

Digest hmac_sha256(ByteView key, ByteView message);
/// The MAC of the pieces' bytes in order, hashed where they lie.
Digest hmac_sha256(ByteView key, const Pieces& message);

/// Verifies in constant time.
bool hmac_verify(ByteView key, ByteView message, const Digest& mac);
bool hmac_verify(ByteView key, const Pieces& message, const Digest& mac);

}  // namespace ss::crypto
