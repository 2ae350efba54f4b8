#include "crypto/hmac.h"

#include <array>

namespace ss::crypto {

namespace {

/// HMAC with the message fed to the inner hash by `feed(Sha256&)`.
template <typename Feed>
Digest hmac_with(ByteView key, Feed&& feed) {
  std::array<std::uint8_t, 64> block{};
  if (key.size() > block.size()) {
    Digest kd = Sha256::hash(key);
    std::copy(kd.begin(), kd.end(), block.begin());
  } else {
    std::copy(key.begin(), key.end(), block.begin());
  }

  std::array<std::uint8_t, 64> ipad{};
  std::array<std::uint8_t, 64> opad{};
  for (std::size_t i = 0; i < block.size(); ++i) {
    ipad[i] = block[i] ^ 0x36;
    opad[i] = block[i] ^ 0x5c;
  }

  Sha256 inner;
  inner.update(ByteView(ipad));
  feed(inner);
  Digest inner_digest = inner.finish();

  Sha256 outer;
  outer.update(ByteView(opad));
  outer.update(ByteView(inner_digest));
  return outer.finish();
}

}  // namespace

Digest hmac_sha256(ByteView key, ByteView message) {
  return hmac_with(key, [message](Sha256& h) { h.update(message); });
}

Digest hmac_sha256(ByteView key, const Pieces& message) {
  return hmac_with(key, [&message](Sha256& h) {
    message.for_each([&h](ByteView piece) { h.update(piece); });
  });
}

bool hmac_verify(ByteView key, ByteView message, const Digest& mac) {
  Digest expected = hmac_sha256(key, message);
  return constant_time_equal(ByteView(expected), ByteView(mac));
}

bool hmac_verify(ByteView key, const Pieces& message, const Digest& mac) {
  Digest expected = hmac_sha256(key, message);
  return constant_time_equal(ByteView(expected), ByteView(mac));
}

}  // namespace ss::crypto
