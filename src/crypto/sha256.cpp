#include "crypto/sha256.hpp"

#include <openssl/evp.h>
#include <openssl/hmac.h>

#include <cassert>

#include "crypto/evp_ctx.hpp"

namespace tc::crypto {

using internal::FatalOpenSsl;

Sha256Digest Sha256(BytesView data) {
  return Sha256Concat(data, {});
}

Sha256Digest Sha256Concat(BytesView a, BytesView b) {
  // Thread-local context: SHA-256 is on the PRG hot path (Fig 6), so avoid
  // per-call allocation.
  EVP_MD_CTX* ctx = internal::ThreadLocalCtx<EVP_MD_CTX, EVP_MD_CTX_new,
                                             EVP_MD_CTX_free>();
  Sha256Digest out;
  if (EVP_DigestInit_ex2(ctx, internal::Fetched().sha256, nullptr) != 1) {
    FatalOpenSsl("DigestInit");
  }
  if (!a.empty() && EVP_DigestUpdate(ctx, a.data(), a.size()) != 1) {
    FatalOpenSsl("DigestUpdate");
  }
  if (!b.empty() && EVP_DigestUpdate(ctx, b.data(), b.size()) != 1) {
    FatalOpenSsl("DigestUpdate");
  }
  unsigned int len = 0;
  if (EVP_DigestFinal_ex(ctx, out.data(), &len) != 1 || len != out.size()) {
    FatalOpenSsl("DigestFinal");
  }
  return out;
}

Sha256Digest HmacSha256(BytesView key, BytesView data) {
  Sha256Digest out;
  unsigned int len = 0;
  if (HMAC(internal::Fetched().sha256, key.data(),
           static_cast<int>(key.size()), data.data(), data.size(), out.data(),
           &len) == nullptr ||
      len != out.size()) {
    FatalOpenSsl("HMAC");
  }
  return out;
}

Bytes HkdfSha256(BytesView ikm, BytesView salt, BytesView info, size_t length) {
  assert(length <= 255 * 32 && "HKDF output too long");
  // Extract.
  Sha256Digest prk = HmacSha256(salt, ikm);
  // Expand.
  Bytes out;
  out.reserve(length);
  Bytes block;
  uint8_t counter = 1;
  while (out.size() < length) {
    Bytes input = block;
    Append(input, info);
    input.push_back(counter++);
    Sha256Digest t = HmacSha256(prk, input);
    block.assign(t.begin(), t.end());
    size_t take = std::min(block.size(), length - out.size());
    out.insert(out.end(), block.begin(), block.begin() + take);
  }
  return out;
}

}  // namespace tc::crypto
