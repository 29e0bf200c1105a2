#include "crypto/aes_gcm.hpp"

#include <openssl/evp.h>
#include <pthread.h>

#include <array>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "crypto/evp_ctx.hpp"
#include "crypto/sha256.hpp"

namespace tc::crypto {

using internal::FatalOpenSsl;

namespace {
EVP_CIPHER_CTX* ThreadCtx() {
  return internal::ThreadLocalCtx<EVP_CIPHER_CTX, EVP_CIPHER_CTX_new,
                                  EVP_CIPHER_CTX_free>();
}

/// The cipher to pass to an EVP_*Init_ex2 call on `ctx`: null when the
/// context already holds AES-128-GCM, which keeps its provider state
/// instead of freeing and rebuilding it.
const EVP_CIPHER* GcmCipherFor(EVP_CIPHER_CTX* ctx) {
  const EVP_CIPHER* gcm = internal::Fetched().aes_128_gcm;
  return EVP_CIPHER_CTX_get0_cipher(ctx) == gcm ? nullptr : gcm;
}

/// Bumped in a forked child, before fork() returns there. A reserve filled
/// at an older generation was filled by an ancestor process.
std::atomic<uint64_t> fork_generation{0};

void OnForkChild() { ++fork_generation; }

/// Copies the next nonce of this thread's reserve into `out`. One
/// RandomBytes call refills the whole reserve. A reserve filled before a
/// fork (this thread's copy in the child) is refilled first, so parent and
/// child never seal with the same nonce. The fork handler is registered
/// before the first fill, so no reserve holds nonces it could miss.
void NextNonce(uint8_t* out) {
  struct Reserve {
    std::array<uint8_t, 4096 / kGcmNonceSize * kGcmNonceSize> bytes{};
    size_t used = bytes.size();
    uint64_t generation = 0;
  };
  thread_local Reserve reserve;
  const uint64_t generation = fork_generation.load();
  if (reserve.used == reserve.bytes.size() ||
      reserve.generation != generation) {
    static const bool registered = [] {
      if (pthread_atfork(nullptr, nullptr, OnForkChild) != 0) {
        std::fprintf(stderr, "fatal: pthread_atfork failed\n");
        std::abort();
      }
      return true;
    }();
    (void)registered;
    RandomBytes(reserve.bytes);
    reserve.used = 0;
    reserve.generation = generation;
  }
  std::memcpy(out, reserve.bytes.data() + reserve.used, kGcmNonceSize);
  reserve.used += kGcmNonceSize;
}
}  // namespace

Bytes GcmSeal(const Key128& key, BytesView plaintext, BytesView aad) {
  EVP_CIPHER_CTX* ctx = ThreadCtx();
  Bytes out(kGcmNonceSize + plaintext.size() + kGcmTagSize);
  NextNonce(out.data());

  if (EVP_EncryptInit_ex2(ctx, GcmCipherFor(ctx), key.data(), out.data(),
                          nullptr) != 1) {
    FatalOpenSsl("EncryptInit(gcm)");
  }
  int len = 0;
  if (!aad.empty() &&
      EVP_EncryptUpdate(ctx, nullptr, &len, aad.data(),
                        static_cast<int>(aad.size())) != 1) {
    FatalOpenSsl("EncryptUpdate(aad)");
  }
  if (!plaintext.empty() &&
      EVP_EncryptUpdate(ctx, out.data() + kGcmNonceSize, &len,
                        plaintext.data(),
                        static_cast<int>(plaintext.size())) != 1) {
    FatalOpenSsl("EncryptUpdate");
  }
  int final_len = 0;
  if (EVP_EncryptFinal_ex(ctx, out.data() + kGcmNonceSize + len,
                          &final_len) != 1) {
    FatalOpenSsl("EncryptFinal");
  }
  if (EVP_CIPHER_CTX_ctrl(ctx, EVP_CTRL_GCM_GET_TAG, kGcmTagSize,
                          out.data() + kGcmNonceSize + plaintext.size()) !=
      1) {
    FatalOpenSsl("GET_TAG");
  }
  return out;
}

Result<Bytes> GcmOpen(const Key128& key, BytesView sealed, BytesView aad) {
  if (sealed.size() < kGcmNonceSize + kGcmTagSize) {
    return DataLoss("sealed blob too short");
  }
  EVP_CIPHER_CTX* ctx = ThreadCtx();
  const uint8_t* nonce = sealed.data();
  const uint8_t* ct = sealed.data() + kGcmNonceSize;
  size_t ct_len = sealed.size() - kGcmNonceSize - kGcmTagSize;
  const uint8_t* tag = ct + ct_len;

  if (EVP_DecryptInit_ex2(ctx, GcmCipherFor(ctx), key.data(), nonce,
                          nullptr) != 1) {
    FatalOpenSsl("DecryptInit(gcm)");
  }
  int len = 0;
  if (!aad.empty() &&
      EVP_DecryptUpdate(ctx, nullptr, &len, aad.data(),
                        static_cast<int>(aad.size())) != 1) {
    FatalOpenSsl("DecryptUpdate(aad)");
  }
  Bytes plaintext(ct_len);
  if (ct_len > 0 && EVP_DecryptUpdate(ctx, plaintext.data(), &len, ct,
                                      static_cast<int>(ct_len)) != 1) {
    return DataLoss("GCM decryption failed");
  }
  if (EVP_CIPHER_CTX_ctrl(ctx, EVP_CTRL_GCM_SET_TAG, kGcmTagSize,
                          const_cast<uint8_t*>(tag)) != 1) {
    FatalOpenSsl("SET_TAG");
  }
  int final_len = 0;
  if (EVP_DecryptFinal_ex(ctx, plaintext.data() + len, &final_len) != 1) {
    return DataLoss("GCM authentication failed (tampered or wrong key)");
  }
  return plaintext;
}

Key128 ChunkPayloadKey(const Key128& leaf_i, const Key128& leaf_next) {
  // Component-wise difference of the two leaves (two uint64 lanes), hashed.
  uint64_t a[2], b[2], d[2];
  std::memcpy(a, leaf_i.data(), 16);
  std::memcpy(b, leaf_next.data(), 16);
  d[0] = a[0] - b[0];
  d[1] = a[1] - b[1];
  Sha256Digest h = Sha256(BytesView(reinterpret_cast<uint8_t*>(d), 16));
  Key128 key;
  std::memcpy(key.data(), h.data(), 16);
  return key;
}

}  // namespace tc::crypto
