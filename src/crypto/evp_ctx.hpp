// OpenSSL EVP plumbing for AES-GCM on CPUs without AES-NI: the
// process-wide cipher handle, a thread-local RAII holder for a reusable
// context, and the abort used when OpenSSL fails where it cannot.
#pragma once

#include <openssl/evp.h>

#include <cstdio>
#include <cstdlib>

namespace tc::crypto::internal {

[[noreturn]] inline void FatalOpenSsl(const char* what) {
  std::fprintf(stderr, "fatal: OpenSSL %s failed\n", what);
  std::abort();
}

/// Chunk sealing reuses one cipher context per thread instead of
/// allocating per call; the holder frees it at thread exit so worker
/// threads don't leak one context each.
template <typename Ctx, Ctx* (*New)(), void (*Free)(Ctx*)>
Ctx* ThreadLocalCtx() {
  struct Holder {
    Ctx* ctx = New();
    ~Holder() { Free(ctx); }
  };
  thread_local Holder holder;
  return holder.ctx;
}

/// AES-128-GCM, fetched from the default provider once per process and
/// freed at exit. An init call given EVP_aes_128_gcm() makes OpenSSL 3 look
/// the algorithm up in its locked method store on every call, and threads
/// sealing at the same time wait on each other for it.
struct Algorithms {
  Algorithms() {
    if (aes_128_gcm == nullptr) FatalOpenSsl("EVP_CIPHER_fetch(AES-128-GCM)");
  }
  ~Algorithms() { EVP_CIPHER_free(aes_128_gcm); }
  Algorithms(const Algorithms&) = delete;
  Algorithms& operator=(const Algorithms&) = delete;

  EVP_CIPHER* aes_128_gcm = EVP_CIPHER_fetch(nullptr, "AES-128-GCM", nullptr);
};

inline const Algorithms& Fetched() {
  static const Algorithms algorithms;
  return algorithms;
}

}  // namespace tc::crypto::internal
