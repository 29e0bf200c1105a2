#include "crypto/aes_gcm.hpp"

#include <openssl/evp.h>
#include <pthread.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cassert>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <type_traits>

#include "crypto/aesni.hpp"
#include "crypto/aesni_rounds.hpp"
#include "crypto/constant_time.hpp"
#include "crypto/evp_ctx.hpp"
#include "crypto/sha256.hpp"

// The native path needs AES-NI for the blocks and PCLMULQDQ and SSSE3 for
// GHASH. Only its functions are compiled for those instructions, through a
// target attribute, so the rest of this file stays baseline x86 and
// GcmIsNative() gates every call into them.
#if defined(TC_NATIVE_KERNELS)
#define TC_GCM_TARGET __attribute__((target("aes,pclmul,ssse3")))
#endif

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

/// Fills a nonce reserve: AES-128-CTR under one fresh 16-byte getrandom
/// key, scrubbed after. Without AES-NI the software AES would cost more
/// than the kernel's bytes, so getrandom fills all of it.
void FillNonceReserve(MutableBytesView out) {
  if (!CpuHas(kCpuAesNi)) return RandomBytes(out);
  TC_SECRET Key128 key = RandomKey128();
  AesNiKeystream(key, out);
  SecureZero(key);
}

/// Copies the next nonce of this thread's reserve into `out`. One
/// FillNonceReserve call refills the whole reserve. A reserve filled before
/// a fork (this thread's copy in the child) is refilled first, so parent and
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
    FillNonceReserve(reserve.bytes);
    reserve.used = 0;
    reserve.generation = generation;
  }
  std::memcpy(out, reserve.bytes.data() + reserve.used, kGcmNonceSize);
  reserve.used += kGcmNonceSize;
}

#if defined(TC_NATIVE_KERNELS)

/// Reverses the 16 bytes of a block. GHASH works on blocks whose bit order
/// is reflected; reversing the bytes lets PCLMULQDQ multiply them as
/// ordinary polynomials (Gueron and Kounavis, "Intel Carry-Less
/// Multiplication Instruction and its Usage for Computing the GCM Mode").
TC_GCM_TARGET inline __m128i Reflect(__m128i x) {
  return _mm_shuffle_epi8(
      x, _mm_set_epi8(0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15));
}

/// A 256-bit carry-less product, kept as its low, middle and high 128-bit
/// parts so several products can be summed before one reduction.
struct WideProduct {
  __m128i lo = _mm_setzero_si128();
  __m128i mid = _mm_setzero_si128();
  __m128i hi = _mm_setzero_si128();
};

/// Adds the carry-less product a * b (four PCLMULQDQs) into `acc`.
TC_GCM_TARGET inline void MulAdd(WideProduct& acc, __m128i a, __m128i b) {
  acc.lo = _mm_xor_si128(acc.lo, _mm_clmulepi64_si128(a, b, 0x00));
  acc.hi = _mm_xor_si128(acc.hi, _mm_clmulepi64_si128(a, b, 0x11));
  acc.mid = _mm_xor_si128(acc.mid,
                          _mm_xor_si128(_mm_clmulepi64_si128(a, b, 0x10),
                                        _mm_clmulepi64_si128(a, b, 0x01)));
}

/// Reduces a sum of products of byte-reflected elements to the element of
/// GF(2^128): shifts the 256-bit sum left one bit for the reflection, then
/// reduces it modulo x^128 + x^7 + x^2 + x + 1. Both steps are linear, so
/// one reduction of a sum equals the sum of reduced products.
TC_GCM_TARGET inline __m128i Reduce(const WideProduct& p) {
  __m128i lo = _mm_xor_si128(p.lo, _mm_slli_si128(p.mid, 8));
  __m128i hi = _mm_xor_si128(p.hi, _mm_srli_si128(p.mid, 8));

  // Shift the 256-bit hi:lo left by one bit.
  const __m128i lo_carry = _mm_srli_epi32(lo, 31);
  const __m128i hi_carry = _mm_srli_epi32(hi, 31);
  lo = _mm_or_si128(_mm_slli_epi32(lo, 1), _mm_slli_si128(lo_carry, 4));
  hi = _mm_or_si128(_mm_or_si128(_mm_slli_epi32(hi, 1),
                                 _mm_slli_si128(hi_carry, 4)),
                    _mm_srli_si128(lo_carry, 12));

  // Fold the low half into the high half.
  __m128i fold = _mm_xor_si128(
      _mm_xor_si128(_mm_slli_epi32(lo, 31), _mm_slli_epi32(lo, 30)),
      _mm_slli_epi32(lo, 25));
  const __m128i fold_hi = _mm_srli_si128(fold, 4);
  lo = _mm_xor_si128(lo, _mm_slli_si128(fold, 12));
  fold = _mm_xor_si128(
      _mm_xor_si128(_mm_srli_epi32(lo, 1), _mm_srli_epi32(lo, 2)),
      _mm_xor_si128(_mm_srli_epi32(lo, 7), fold_hi));
  return _mm_xor_si128(hi, _mm_xor_si128(lo, fold));
}

/// The GF(2^128) product of two byte-reflected elements.
TC_GCM_TARGET inline __m128i GfMul(__m128i a, __m128i b) {
  WideProduct p;
  MulAdd(p, a, b);
  return Reduce(p);
}

TC_GCM_TARGET inline __m128i LoadReflected(const uint8_t* p) {
  return Reflect(_mm_loadu_si128(reinterpret_cast<const __m128i*>(p)));
}

/// Absorbs `n` bytes into the GHASH state `x`, the last partial block
/// zero-padded. `h` holds the reflected hash key and its powers: h[k] is
/// H^(k+1). Four blocks at a time are multiplied by H^4 .. H and reduced
/// once (Gueron and Kounavis' aggregated reduction), which takes the
/// reduction off the dependency chain of three blocks in four.
TC_GCM_TARGET __m128i GhashUpdate(__m128i x, const __m128i (&h)[4],
                                  const uint8_t* p, size_t n) {
  for (; n >= 64; p += 64, n -= 64) {
    WideProduct acc;
    MulAdd(acc, _mm_xor_si128(x, LoadReflected(p)), h[3]);
    MulAdd(acc, LoadReflected(p + 16), h[2]);
    MulAdd(acc, LoadReflected(p + 32), h[1]);
    MulAdd(acc, LoadReflected(p + 48), h[0]);
    x = Reduce(acc);
  }
  for (; n >= 16; p += 16, n -= 16) {
    x = GfMul(_mm_xor_si128(x, LoadReflected(p)), h[0]);
  }
  if (n > 0) {
    uint8_t last[16] = {};
    std::memcpy(last, p, n);
    x = GfMul(_mm_xor_si128(x, LoadReflected(last)), h[0]);
  }
  return x;
}

/// The GCM tag over `aad` and the ciphertext ct[0, n): GHASH under the
/// hash key H, closed by the length block, XORed with the tag mask E(J0).
TC_GCM_TARGET inline __m128i GcmTag(__m128i hash_key, __m128i tag_mask,
                                    BytesView aad, const uint8_t* ct,
                                    size_t n) {
  // H, and H^2 .. H^4 when there are four blocks to aggregate.
  __m128i h[4];
  h[0] = Reflect(hash_key);
  h[1] = h[2] = h[3] = _mm_setzero_si128();
  if (aad.size() >= 64 || n >= 64) {
    for (int k = 1; k < 4; ++k) h[k] = GfMul(h[k - 1], h[0]);
  }
  __m128i x = GhashUpdate(_mm_setzero_si128(), h, aad.data(), aad.size());
  x = GhashUpdate(x, h, ct, n);
  // The length block: bit lengths of the AAD and the ciphertext, each a
  // big-endian u64, which reflects to (aad bits : high, ct bits : low).
  const __m128i lengths =
      _mm_set_epi64x(static_cast<long long>(aad.size() * 8),
                     static_cast<long long>(n * 8));
  x = GfMul(_mm_xor_si128(x, lengths), h[0]);
  return _mm_xor_si128(Reflect(x), tag_mask);
}

/// The counter block nonce || counter, the counter big-endian. `nonce`
/// holds the 12 nonce bytes and four zero bytes.
TC_GCM_TARGET inline __m128i CounterBlock(__m128i nonce, uint32_t counter) {
  return _mm_xor_si128(
      nonce, _mm_set_epi32(static_cast<int>(__builtin_bswap32(counter)), 0,
                           0, 0));
}

/// out[0, n) = in[0, n) ^ stream[0, n), for n <= 16.
TC_GCM_TARGET inline void XorBlock(__m128i stream, const uint8_t* in,
                                   uint8_t* out, size_t n) {
  if (n == 16) {
    const __m128i d = _mm_loadu_si128(reinterpret_cast<const __m128i*>(in));
    _mm_storeu_si128(reinterpret_cast<__m128i*>(out),
                     _mm_xor_si128(d, stream));
    return;
  }
  alignas(16) uint8_t last[16] = {};
  std::memcpy(last, in, n);
  const __m128i d = _mm_load_si128(reinterpret_cast<const __m128i*>(last));
  _mm_store_si128(reinterpret_cast<__m128i*>(last), _mm_xor_si128(d, stream));
  std::memcpy(out, last, n);
}

/// AES blocks per pass. The first pass encrypts H = E(0), the tag mask
/// E(J0) and the first kFirstStream keystream blocks E(J0 + 1), ...; each
/// later pass encrypts the next kLanes keystream blocks.
constexpr size_t kLanes = 8;
constexpr size_t kFirstStream = kLanes - 2;

/// AES-128-GCM with a 96-bit nonce on AES-NI and PCLMULQDQ, from in[0, n)
/// to out[0, n) (which may be the same bytes). The first pass runs the key
/// schedule between its rounds, in registers; only a payload longer than
/// its keystream also stores the schedule on the stack, for the later
/// passes, and scrubs it. Seal (kOpen false) encrypts, then writes the tag
/// over the ciphertext to `tag`. Open computes the tag over `in` first and
/// returns false, having written nothing, unless it equals `tag`; then it
/// decrypts.
template <bool kOpen>
TC_GCM_TARGET bool NativeGcm(const Key128& key, const uint8_t* nonce,
                             BytesView aad, const uint8_t* in, size_t n,
                             uint8_t* out,
                             std::conditional_t<kOpen, const uint8_t*,
                                                uint8_t*> tag) {
  alignas(16) uint8_t nonce_bytes[16] = {};
  std::memcpy(nonce_bytes, nonce, kGcmNonceSize);
  const __m128i nonce_block =
      _mm_load_si128(reinterpret_cast<const __m128i*>(nonce_bytes));
  __m128i b[kLanes];
  b[0] = _mm_setzero_si128();
#pragma GCC unroll 8
  for (size_t j = 1; j < kLanes; ++j) {
    b[j] = CounterBlock(nonce_block, static_cast<uint32_t>(j));
  }
  TC_SECRET __m128i rk[11];
  const bool more = n > kFirstStream * 16;
  internal::AesEncryptScheduling(
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(key.data())), b,
      more ? rk : nullptr);
  const auto scrub = [&] {
    if (more) {
      SecureZero(MutableBytesView(reinterpret_cast<uint8_t*>(rk), sizeof(rk)));
    }
  };

  if constexpr (kOpen) {
    Block128 computed;
    _mm_storeu_si128(reinterpret_cast<__m128i*>(computed.data()),
                     GcmTag(b[0], b[1], aad, in, n));
    if (!ConstantTimeEqual(BytesView(computed), BytesView(tag, kGcmTagSize))) {
      scrub();
      return false;
    }
  }
  size_t done = 0;
#pragma GCC unroll 6
  for (size_t j = 0; j < kFirstStream && done < n; ++j) {
    const size_t len = std::min<size_t>(16, n - done);
    XorBlock(b[2 + j], in + done, out + done, len);
    done += len;
  }
  for (uint32_t counter = kLanes; done < n; counter += kLanes) {
    __m128i stream[kLanes];
#pragma GCC unroll 8
    for (size_t j = 0; j < kLanes; ++j) {
      stream[j] = CounterBlock(nonce_block, counter + static_cast<uint32_t>(j));
    }
    internal::AesEncryptLanes(rk, stream);
#pragma GCC unroll 8
    for (size_t j = 0; j < kLanes && done < n; ++j) {
      const size_t len = std::min<size_t>(16, n - done);
      XorBlock(stream[j], in + done, out + done, len);
      done += len;
    }
  }
  scrub();
  if constexpr (!kOpen) {
    _mm_storeu_si128(reinterpret_cast<__m128i*>(tag),
                     GcmTag(b[0], b[1], aad, out, n));
  }
  return true;
}

/// x ^ y ^ z in one instruction.
TC_VAES_TARGET inline __m512i Xor3(__m512i x, __m512i y, __m512i z) {
  return _mm512_ternarylogic_epi64(x, y, z, 0x96);
}

/// Reflect on each 128-bit lane.
TC_VAES_TARGET inline __m512i Reflect4(__m512i x) {
  return _mm512_shuffle_epi8(
      x, _mm512_broadcast_i32x4(_mm_set_epi8(0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10,
                                             11, 12, 13, 14, 15)));
}

/// GfMul on each 128-bit lane: four GHASH products at once, with Reduce's
/// shift and fold.
TC_VAES_TARGET inline __m512i GfMul4(__m512i a, __m512i b) {
  const __m512i mid = _mm512_xor_si512(_mm512_clmulepi64_epi128(a, b, 0x10),
                                       _mm512_clmulepi64_epi128(a, b, 0x01));
  __m512i lo = _mm512_xor_si512(_mm512_clmulepi64_epi128(a, b, 0x00),
                                _mm512_bslli_epi128(mid, 8));
  __m512i hi = _mm512_xor_si512(_mm512_clmulepi64_epi128(a, b, 0x11),
                                _mm512_bsrli_epi128(mid, 8));
  const __m512i lo_carry = _mm512_srli_epi32(lo, 31);
  const __m512i hi_carry = _mm512_srli_epi32(hi, 31);
  lo = _mm512_or_si512(_mm512_slli_epi32(lo, 1),
                       _mm512_bslli_epi128(lo_carry, 4));
  hi = _mm512_ternarylogic_epi64(_mm512_slli_epi32(hi, 1),
                                 _mm512_bslli_epi128(hi_carry, 4),
                                 _mm512_bsrli_epi128(lo_carry, 12), 0xfe);
  __m512i fold = Xor3(_mm512_slli_epi32(lo, 31), _mm512_slli_epi32(lo, 30),
                      _mm512_slli_epi32(lo, 25));
  const __m512i fold_hi = _mm512_bsrli_epi128(fold, 4);
  lo = _mm512_xor_si512(lo, _mm512_bslli_epi128(fold, 12));
  fold = Xor3(Xor3(_mm512_srli_epi32(lo, 1), _mm512_srli_epi32(lo, 2),
                   _mm512_srli_epi32(lo, 7)),
              fold_hi, lo);
  return _mm512_xor_si512(hi, fold);
}

TC_VAES_TARGET inline void SplitLanes(__m512i v,
                                      __m128i (&x)[kCryptoLanes]) {
  x[0] = _mm512_castsi512_si128(v);
  x[1] = _mm512_extracti32x4_epi32(v, 1);
  x[2] = _mm512_extracti32x4_epi32(v, 2);
  x[3] = _mm512_extracti32x4_epi32(v, 3);
}

/// The byte mask of p[at, at + 16) cut at n; at < n.
inline __mmask16 BlockMask(size_t at, size_t n) {
  return n - at >= 16 ? 0xffff : static_cast<__mmask16>((1u << (n - at)) - 1);
}

/// p[at, at + 16), zero past n.
TC_VAES_TARGET inline __m128i LoadBlock(const uint8_t* p, size_t at,
                                        size_t n) {
  return _mm_maskz_loadu_epi8(BlockMask(at, n), p + at);
}

/// Block `counter` of every lane: each lane's nonce || counter.
TC_VAES_TARGET inline __m512i CounterLanes(__m512i nonces, uint32_t counter) {
  return _mm512_xor_si512(
      nonces, _mm512_broadcast_i32x4(_mm_set_epi32(
                  static_cast<int>(__builtin_bswap32(counter)), 0, 0, 0)));
}

/// NativeGcm<false> on two to four lanes, each with its nonce already
/// written. The first pass encrypts H, E(J0) and six keystream blocks of
/// every lane under the four schedules; later passes run eight more blocks
/// while any lane has plaintext left. GHASH step k absorbs block k of each
/// lane's AAD || ciphertext || lengths sequence, and a lane whose sequence
/// has ended keeps its state.
TC_VAES_TARGET void VaesGcmSeal(std::span<const GcmSealLane> lanes) {
  const size_t n = lanes.size();
  const Key128* keys[kCryptoLanes];
  __m128i nonce[kCryptoLanes] = {};
  const uint8_t* in[kCryptoLanes] = {};
  uint8_t* ct[kCryptoLanes] = {};
  size_t len[kCryptoLanes] = {};
  size_t aad_blocks[kCryptoLanes] = {};
  size_t ghash_steps[kCryptoLanes] = {};
  size_t blocks = 0;
  size_t steps = 0;
  for (size_t l = 0; l < n; ++l) {
    const GcmSealLane& lane = lanes[l];
    keys[l] = lane.key;
    nonce[l] = _mm_maskz_loadu_epi8(0x0fff, lane.out);
    in[l] = lane.plaintext.data();
    ct[l] = lane.out + kGcmNonceSize;
    len[l] = lane.plaintext.size();
    aad_blocks[l] = (lane.aad.size() + 15) / 16;
    ghash_steps[l] = aad_blocks[l] + (len[l] + 15) / 16 + 1;
    blocks = std::max(blocks, (len[l] + 15) / 16);
    steps = std::max(steps, ghash_steps[l]);
  }
  const __m512i nonces = internal::JoinLanes(nonce);

  // Keystream block i is counter i + 2, and lane l's block i covers its
  // bytes [16i, 16i + 16).
  const auto xor_block = [&](__m512i stream, size_t i) TC_VAES_TARGET {
    __m128i s[kCryptoLanes];
    SplitLanes(stream, s);
    for (size_t l = 0; l < n; ++l) {
      const size_t at = 16 * i;
      if (at >= len[l]) continue;
      _mm_mask_storeu_epi8(
          ct[l] + at, BlockMask(at, len[l]),
          _mm_xor_si128(LoadBlock(in[l], at, len[l]), s[l]));
    }
  };
  __m512i b[kLanes];
  b[0] = _mm512_setzero_si512();
#pragma GCC unroll 8
  for (size_t j = 1; j < kLanes; ++j) {
    b[j] = CounterLanes(nonces, static_cast<uint32_t>(j));
  }
  TC_SECRET __m512i rk[11];
  const bool more = blocks > kFirstStream;
  internal::Aes4EncryptScheduling(internal::LoadKeyLanes(keys, n), b,
                                  more ? rk : nullptr);
  for (size_t i = 0; i < kFirstStream && i < blocks; ++i) {
    xor_block(b[2 + i], i);
  }
  if (more) {
    for (uint32_t counter = kLanes; counter - 2 < blocks; counter += kLanes) {
      __m512i stream[kLanes];
#pragma GCC unroll 8
      for (size_t j = 0; j < kLanes; ++j) {
        stream[j] = CounterLanes(nonces, counter + static_cast<uint32_t>(j));
      }
      internal::Aes4EncryptLanes(rk, stream);
      for (size_t j = 0; j < kLanes && counter + j - 2 < blocks; ++j) {
        xor_block(stream[j], counter + j - 2);
      }
    }
    SecureZero(MutableBytesView(reinterpret_cast<uint8_t*>(rk), sizeof(rk)));
  }

  const __m512i h = Reflect4(b[0]);
  __m512i x = _mm512_setzero_si512();
  for (size_t k = 0; k < steps; ++k) {
    __m128i block[kCryptoLanes] = {};
    __mmask8 active = 0;
    for (size_t l = 0; l < n; ++l) {
      if (k >= ghash_steps[l]) continue;
      active |= static_cast<__mmask8>(3u << (2 * l));
      const BytesView aad = lanes[l].aad;
      if (k < aad_blocks[l]) {
        block[l] = LoadBlock(aad.data(), 16 * k, aad.size());
      } else if (k + 1 < ghash_steps[l]) {
        block[l] = LoadBlock(ct[l], 16 * (k - aad_blocks[l]), len[l]);
      } else {
        block[l] = Reflect(
            _mm_set_epi64x(static_cast<long long>(aad.size() * 8),
                           static_cast<long long>(len[l] * 8)));
      }
    }
    x = _mm512_mask_mov_epi64(
        x, active,
        GfMul4(_mm512_xor_si512(x, Reflect4(internal::JoinLanes(block))), h));
  }
  __m128i tag[kCryptoLanes];
  SplitLanes(_mm512_xor_si512(Reflect4(x), b[1]), tag);
  for (size_t l = 0; l < n; ++l) {
    _mm_storeu_si128(reinterpret_cast<__m128i*>(ct[l] + len[l]), tag[l]);
  }
}

#endif  // TC_NATIVE_KERNELS

/// Seals `plaintext` under a fresh nonce into out[0, kGcmNonceSize +
/// plaintext.size() + kGcmTagSize): the plaintext may already sit at
/// out + kGcmNonceSize.
void SealOne(const Key128& key, BytesView plaintext, BytesView aad,
             uint8_t* out) {
  uint8_t* nonce = out;
  uint8_t* data = nonce + kGcmNonceSize;
  const size_t len = plaintext.size();
  uint8_t* tag = data + len;
  NextNonce(nonce);

#if defined(TC_NATIVE_KERNELS)
  if (GcmIsNative()) {
    NativeGcm<false>(key, nonce, aad, plaintext.data(), len, data, tag);
    return;
  }
#endif
  if (len > 0 && plaintext.data() != data) {
    std::memcpy(data, plaintext.data(), len);
  }

  EVP_CIPHER_CTX* ctx = ThreadCtx();
  if (EVP_EncryptInit_ex2(ctx, GcmCipherFor(ctx), key.data(), nonce,
                          nullptr) != 1) {
    FatalOpenSsl("EncryptInit(gcm)");
  }
  int out_len = 0;
  if (!aad.empty() &&
      EVP_EncryptUpdate(ctx, nullptr, &out_len, aad.data(),
                        static_cast<int>(aad.size())) != 1) {
    FatalOpenSsl("EncryptUpdate(aad)");
  }
  // GCM encrypts in place: the output may be the input.
  if (len > 0 && EVP_EncryptUpdate(ctx, data, &out_len, data,
                                   static_cast<int>(len)) != 1) {
    FatalOpenSsl("EncryptUpdate");
  }
  int final_len = 0;
  if (EVP_EncryptFinal_ex(ctx, data + out_len, &final_len) != 1) {
    FatalOpenSsl("EncryptFinal");
  }
  if (EVP_CIPHER_CTX_ctrl(ctx, EVP_CTRL_GCM_GET_TAG, kGcmTagSize, tag) != 1) {
    FatalOpenSsl("GET_TAG");
  }
}

/// The component-wise uint64 difference leaf_i - leaf_next (mod 2^64 per
/// lane), the input of a payload key's hash step.
Key128 LeafDifference(const Key128& leaf_i, const Key128& leaf_next) {
  uint64_t a[2], b[2];
  std::memcpy(a, leaf_i.data(), 16);
  std::memcpy(b, leaf_next.data(), 16);
  a[0] -= b[0];
  a[1] -= b[1];
  Key128 d;
  std::memcpy(d.data(), a, 16);
  return d;
}

}  // namespace

bool GcmIsNative() { return CpuHas(kCpuAesNi | kCpuPclmul); }

Bytes GcmSeal(const Key128& key, BytesView plaintext, BytesView aad) {
  Bytes out;
  GcmSealAppend(key, plaintext, aad, out);
  return out;
}

void GcmSealAppend(const Key128& key, BytesView plaintext, BytesView aad,
                   Bytes& out) {
  const size_t at = out.size();
  out.resize(at + kGcmNonceSize + plaintext.size() + kGcmTagSize);
  SealOne(key, plaintext, aad, out.data() + at);
}

void GcmSealLanes(std::span<const GcmSealLane> lanes) {
  assert(lanes.size() <= kCryptoLanes);
#if defined(TC_NATIVE_KERNELS)
  if (lanes.size() > 1 && CpuHasLanes()) {
    for (const GcmSealLane& lane : lanes) NextNonce(lane.out);
    VaesGcmSeal(lanes);
    return;
  }
#endif
  for (const GcmSealLane& lane : lanes) {
    SealOne(*lane.key, lane.plaintext, lane.aad, lane.out);
  }
}

Result<Bytes> GcmOpen(const Key128& key, BytesView sealed, BytesView aad) {
  if (sealed.size() < kGcmNonceSize + kGcmTagSize) {
    return DataLoss("sealed blob too short");
  }
  const uint8_t* nonce = sealed.data();
  const uint8_t* ct = sealed.data() + kGcmNonceSize;
  size_t ct_len = sealed.size() - kGcmNonceSize - kGcmTagSize;
  const uint8_t* tag = ct + ct_len;

#if defined(TC_NATIVE_KERNELS)
  if (GcmIsNative()) {
    // Authenticate first: no plaintext is written unless the tag matches.
    Bytes plaintext(ct_len);
    if (!NativeGcm<true>(key, nonce, aad, ct, ct_len, plaintext.data(),
                         tag)) {
      return DataLoss("GCM authentication failed (tampered or wrong key)");
    }
    return plaintext;
  }
#endif

  EVP_CIPHER_CTX* ctx = ThreadCtx();
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
  // The difference of the two leaves, then MSB128(SHA-256(d)), which is
  // one hash-chain step.
  Key128 key = LeafDifference(leaf_i, leaf_next);
  Sha256ChainWalk(key, 1);
  return key;
}

void ChunkPayloadKeys(std::span<const Key128> leaves, std::span<Key128> keys) {
  assert(leaves.size() == keys.size() + 1);
  for (size_t j = 0; j < keys.size(); ++j) {
    keys[j] = LeafDifference(leaves[j], leaves[j + 1]);
  }
  size_t j = 0;
  for (; j + 1 < keys.size(); j += 2) {
    Sha256ChainWalkPair(keys[j], 1, keys[j + 1], 1);
  }
  if (j < keys.size()) Sha256ChainWalk(keys[j], 1);
}

}  // namespace tc::crypto
