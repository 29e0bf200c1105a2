// AES-128 on AES-NI registers: the building blocks of the fused kernels in
// aesni.cpp (the GGM step, HEAC field keys) and aes_gcm.cpp (GCM). Internal
// to src/crypto/. Every function carries its own target attribute, so a
// translation unit needs no -maes flag, and callers gate each call on
// CpuHas(kCpuAesNi) (cpu.hpp).
//
// The key schedule is Gueron's AESENCLAST method (Intel's AES-NI white
// paper) rather than AESKEYGENASSIST, which has low throughput on recent
// cores. A kernel runs it round by round between the rounds of its blocks,
// so a round key lives in a register from the instruction that makes it to
// the AESENC that uses it, and nothing stores the schedule unless a kernel
// asks for a copy to run further blocks with.
//
// The Aes4 forms run the same schedule and rounds on the four 128-bit lanes
// of a zmm register with VAES: four different keys, each on its own lane,
// at about the cost of one. Callers gate them on CpuHasLanes().
#pragma once

#include "crypto/cpu.hpp"
#include "crypto/rand.hpp"

#if defined(TC_NATIVE_KERNELS)

// GCC 12.2's AVX-512 intrinsics start from a self-initialized "undefined"
// vector, which -Wuninitialized reports wherever one inlines (GCC PR
// 105593, fixed in 12.3). The report points into the header, so ignoring
// the warning for the header's own lines silences it and nothing else.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wuninitialized"
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
#include <immintrin.h>
#pragma GCC diagnostic pop

#include <cstddef>

#define TC_AESNI_TARGET __attribute__((target("aes,ssse3")))
#define TC_VAES_TARGET                                                  \
  __attribute__((target("aes,pclmul,ssse3,avx512f,avx512bw,avx512vl," \
                        "vaes,vpclmulqdq")))

namespace tc::crypto::internal {

inline constexpr int kAesRcon[10] = {0x01, 0x02, 0x04, 0x08, 0x10,
                                     0x20, 0x40, 0x80, 0x1b, 0x36};

/// Round key i + 1 from round key i. It needs SubWord(RotWord(w3)) ^ Rcon
/// in every word: PSHUFB rotates the last word and broadcasts it to all
/// four lanes, so AESENCLAST's ShiftRows moves nothing, its SubBytes is
/// SubWord and its round-key XOR adds Rcon. Two shifted XORs turn
/// (w0, w1, w2, w3) into (w0, w0^w1, w0^w1^w2, w0^w1^w2^w3), and adding
/// that word gives the next round key.
TC_AESNI_TARGET inline __m128i AesNextRoundKey(__m128i k, int rcon) {
  const __m128i sub = _mm_aesenclast_si128(
      _mm_shuffle_epi8(k, _mm_set1_epi32(0x0c0f0e0d)), _mm_set1_epi32(rcon));
  k = _mm_xor_si128(k, _mm_slli_si128(k, 4));
  k = _mm_xor_si128(k, _mm_slli_si128(k, 8));
  return _mm_xor_si128(k, sub);
}

/// Encrypts the N blocks `b` in place under `key`, deriving each round key
/// just before the round that uses it. With a non-null `rk` the 11 round
/// keys are also written to rk[0..10], for EncryptLanes on later blocks;
/// the caller then scrubs them.
template <size_t N>
TC_AESNI_TARGET inline void AesEncryptScheduling(__m128i key, __m128i (&b)[N],
                                                 __m128i* rk) {
  __m128i k = key;
  if (rk != nullptr) rk[0] = k;
#pragma GCC unroll 16
  for (size_t j = 0; j < N; ++j) b[j] = _mm_xor_si128(b[j], k);
#pragma GCC unroll 10
  for (int i = 0; i < 10; ++i) {
    k = AesNextRoundKey(k, kAesRcon[i]);
    if (rk != nullptr) rk[i + 1] = k;
    if (i < 9) {
#pragma GCC unroll 16
      for (size_t j = 0; j < N; ++j) b[j] = _mm_aesenc_si128(b[j], k);
    } else {
#pragma GCC unroll 16
      for (size_t j = 0; j < N; ++j) b[j] = _mm_aesenclast_si128(b[j], k);
    }
  }
}

/// Encrypts the N blocks `b` in place under the round keys rk[0..10], one
/// round at a time across all of them, so N AES pipelines stay busy.
template <size_t N>
TC_AESNI_TARGET inline void AesEncryptLanes(const __m128i* rk,
                                            __m128i (&b)[N]) {
#pragma GCC unroll 16
  for (size_t j = 0; j < N; ++j) b[j] = _mm_xor_si128(b[j], rk[0]);
#pragma GCC unroll 9
  for (int i = 1; i < 10; ++i) {
    const __m128i k = rk[i];
#pragma GCC unroll 16
    for (size_t j = 0; j < N; ++j) b[j] = _mm_aesenc_si128(b[j], k);
  }
#pragma GCC unroll 16
  for (size_t j = 0; j < N; ++j) b[j] = _mm_aesenclast_si128(b[j], rk[10]);
}

/// AesNextRoundKey on each 128-bit lane: four key schedules in one step.
TC_VAES_TARGET inline __m512i Aes4NextRoundKey(__m512i k, int rcon) {
  const __m512i sub = _mm512_aesenclast_epi128(
      _mm512_shuffle_epi8(k, _mm512_set1_epi32(0x0c0f0e0d)),
      _mm512_set1_epi32(rcon));
  k = _mm512_xor_si512(k, _mm512_bslli_epi128(k, 4));
  k = _mm512_xor_si512(k, _mm512_bslli_epi128(k, 8));
  return _mm512_xor_si512(k, sub);
}

/// AesEncryptScheduling with lane l of every block under lane l of `key`.
template <size_t N>
TC_VAES_TARGET inline void Aes4EncryptScheduling(__m512i key,
                                                 __m512i (&b)[N],
                                                 __m512i* rk) {
  __m512i k = key;
  if (rk != nullptr) rk[0] = k;
#pragma GCC unroll 16
  for (size_t j = 0; j < N; ++j) b[j] = _mm512_xor_si512(b[j], k);
#pragma GCC unroll 10
  for (int i = 0; i < 10; ++i) {
    k = Aes4NextRoundKey(k, kAesRcon[i]);
    if (rk != nullptr) rk[i + 1] = k;
    if (i < 9) {
#pragma GCC unroll 16
      for (size_t j = 0; j < N; ++j) b[j] = _mm512_aesenc_epi128(b[j], k);
    } else {
#pragma GCC unroll 16
      for (size_t j = 0; j < N; ++j) b[j] = _mm512_aesenclast_epi128(b[j], k);
    }
  }
}

/// AesEncryptLanes on zmm blocks, under the four-lane round keys rk[0..10].
template <size_t N>
TC_VAES_TARGET inline void Aes4EncryptLanes(const __m512i* rk,
                                            __m512i (&b)[N]) {
#pragma GCC unroll 16
  for (size_t j = 0; j < N; ++j) b[j] = _mm512_xor_si512(b[j], rk[0]);
#pragma GCC unroll 9
  for (int i = 1; i < 10; ++i) {
    const __m512i k = rk[i];
#pragma GCC unroll 16
    for (size_t j = 0; j < N; ++j) b[j] = _mm512_aesenc_epi128(b[j], k);
  }
#pragma GCC unroll 16
  for (size_t j = 0; j < N; ++j) b[j] = _mm512_aesenclast_epi128(b[j], rk[10]);
}

/// The zmm register with x[l] in lane l.
TC_VAES_TARGET inline __m512i JoinLanes(const __m128i (&x)[kCryptoLanes]) {
  __m512i v = _mm512_castsi128_si512(x[0]);
  v = _mm512_inserti32x4(v, x[1], 1);
  v = _mm512_inserti32x4(v, x[2], 2);
  return _mm512_inserti32x4(v, x[3], 3);
}

/// Up to four 16-byte keys, key l in lane l; lanes past `n` repeat key 0,
/// so they run on a real schedule and their output is ignored.
TC_VAES_TARGET inline __m512i LoadKeyLanes(const Key128* const* keys,
                                           size_t n) {
  __m128i k[kCryptoLanes];
  for (size_t l = 0; l < kCryptoLanes; ++l) {
    k[l] = _mm_loadu_si128(
        reinterpret_cast<const __m128i*>(keys[l < n ? l : 0]->data()));
  }
  return JoinLanes(k);
}

}  // namespace tc::crypto::internal

#endif
