#include "crypto/aesni.hpp"

#include <cassert>
#include <cstdlib>
#include <cstring>

// The hardware path needs both x86 and a translation unit compiled with
// -maes (the build system sets that only where supported). Everything else
// gets the portable fallback at the bottom of this file; runtime dispatch in
// MakePrg() and FieldKeys keeps callers off AesNiBlock when CpuHasAesNi() is
// false.
#if defined(__AES__) && (defined(__x86_64__) || defined(__i386__))
#define TC_AESNI_COMPILED 1
#include <cpuid.h>
#include <immintrin.h>
#endif

namespace tc::crypto {

namespace {

// Operators can force the software dispatch path (e.g. to exercise the
// fallback on AES-NI hardware, or to sidestep a hypervisor CPUID quirk).
bool AesNiDisabledByEnv() {
  const char* v = std::getenv("TC_DISABLE_AESNI");
  return v != nullptr && v[0] != '\0' && v[0] != '0';
}

}  // namespace

#if defined(TC_AESNI_COMPILED)

bool CpuHasAesNi() {
  // CPUID is serializing and, under virtualization, a VM exit — ~10 µs per
  // call on some hypervisors. MakePrg() probes this on every construction
  // (e.g. each keystream re-anchor), so cache the answer once. The key
  // schedule also needs SSSE3, which every AES-NI CPU has.
  static const bool has_aesni = [] {
    if (AesNiDisabledByEnv()) return false;
    unsigned int eax, ebx, ecx, edx;
    if (!__get_cpuid(1, &eax, &ebx, &ecx, &edx)) return false;
    return (ecx & bit_AES) != 0 && (ecx & bit_SSSE3) != 0;
  }();
  return has_aesni;
}

namespace {

// The AES-128 key schedule by AESENCLAST (Gueron's method, from Intel's
// AES-NI white paper) rather than AESKEYGENASSIST, which has low throughput
// on recent cores. Round i needs SubWord(RotWord(w3)) ^ Rcon_i in every
// word: PSHUFB rotates the last word and broadcasts it to all four lanes,
// so AESENCLAST's ShiftRows moves nothing, its SubBytes is SubWord and its
// round-key XOR adds Rcon_i. Two shifted XORs turn (w0, w1, w2, w3) into
// (w0, w0^w1, w0^w1^w2, w0^w1^w2^w3), and adding that word gives the next
// round key. Writes the 11 round keys to `rk`.
__attribute__((target("aes,ssse3"))) void ExpandKey(const uint8_t* key,
                                                    __m128i* rk) {
  constexpr int kRcon[10] = {0x01, 0x02, 0x04, 0x08, 0x10,
                             0x20, 0x40, 0x80, 0x1b, 0x36};
  const __m128i rot_broadcast_w3 = _mm_set1_epi32(0x0c0f0e0d);
  __m128i k = _mm_loadu_si128(reinterpret_cast<const __m128i*>(key));
  _mm_store_si128(&rk[0], k);
#pragma GCC unroll 10
  for (int i = 0; i < 10; ++i) {
    const __m128i sub = _mm_aesenclast_si128(
        _mm_shuffle_epi8(k, rot_broadcast_w3), _mm_set1_epi32(kRcon[i]));
    k = _mm_xor_si128(k, _mm_slli_si128(k, 4));
    k = _mm_xor_si128(k, _mm_slli_si128(k, 8));
    k = _mm_xor_si128(k, sub);
    _mm_store_si128(&rk[i + 1], k);
  }
}

}  // namespace

AesNiBlock::AesNiBlock(const Key128& key) {
  ExpandKey(key.data(), reinterpret_cast<__m128i*>(round_keys_.data()));
}

namespace {

/// Encrypts N independent blocks in place, one round at a time across all
/// of them, so N AES pipelines stay busy instead of one.
/// The loops are unrolled so that `b` lives in registers.
template <size_t N>
inline void EncryptLanes(const __m128i* rk, __m128i (&b)[N]) {
  __m128i k = _mm_load_si128(&rk[0]);
#pragma GCC unroll 8
  for (size_t j = 0; j < N; ++j) b[j] = _mm_xor_si128(b[j], k);
#pragma GCC unroll 9
  for (int i = 1; i < 10; ++i) {
    k = _mm_load_si128(&rk[i]);
#pragma GCC unroll 8
    for (size_t j = 0; j < N; ++j) b[j] = _mm_aesenc_si128(b[j], k);
  }
  k = _mm_load_si128(&rk[10]);
#pragma GCC unroll 8
  for (size_t j = 0; j < N; ++j) b[j] = _mm_aesenclast_si128(b[j], k);
}

inline __m128i Load(const Block128& in) {
  return _mm_loadu_si128(reinterpret_cast<const __m128i*>(in.data()));
}

inline void Store(__m128i b, Block128& out) {
  _mm_storeu_si128(reinterpret_cast<__m128i*>(out.data()), b);
}

template <size_t N>
inline void EncryptRun(const __m128i* rk, const Block128* in, Block128* out) {
  __m128i b[N];
#pragma GCC unroll 8
  for (size_t j = 0; j < N; ++j) b[j] = Load(in[j]);
  EncryptLanes(rk, b);
#pragma GCC unroll 8
  for (size_t j = 0; j < N; ++j) Store(b[j], out[j]);
}

}  // namespace

Block128 AesNiBlock::EncryptBlock(const Block128& plaintext) const {
  const __m128i* rk = reinterpret_cast<const __m128i*>(round_keys_.data());
  __m128i b[1] = {Load(plaintext)};
  EncryptLanes(rk, b);
  Block128 out;
  Store(b[0], out);
  return out;
}

void AesNiBlock::EncryptTwoBlocks(const Block128& in0, const Block128& in1,
                                  Block128& out0, Block128& out1) const {
  const __m128i* rk = reinterpret_cast<const __m128i*>(round_keys_.data());
  __m128i b[2] = {Load(in0), Load(in1)};
  EncryptLanes(rk, b);
  Store(b[0], out0);
  Store(b[1], out1);
}

void AesNiBlock::EncryptBlocks(std::span<const Block128> in,
                               std::span<Block128> out) const {
  assert(in.size() == out.size());
  const __m128i* rk = reinterpret_cast<const __m128i*>(round_keys_.data());
  size_t i = 0;
  for (; i + 8 <= in.size(); i += 8) EncryptRun<8>(rk, &in[i], &out[i]);
  if (i + 4 <= in.size()) {
    EncryptRun<4>(rk, &in[i], &out[i]);
    i += 4;
  }
  for (; i < in.size(); ++i) EncryptRun<1>(rk, &in[i], &out[i]);
}

#else  // !TC_AESNI_COMPILED — portable fallback

bool CpuHasAesNi() {
  (void)AesNiDisabledByEnv();  // keep the helper referenced on all paths
  return false;
}

// Without AES-NI codegen the class delegates to the portable implementation.
// CpuHasAesNi() is false here so the dispatch never puts AesNiBlock on a hot
// path; the delegate only runs if someone constructs it directly.
AesNiBlock::AesNiBlock(const Key128& key) {
  std::memcpy(round_keys_.data(), key.data(), key.size());
}

Block128 AesNiBlock::EncryptBlock(const Block128& plaintext) const {
  Key128 key;
  std::memcpy(key.data(), round_keys_.data(), key.size());
  return SoftAes128(key).EncryptBlock(plaintext);
}

void AesNiBlock::EncryptTwoBlocks(const Block128& in0, const Block128& in1,
                                  Block128& out0, Block128& out1) const {
  Key128 key;
  std::memcpy(key.data(), round_keys_.data(), key.size());
  SoftAes128 cipher(key);
  out0 = cipher.EncryptBlock(in0);
  out1 = cipher.EncryptBlock(in1);
}

void AesNiBlock::EncryptBlocks(std::span<const Block128> in,
                               std::span<Block128> out) const {
  Key128 key;
  std::memcpy(key.data(), round_keys_.data(), key.size());
  SoftAes128(key).EncryptBlocks(in, out);
}

#endif  // TC_AESNI_COMPILED

}  // namespace tc::crypto
