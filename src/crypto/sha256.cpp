#include "crypto/sha256.hpp"

#include <openssl/evp.h>
#include <openssl/hmac.h>

#include <cassert>
#include <cstring>

#include "crypto/evp_ctx.hpp"

// The one-block fast path uses the SHA extensions (SHA-NI). Only the
// compression function is compiled for them, through a target attribute, so
// the rest of this file stays baseline x86 and CpuHasShaNi() gates the call.
#if (defined(__x86_64__) || defined(__i386__)) && defined(__GNUC__)
#define TC_SHANI_COMPILED 1
#include <cpuid.h>
#include <immintrin.h>
#endif

namespace tc::crypto {

using internal::FatalOpenSsl;

namespace {

#if defined(TC_SHANI_COMPILED)

// A message of at most this many bytes leaves room in its one 64-byte
// block for the 0x80 terminator and the 8-byte bit length.
constexpr size_t kOneBlockMax = 55;

/// True if this CPU has the SHA extensions (CPUID leaf 7, EBX bit 29).
/// Cached for the same reason as CpuHasAesNi(): CPUID can be a VM exit. The
/// compression also needs SSSE3 and SSE4.1, which every SHA-NI CPU has, but
/// they are cheap to check.
bool CpuHasShaNi() {
  static const bool has_shani = [] {
    unsigned int eax, ebx, ecx, edx;
    if (!__get_cpuid(1, &eax, &ebx, &ecx, &edx)) return false;
    if ((ecx & bit_SSSE3) == 0 || (ecx & bit_SSE4_1) == 0) return false;
    if (!__get_cpuid_count(7, 0, &eax, &ebx, &ecx, &edx)) return false;
    return (ebx & bit_SHA) != 0;
  }();
  return has_shani;
}

alignas(16) constexpr uint32_t kRoundConstants[64] = {
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1,
    0x923f82a4, 0xab1c5ed5, 0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3,
    0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174, 0xe49b69c1, 0xefbe4786,
    0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147,
    0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13,
    0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85, 0xa2bfe8a1, 0xa81a664b,
    0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a,
    0x5b9cca4f, 0x682e6ff3, 0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208,
    0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2};

/// SHA-256 of one padded 64-byte block from the standard initial state.
/// The state runs in the ABEF/CDGH register layout that SHA256RNDS2 wants;
/// each of the 16 steps does four rounds and extends the message schedule
/// with SHA256MSG1/MSG2 four words ahead of the rounds that need them.
__attribute__((target("sha,ssse3,sse4.1"))) Sha256Digest ShaNiCompress(
    const uint8_t* block) {
  // Reverses the bytes of each 32-bit lane: SHA-256 words are big-endian.
  const __m128i bswap =
      _mm_set_epi64x(0x0c0d0e0f08090a0bULL, 0x0405060700010203ULL);
  const __m128i* k = reinterpret_cast<const __m128i*>(kRoundConstants);
  const __m128i abef_init =
      _mm_set_epi32(0x6a09e667, 0xbb67ae85, 0x510e527f, 0x9b05688c);
  const __m128i cdgh_init =
      _mm_set_epi32(0x3c6ef372, 0xa54ff53a, 0x1f83d9ab, 0x5be0cd19);
  __m128i abef = abef_init;
  __m128i cdgh = cdgh_init;
  __m128i w[4];
  for (int i = 0; i < 4; ++i) {
    w[i] = _mm_shuffle_epi8(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(block + 16 * i)),
        bswap);
  }
#pragma GCC unroll 16
  for (int r = 0; r < 16; ++r) {
    const __m128i cur = w[r & 3];
    __m128i wk = _mm_add_epi32(cur, _mm_load_si128(&k[r]));
    cdgh = _mm_sha256rnds2_epu32(cdgh, abef, wk);
    if (r >= 3 && r < 15) {
      // Finish the words of step r + 1 from those of steps r - 3 .. r.
      __m128i& next = w[(r + 1) & 3];
      next = _mm_add_epi32(next, _mm_alignr_epi8(cur, w[(r + 3) & 3], 4));
      next = _mm_sha256msg2_epu32(next, cur);
    }
    wk = _mm_shuffle_epi32(wk, 0x0e);
    abef = _mm_sha256rnds2_epu32(abef, cdgh, wk);
    if (r >= 1 && r < 13) {
      __m128i& prev = w[(r + 3) & 3];
      prev = _mm_sha256msg1_epu32(prev, cur);
    }
  }
  abef = _mm_add_epi32(abef, abef_init);
  cdgh = _mm_add_epi32(cdgh, cdgh_init);
  // Back to DCBA / HGFE order, then big-endian bytes.
  const __m128i feba = _mm_shuffle_epi32(abef, 0x1b);
  const __m128i dchg = _mm_shuffle_epi32(cdgh, 0xb1);
  const __m128i dcba = _mm_blend_epi16(feba, dchg, 0xf0);
  const __m128i hgfe = _mm_alignr_epi8(dchg, feba, 8);
  Sha256Digest out;
  _mm_storeu_si128(reinterpret_cast<__m128i*>(out.data()),
                   _mm_shuffle_epi8(dcba, bswap));
  _mm_storeu_si128(reinterpret_cast<__m128i*>(out.data() + 16),
                   _mm_shuffle_epi8(hgfe, bswap));
  return out;
}

/// SHA-256 of a || b, which together hold at most kOneBlockMax bytes.
Sha256Digest ShaNiOneBlock(BytesView a, BytesView b) {
  const size_t n = a.size() + b.size();
  // The block may hold secret chain state: scrub it after use.
  TC_SECRET alignas(16) std::array<uint8_t, 64> block{};
  if (!a.empty()) std::memcpy(block.data(), a.data(), a.size());
  if (!b.empty()) std::memcpy(block.data() + a.size(), b.data(), b.size());
  block[n] = 0x80;
  const uint64_t bits = static_cast<uint64_t>(n) * 8;
  for (int i = 0; i < 8; ++i) {
    block[63 - i] = static_cast<uint8_t>(bits >> (8 * i));
  }
  Sha256Digest out = ShaNiCompress(block.data());
  SecureZero(block);
  return out;
}

#endif  // TC_SHANI_COMPILED

Sha256Digest EvpSha256Concat(BytesView a, BytesView b) {
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

}  // namespace

Sha256Digest Sha256(BytesView data) {
  return Sha256Concat(data, {});
}

Sha256Digest Sha256Concat(BytesView a, BytesView b) {
#if defined(TC_SHANI_COMPILED)
  if (a.size() + b.size() <= kOneBlockMax && CpuHasShaNi()) {
    return ShaNiOneBlock(a, b);
  }
#endif
  return EvpSha256Concat(a, b);
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
