#include "crypto/sha256.hpp"

#include <openssl/evp.h>
#include <openssl/hmac.h>

#include <algorithm>
#include <cassert>
#include <cstring>

#include "crypto/evp_ctx.hpp"

// The one-block fast path and the chain walk use the SHA extensions
// (SHA-NI). Only the functions that run them are compiled for them, through
// a target attribute, so the rest of this file stays baseline x86 and
// CpuHasShaNi() gates the calls.
#if (defined(__x86_64__) || defined(__i386__)) && defined(__GNUC__)
#define TC_SHANI_COMPILED 1
#define TC_SHANI_TARGET __attribute__((target("sha,ssse3,sse4.1")))
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

/// The 64 rounds of SHA-256 from the standard initial state over N
/// independent one-block messages, each given as its 16 big-endian words in
/// four registers (lane i of w[j][q] is word 4q + i). Leaves each message's
/// digest, feed-forward included, in the ABEF/CDGH register layout that
/// SHA256RNDS2 wants. Each of the 16 steps does four rounds and extends the
/// message schedule with SHA256MSG1/MSG2 four words ahead of the rounds
/// that need them; N > 1 interleaves the messages' rounds so that their
/// dependency chains overlap.
template <size_t N>
TC_SHANI_TARGET inline void ShaNiRounds(__m128i (&w)[N][4],
                                        __m128i (&abef)[N],
                                        __m128i (&cdgh)[N]) {
  const __m128i* k = reinterpret_cast<const __m128i*>(kRoundConstants);
  const __m128i abef_init =
      _mm_set_epi32(0x6a09e667, 0xbb67ae85, 0x510e527f, 0x9b05688c);
  const __m128i cdgh_init =
      _mm_set_epi32(0x3c6ef372, 0xa54ff53a, 0x1f83d9ab, 0x5be0cd19);
  for (size_t j = 0; j < N; ++j) {
    abef[j] = abef_init;
    cdgh[j] = cdgh_init;
  }
#pragma GCC unroll 16
  for (int r = 0; r < 16; ++r) {
    const __m128i kr = _mm_load_si128(&k[r]);
#pragma GCC unroll 2
    for (size_t j = 0; j < N; ++j) {
      const __m128i cur = w[j][r & 3];
      __m128i wk = _mm_add_epi32(cur, kr);
      cdgh[j] = _mm_sha256rnds2_epu32(cdgh[j], abef[j], wk);
      if (r >= 3 && r < 15) {
        // Finish the words of step r + 1 from those of steps r - 3 .. r.
        __m128i& next = w[j][(r + 1) & 3];
        next =
            _mm_add_epi32(next, _mm_alignr_epi8(cur, w[j][(r + 3) & 3], 4));
        next = _mm_sha256msg2_epu32(next, cur);
      }
      wk = _mm_shuffle_epi32(wk, 0x0e);
      abef[j] = _mm_sha256rnds2_epu32(abef[j], cdgh[j], wk);
      if (r >= 1 && r < 13) {
        __m128i& prev = w[j][(r + 3) & 3];
        prev = _mm_sha256msg1_epu32(prev, cur);
      }
    }
  }
  for (size_t j = 0; j < N; ++j) {
    abef[j] = _mm_add_epi32(abef[j], abef_init);
    cdgh[j] = _mm_add_epi32(cdgh[j], cdgh_init);
  }
}

/// Four big-endian words from p (lane i = word i), and back: SHA-256 words
/// are big-endian, so each 32-bit lane's bytes are reversed.
TC_SHANI_TARGET inline __m128i ByteSwapWords(__m128i x) {
  return _mm_shuffle_epi8(
      x, _mm_set_epi64x(0x0c0d0e0f08090a0bULL, 0x0405060700010203ULL));
}
TC_SHANI_TARGET inline __m128i LoadWords(const uint8_t* p) {
  return ByteSwapWords(_mm_loadu_si128(reinterpret_cast<const __m128i*>(p)));
}
TC_SHANI_TARGET inline void StoreWords(__m128i words, uint8_t* p) {
  _mm_storeu_si128(reinterpret_cast<__m128i*>(p), ByteSwapWords(words));
}

/// Digest words A..D (lane i = word i) from the ABEF/CDGH layout.
TC_SHANI_TARGET inline __m128i WordsAbcd(__m128i abef, __m128i cdgh) {
  return _mm_blend_epi16(_mm_shuffle_epi32(abef, 0x1b),
                         _mm_shuffle_epi32(cdgh, 0xb1), 0xf0);
}

/// Digest words E..H (lane i = word 4 + i) from the ABEF/CDGH layout.
TC_SHANI_TARGET inline __m128i WordsEfgh(__m128i abef, __m128i cdgh) {
  return _mm_alignr_epi8(_mm_shuffle_epi32(cdgh, 0xb1),
                         _mm_shuffle_epi32(abef, 0x1b), 8);
}

/// SHA-256 of one padded 64-byte block.
TC_SHANI_TARGET Sha256Digest ShaNiCompress(const uint8_t* block) {
  __m128i w[1][4];
  for (int i = 0; i < 4; ++i) w[0][i] = LoadWords(block + 16 * i);
  __m128i abef[1], cdgh[1];
  ShaNiRounds(w, abef, cdgh);
  Sha256Digest out;
  StoreWords(WordsAbcd(abef[0], cdgh[0]), out.data());
  StoreWords(WordsEfgh(abef[0], cdgh[0]), out.data() + 16);
  return out;
}

/// The one block of a 16-byte message whose words are `s`: the message,
/// the 0x80 terminator, zeros and the bit length, 128.
TC_SHANI_TARGET inline void PadSixteenBytes(__m128i s, __m128i (&w)[4]) {
  w[0] = s;
  w[1] = _mm_set_epi32(0, 0, 0, static_cast<int>(0x80000000u));
  w[2] = _mm_setzero_si128();
  w[3] = _mm_set_epi32(128, 0, 0, 0);
}

/// One chain step, s <- MSB128(SHA-256(s)), on each of N states held as
/// words. A digest's first four words are the next message's first four,
/// so a walk keeps its state in one register from the first step to the
/// last.
template <size_t N>
TC_SHANI_TARGET inline void ShaNiChainStep(__m128i (&s)[N]) {
  __m128i w[N][4], abef[N], cdgh[N];
  for (size_t j = 0; j < N; ++j) PadSixteenBytes(s[j], w[j]);
  ShaNiRounds(w, abef, cdgh);
  for (size_t j = 0; j < N; ++j) s[j] = WordsAbcd(abef[j], cdgh[j]);
}

TC_SHANI_TARGET void ShaNiChainWalk(uint8_t* state, uint64_t steps) {
  __m128i s[1] = {LoadWords(state)};
  for (; steps > 0; --steps) ShaNiChainStep(s);
  StoreWords(s[0], state);
}

/// Both walks in lockstep for as many steps as both take, so that one
/// walk's rounds fill the other's latency; then the longer one alone.
TC_SHANI_TARGET void ShaNiChainWalkPair(uint8_t* a, uint64_t a_steps,
                                        uint8_t* b, uint64_t b_steps) {
  const uint64_t both = std::min(a_steps, b_steps);
  __m128i s[2] = {LoadWords(a), LoadWords(b)};
  for (uint64_t n = both; n > 0; --n) ShaNiChainStep(s);
  StoreWords(s[0], a);
  StoreWords(s[1], b);
  ShaNiChainWalk(a, a_steps - both);
  ShaNiChainWalk(b, b_steps - both);
}

TC_SHANI_TARGET void ShaNiChainKey(const uint8_t* state, uint8_t* key) {
  __m128i w[1][4];
  PadSixteenBytes(LoadWords(state), w[0]);
  __m128i abef[1], cdgh[1];
  ShaNiRounds(w, abef, cdgh);
  StoreWords(WordsEfgh(abef[0], cdgh[0]), key);
}

/// SHA-256 of a || b, which together hold at most kOneBlockMax bytes.
Sha256Digest ShaNiOneBlock(BytesView a, BytesView b) {
  const size_t n = a.size() + b.size();
  // The block may hold key material: scrub it after use.
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

void Sha256ChainWalk(Key128& state, uint64_t steps) {
#if defined(TC_SHANI_COMPILED)
  if (CpuHasShaNi()) {
    ShaNiChainWalk(state.data(), steps);
    return;
  }
#endif
  if (steps == 0) return;
  Sha256Digest d;
  for (; steps > 0; --steps) {
    d = Sha256(state);
    std::memcpy(state.data(), d.data(), state.size());
  }
  SecureZero(d);
}

void Sha256ChainWalkPair(Key128& a, uint64_t a_steps, Key128& b,
                         uint64_t b_steps) {
#if defined(TC_SHANI_COMPILED)
  if (CpuHasShaNi()) {
    ShaNiChainWalkPair(a.data(), a_steps, b.data(), b_steps);
    return;
  }
#endif
  Sha256ChainWalk(a, a_steps);
  Sha256ChainWalk(b, b_steps);
}

Key128 Sha256ChainKey(const Key128& state) {
  Key128 key;
#if defined(TC_SHANI_COMPILED)
  if (CpuHasShaNi()) {
    ShaNiChainKey(state.data(), key.data());
    return key;
  }
#endif
  Sha256Digest d = Sha256(state);
  std::memcpy(key.data(), d.data() + key.size(), key.size());
  SecureZero(d);
  return key;
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
