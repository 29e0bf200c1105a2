#include "crypto/sha256.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "crypto/cpu.hpp"

// Only the SHA-NI compression and chain kernels are compiled for SHA-NI,
// through a target attribute, so the rest of this file stays baseline x86
// and CpuHas(kCpuShaNi) gates the calls.
#if defined(TC_NATIVE_KERNELS)
#define TC_SHANI_TARGET __attribute__((target("sha,ssse3,sse4.1")))
#include <immintrin.h>
#endif

namespace tc::crypto {

namespace {

// A message of at most this many bytes leaves room in its one 64-byte
// block for the 0x80 terminator and the 8-byte bit length.
constexpr size_t kOneBlockMax = 55;

/// The initial state. Every running state is kept in the digest's form:
/// the eight words A..H, big-endian.
constexpr Sha256Digest kInitialState = {
    0x6a, 0x09, 0xe6, 0x67, 0xbb, 0x67, 0xae, 0x85, 0x3c, 0x6e, 0xf3,
    0x72, 0xa5, 0x4f, 0xf5, 0x3a, 0x51, 0x0e, 0x52, 0x7f, 0x9b, 0x05,
    0x68, 0x8c, 0x1f, 0x83, 0xd9, 0xab, 0x5b, 0xe0, 0xcd, 0x19};

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

inline uint32_t Rotr(uint32_t x, int n) { return (x >> n) | (x << (32 - n)); }

inline uint32_t LoadBe32(const uint8_t* p) {
  return uint32_t{p[0]} << 24 | uint32_t{p[1]} << 16 | uint32_t{p[2]} << 8 |
         uint32_t{p[3]};
}

/// The compression function in plain C++ over `n` 64-byte blocks, for CPUs
/// without SHA-NI. The message schedule can hold key material (HMAC's
/// padded keys), so it is scrubbed.
void PortableCompress(uint8_t* state, const uint8_t* p, size_t n) {
  uint32_t h[8] = {}, w[64] = {};
  for (int i = 0; i < 8; ++i) h[i] = LoadBe32(state + 4 * i);
  for (; n > 0; --n, p += 64) {
    for (int i = 0; i < 16; ++i) w[i] = LoadBe32(p + 4 * i);
    for (int i = 16; i < 64; ++i) {
      w[i] = w[i - 16] + w[i - 7] +
             (Rotr(w[i - 15], 7) ^ Rotr(w[i - 15], 18) ^ (w[i - 15] >> 3)) +
             (Rotr(w[i - 2], 17) ^ Rotr(w[i - 2], 19) ^ (w[i - 2] >> 10));
    }
    uint32_t a = h[0], b = h[1], c = h[2], d = h[3];
    uint32_t e = h[4], f = h[5], g = h[6], hh = h[7];
    for (int i = 0; i < 64; ++i) {
      const uint32_t t1 = hh + (Rotr(e, 6) ^ Rotr(e, 11) ^ Rotr(e, 25)) +
                          ((e & f) ^ (~e & g)) + kRoundConstants[i] + w[i];
      const uint32_t t2 = (Rotr(a, 2) ^ Rotr(a, 13) ^ Rotr(a, 22)) +
                          ((a & b) ^ (a & c) ^ (b & c));
      hh = g, g = f, f = e, e = d + t1, d = c, c = b, b = a, a = t1 + t2;
    }
    h[0] += a, h[1] += b, h[2] += c, h[3] += d;
    h[4] += e, h[5] += f, h[6] += g, h[7] += hh;
  }
  for (int i = 0; i < 32; ++i) {
    state[i] = static_cast<uint8_t>(h[i / 4] >> (24 - 8 * (i % 4)));
  }
  SecureZero(MutableBytesView(reinterpret_cast<uint8_t*>(h), sizeof(h)));
  SecureZero(MutableBytesView(reinterpret_cast<uint8_t*>(w), sizeof(w)));
}

#if defined(TC_NATIVE_KERNELS)

/// The 64 rounds of SHA-256 over one block of each of N independent
/// messages, each block given as its 16 big-endian words in four registers
/// (lane i of w[j][q] is word 4q + i). Takes each message's running state
/// in the ABEF/CDGH register layout that SHA256RNDS2 wants and leaves the
/// next one there, feed-forward included. Each of the 16 steps does four
/// rounds and extends the message schedule with SHA256MSG1/MSG2 four words
/// ahead of the rounds that need them; N > 1 interleaves the messages'
/// rounds so that their dependency chains overlap.
template <size_t N>
TC_SHANI_TARGET inline void ShaNiRounds(__m128i (&w)[N][4],
                                        __m128i (&abef)[N],
                                        __m128i (&cdgh)[N]) {
  const __m128i* k = reinterpret_cast<const __m128i*>(kRoundConstants);
  __m128i abef_in[N], cdgh_in[N];
  for (size_t j = 0; j < N; ++j) {
    abef_in[j] = abef[j];
    cdgh_in[j] = cdgh[j];
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
    abef[j] = _mm_add_epi32(abef[j], abef_in[j]);
    cdgh[j] = _mm_add_epi32(cdgh[j], cdgh_in[j]);
  }
}

/// The standard initial state in the ABEF/CDGH layout.
TC_SHANI_TARGET inline void ShaNiInitialState(__m128i& abef, __m128i& cdgh) {
  abef = _mm_set_epi32(0x6a09e667, 0xbb67ae85, 0x510e527f, 0x9b05688c);
  cdgh = _mm_set_epi32(0x3c6ef372, 0xa54ff53a, 0x1f83d9ab, 0x5be0cd19);
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

/// The compression over `n` 64-byte blocks: the running state moves into
/// the ABEF/CDGH layout for the blocks and back after.
TC_SHANI_TARGET void ShaNiCompress(uint8_t* state, const uint8_t* p,
                                   size_t n) {
  const __m128i cdab = _mm_shuffle_epi32(LoadWords(state), 0xb1);
  const __m128i hgfe = _mm_shuffle_epi32(LoadWords(state + 16), 0x1b);
  __m128i abef[1] = {_mm_alignr_epi8(cdab, hgfe, 8)};
  __m128i cdgh[1] = {_mm_blend_epi16(hgfe, cdab, 0xf0)};
  for (; n > 0; --n, p += 64) {
    __m128i w[1][4];
    for (int i = 0; i < 4; ++i) w[0][i] = LoadWords(p + 16 * i);
    ShaNiRounds(w, abef, cdgh);
  }
  StoreWords(WordsAbcd(abef[0], cdgh[0]), state);
  StoreWords(WordsEfgh(abef[0], cdgh[0]), state + 16);
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
  for (size_t j = 0; j < N; ++j) {
    PadSixteenBytes(s[j], w[j]);
    ShaNiInitialState(abef[j], cdgh[j]);
  }
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
  ShaNiInitialState(abef[0], cdgh[0]);
  ShaNiRounds(w, abef, cdgh);
  StoreWords(WordsEfgh(abef[0], cdgh[0]), key);
}

#endif  // TC_NATIVE_KERNELS

using CompressFn = void (*)(uint8_t* state, const uint8_t* blocks, size_t n);

/// SHA-256 of a || b through `compress`: whole blocks straight from the
/// inputs, the rest through one buffered block, then the padding. The
/// buffer and the running states can hold key material (HMAC's padded keys
/// and the states after them): the buffer is scrubbed, and each state
/// overwrites the last, up to the digest.
Sha256Digest HashBlocks(CompressFn compress, BytesView a, BytesView b) {
  Sha256Digest state = kInitialState;
  // Left uninitialized on the one-block hot path: every byte a compression
  // reads is copied in or written by the padding first.
  std::array<uint8_t, 128> tail;
  size_t fill = 0;
  for (BytesView part : {a, b}) {
    while (!part.empty()) {
      if (fill == 0 && part.size() >= 64) {
        compress(state.data(), part.data(), part.size() / 64);
        part = part.subspan(part.size() / 64 * 64);
        continue;
      }
      const size_t take = std::min(part.size(), 64 - fill);
      std::memcpy(tail.data() + fill, part.data(), take);
      part = part.subspan(take);
      fill += take;
      if (fill == 64) {
        compress(state.data(), tail.data(), 1);
        fill = 0;
      }
    }
  }
  // The terminator, zeros and the 64-bit bit length close the last block,
  // or spill into a second one when fewer than 9 bytes are left.
  const size_t end = fill <= kOneBlockMax ? 64 : 128;
  tail[fill] = 0x80;
  std::memset(tail.data() + fill + 1, 0, end - 8 - (fill + 1));
  const uint64_t bits = static_cast<uint64_t>(a.size() + b.size()) * 8;
  for (int i = 0; i < 8; ++i) {
    tail[end - 1 - i] = static_cast<uint8_t>(bits >> (8 * i));
  }
  compress(state.data(), tail.data(), end / 64);
  SecureZero(MutableBytesView(tail.data(), end));
  return state;
}

}  // namespace

Sha256Digest Sha256(BytesView data) {
  return Sha256Concat(data, {});
}

Sha256Digest Sha256Concat(BytesView a, BytesView b) {
#if defined(TC_NATIVE_KERNELS)
  if (CpuHas(kCpuShaNi)) return HashBlocks(ShaNiCompress, a, b);
#endif
  return HashBlocks(PortableCompress, a, b);
}

void Sha256ChainWalk(Key128& state, uint64_t steps) {
#if defined(TC_NATIVE_KERNELS)
  if (CpuHas(kCpuShaNi)) {
    return ShaNiChainWalk(state.secret_bytes().data(), steps);
  }
#endif
  if (steps == 0) return;
  Sha256Digest d;
  for (; steps > 0; --steps) {
    d = Sha256(state.secret_bytes());
    std::memcpy(state.secret_bytes().data(), d.data(), sizeof(state));
  }
  SecureZero(d);
}

void Sha256ChainWalkPair(Key128& a, uint64_t a_steps, Key128& b,
                         uint64_t b_steps) {
#if defined(TC_NATIVE_KERNELS)
  if (CpuHas(kCpuShaNi)) {
    return ShaNiChainWalkPair(a.secret_bytes().data(), a_steps,
                              b.secret_bytes().data(), b_steps);
  }
#endif
  Sha256ChainWalk(a, a_steps);
  Sha256ChainWalk(b, b_steps);
}

Key128 Sha256ChainKey(const Key128& state) {
  Key128 key;
#if defined(TC_NATIVE_KERNELS)
  if (CpuHas(kCpuShaNi)) {
    ShaNiChainKey(state.secret_bytes().data(), key.secret_bytes().data());
    return key;
  }
#endif
  Sha256Digest d = Sha256(state.secret_bytes());
  std::memcpy(key.secret_bytes().data(), d.data() + sizeof(key), sizeof(key));
  SecureZero(d);
  return key;
}

Sha256Digest HmacSha256(BytesView key, BytesView data) {
  // The key, zero-padded to one block (hashed first if longer), XOR ipad
  // and then opad.
  std::array<uint8_t, 64> pad{};
  if (key.size() > pad.size()) {
    Sha256Digest hashed = Sha256(key);
    std::memcpy(pad.data(), hashed.data(), hashed.size());
    SecureZero(hashed);
  } else if (!key.empty()) {
    std::memcpy(pad.data(), key.data(), key.size());
  }
  for (uint8_t& byte : pad) byte ^= 0x36;
  Sha256Digest inner = Sha256Concat(pad, data);
  for (uint8_t& byte : pad) byte ^= 0x36 ^ 0x5c;
  const Sha256Digest out = Sha256Concat(pad, inner);
  SecureZero(pad);
  SecureZero(inner);
  return out;
}

Key128 HmacSubkey(const Key128& key, BytesView data, size_t half) {
  Sha256Digest h = HmacSha256(key.secret_bytes(), data);
  Key128 subkey;
  std::memcpy(subkey.secret_bytes().data(), h.data() + half * sizeof(subkey),
              sizeof(subkey));
  SecureZero(h);
  return subkey;
}

Bytes HkdfSha256(BytesView ikm, BytesView salt, BytesView info, size_t length) {
  // The block counter is one byte: a longer output would wrap it.
  if (length > 255 * 32) {
    std::fprintf(stderr, "fatal: HKDF output of %zu bytes exceeds 255 * 32\n",
                 length);
    std::abort();
  }
  Sha256Digest prk = HmacSha256(salt, ikm);  // Extract.
  // Expand: block i is the HMAC under prk of block i-1 || info || i, and
  // every block but the last is whole, so block i-1 is the output's last
  // 32 bytes.
  Bytes out;
  out.reserve(length);
  for (uint8_t i = 1; out.size() < length; ++i) {
    Bytes input(out.end() - (i == 1 ? 0 : 32), out.end());
    Append(input, info);
    input.push_back(i);
    const Sha256Digest t = HmacSha256(prk, input);
    out.insert(out.end(), t.begin(),
               t.begin() + std::min(t.size(), length - out.size()));
  }
  SecureZero(prk);
  return out;
}

}  // namespace tc::crypto
