#include "crypto/sha512.hpp"

#include <algorithm>
#include <cstring>

#include "common/secret.hpp"

namespace tc::crypto {

namespace {

// FIPS 180-4 §4.2.3: the first 64 bits of the fractional parts of the cube
// roots of the first 80 primes.
constexpr uint64_t kRound[80] = {
    0x428a2f98d728ae22, 0x7137449123ef65cd, 0xb5c0fbcfec4d3b2f,
    0xe9b5dba58189dbbc, 0x3956c25bf348b538, 0x59f111f1b605d019,
    0x923f82a4af194f9b, 0xab1c5ed5da6d8118, 0xd807aa98a3030242,
    0x12835b0145706fbe, 0x243185be4ee4b28c, 0x550c7dc3d5ffb4e2,
    0x72be5d74f27b896f, 0x80deb1fe3b1696b1, 0x9bdc06a725c71235,
    0xc19bf174cf692694, 0xe49b69c19ef14ad2, 0xefbe4786384f25e3,
    0x0fc19dc68b8cd5b5, 0x240ca1cc77ac9c65, 0x2de92c6f592b0275,
    0x4a7484aa6ea6e483, 0x5cb0a9dcbd41fbd4, 0x76f988da831153b5,
    0x983e5152ee66dfab, 0xa831c66d2db43210, 0xb00327c898fb213f,
    0xbf597fc7beef0ee4, 0xc6e00bf33da88fc2, 0xd5a79147930aa725,
    0x06ca6351e003826f, 0x142929670a0e6e70, 0x27b70a8546d22ffc,
    0x2e1b21385c26c926, 0x4d2c6dfc5ac42aed, 0x53380d139d95b3df,
    0x650a73548baf63de, 0x766a0abb3c77b2a8, 0x81c2c92e47edaee6,
    0x92722c851482353b, 0xa2bfe8a14cf10364, 0xa81a664bbc423001,
    0xc24b8b70d0f89791, 0xc76c51a30654be30, 0xd192e819d6ef5218,
    0xd69906245565a910, 0xf40e35855771202a, 0x106aa07032bbd1b8,
    0x19a4c116b8d2d0c8, 0x1e376c085141ab53, 0x2748774cdf8eeb99,
    0x34b0bcb5e19b48a8, 0x391c0cb3c5c95a63, 0x4ed8aa4ae3418acb,
    0x5b9cca4f7763e373, 0x682e6ff3d6b2b8a3, 0x748f82ee5defb2fc,
    0x78a5636f43172f60, 0x84c87814a1f0ab72, 0x8cc702081a6439ec,
    0x90befffa23631e28, 0xa4506cebde82bde9, 0xbef9a3f7b2c67915,
    0xc67178f2e372532b, 0xca273eceea26619c, 0xd186b8c721c0c207,
    0xeada7dd6cde0eb1e, 0xf57d4f7fee6ed178, 0x06f067aa72176fba,
    0x0a637dc5a2c898a6, 0x113f9804bef90dae, 0x1b710b35131c471b,
    0x28db77f523047d84, 0x32caab7b40c72493, 0x3c9ebe0a15c9bebc,
    0x431d67c49c100d4c, 0x4cc5d4becb3e42b6, 0x597f299cfc657e2a,
    0x5fcb6fab3ad6faec, 0x6c44198c4a475817,
};

// §5.3.5: the first 64 bits of the fractional parts of the square roots of
// the first 8 primes.
constexpr std::array<uint64_t, 8> kInitial = {
    0x6a09e667f3bcc908, 0xbb67ae8584caa73b, 0x3c6ef372fe94f82b,
    0xa54ff53a5f1d36f1, 0x510e527fade682d1, 0x9b05688c2b3e6c1f,
    0x1f83d9abfb41bd6b, 0x5be0cd19137e2179};

constexpr size_t kBlock = 128;

inline uint64_t Rotr(uint64_t x, int n) { return (x >> n) | (x << (64 - n)); }

uint64_t LoadBe64(const uint8_t* p) {
  uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v = (v << 8) | p[i];
  return v;
}

// The hash state of one Sha512 call: chaining value, message schedule and
// the block being filled. Scrubbed at the end of the call.
struct State {
  std::array<uint64_t, 8> h = kInitial;
  std::array<uint64_t, 80> w{};
  std::array<uint8_t, kBlock> block{};
  size_t used = 0;  // bytes in `block`
};

/// §6.4.2: one 128-byte block into the chaining value.
void Compress(State& s, const uint8_t* p) {
  for (int t = 0; t < 16; ++t) s.w[t] = LoadBe64(p + 8 * t);
  for (int t = 16; t < 80; ++t) {
    const uint64_t w15 = s.w[t - 15], w2 = s.w[t - 2];
    const uint64_t s0 = Rotr(w15, 1) ^ Rotr(w15, 8) ^ (w15 >> 7);
    const uint64_t s1 = Rotr(w2, 19) ^ Rotr(w2, 61) ^ (w2 >> 6);
    s.w[t] = s.w[t - 16] + s0 + s.w[t - 7] + s1;
  }
  uint64_t a = s.h[0], b = s.h[1], c = s.h[2], d = s.h[3], e = s.h[4],
           f = s.h[5], g = s.h[6], h = s.h[7];
  for (int t = 0; t < 80; ++t) {
    const uint64_t t1 = h + (Rotr(e, 14) ^ Rotr(e, 18) ^ Rotr(e, 41)) +
                        ((e & f) ^ (~e & g)) + kRound[t] + s.w[t];
    const uint64_t t2 = (Rotr(a, 28) ^ Rotr(a, 34) ^ Rotr(a, 39)) +
                        ((a & b) ^ (a & c) ^ (b & c));
    h = g;
    g = f;
    f = e;
    e = d + t1;
    d = c;
    c = b;
    b = a;
    a = t1 + t2;
  }
  s.h[0] += a;
  s.h[1] += b;
  s.h[2] += c;
  s.h[3] += d;
  s.h[4] += e;
  s.h[5] += f;
  s.h[6] += g;
  s.h[7] += h;
}

void Absorb(State& s, BytesView data) {
  if (data.empty()) return;  // data() may be null
  const uint8_t* p = data.data();
  size_t n = data.size();
  if (s.used > 0) {
    const size_t take = std::min(n, kBlock - s.used);
    std::memcpy(s.block.data() + s.used, p, take);
    s.used += take;
    p += take;
    n -= take;
    if (s.used < kBlock) return;
    Compress(s, s.block.data());
    s.used = 0;
  }
  for (; n >= kBlock; p += kBlock, n -= kBlock) Compress(s, p);
  if (n > 0) std::memcpy(s.block.data(), p, n);
  s.used = n;
}

}  // namespace

Sha512Digest Sha512(std::initializer_list<BytesView> parts) {
  Scrubbed<State> s;
  uint64_t bytes = 0;
  for (BytesView part : parts) {
    Absorb(s, part);
    bytes += part.size();
  }
  // §5.1.2: a one bit, zeros, and the 128-bit big-endian bit length (whose
  // top 64 bits are zero for any message this process can hold).
  s.block[s.used++] = 0x80;
  if (s.used > kBlock - 16) {
    std::memset(s.block.data() + s.used, 0, kBlock - s.used);
    Compress(s, s.block.data());
    s.used = 0;
  }
  std::memset(s.block.data() + s.used, 0, kBlock - s.used);
  const uint64_t bits = bytes * 8;
  for (int i = 0; i < 8; ++i) {
    s.block[kBlock - 1 - i] = static_cast<uint8_t>(bits >> (8 * i));
  }
  Compress(s, s.block.data());
  Sha512Digest out;
  for (int i = 0; i < 8; ++i) {
    for (int j = 0; j < 8; ++j) {
      out[8 * i + j] = static_cast<uint8_t>(s.h[i] >> (56 - 8 * j));
    }
  }
  return out;
}

}  // namespace tc::crypto
