#include "crypto/soft_aes.hpp"

#include <algorithm>
#include <cassert>

namespace tc::crypto {

namespace {

// The bitsliced state: four 16-byte blocks as eight 64-bit words, word j
// holding bit j of every byte. Within a word, bit 16r + 4c + l is row r,
// column c of block l (Ortho and Interleave set this up), so ShiftRows
// moves nibbles within 16-bit rows and MixColumns rotates whole rows.
using Planes = std::array<uint64_t, 8>;

/// The AES S-box on all 64 bytes at once: Boyar and Peralta's circuit ("A
/// depth-16 circuit for the AES S-box", 2011), as BearSSL's aes_ct64 has
/// it. x0 is the most significant bit plane.
void SubBytes(Planes& q) {
  const uint64_t x0 = q[7], x1 = q[6], x2 = q[5], x3 = q[4], x4 = q[3],
                 x5 = q[2], x6 = q[1], x7 = q[0];

  // Top linear transformation.
  const uint64_t y14 = x3 ^ x5;
  const uint64_t y13 = x0 ^ x6;
  const uint64_t y9 = x0 ^ x3;
  const uint64_t y8 = x0 ^ x5;
  const uint64_t t0 = x1 ^ x2;
  const uint64_t y1 = t0 ^ x7;
  const uint64_t y4 = y1 ^ x3;
  const uint64_t y12 = y13 ^ y14;
  const uint64_t y2 = y1 ^ x0;
  const uint64_t y5 = y1 ^ x6;
  const uint64_t y3 = y5 ^ y8;
  const uint64_t t1 = x4 ^ y12;
  const uint64_t y15 = t1 ^ x5;
  const uint64_t y20 = t1 ^ x1;
  const uint64_t y6 = y15 ^ x7;
  const uint64_t y10 = y15 ^ t0;
  const uint64_t y11 = y20 ^ y9;
  const uint64_t y7 = x7 ^ y11;
  const uint64_t y17 = y10 ^ y11;
  const uint64_t y19 = y10 ^ y8;
  const uint64_t y16 = t0 ^ y11;
  const uint64_t y21 = y13 ^ y16;
  const uint64_t y18 = x0 ^ y16;

  // Non-linear section: the inversion in GF(2^8).
  const uint64_t t2 = y12 & y15;
  const uint64_t t3 = y3 & y6;
  const uint64_t t4 = t3 ^ t2;
  const uint64_t t5 = y4 & x7;
  const uint64_t t6 = t5 ^ t2;
  const uint64_t t7 = y13 & y16;
  const uint64_t t8 = y5 & y1;
  const uint64_t t9 = t8 ^ t7;
  const uint64_t t10 = y2 & y7;
  const uint64_t t11 = t10 ^ t7;
  const uint64_t t12 = y9 & y11;
  const uint64_t t13 = y14 & y17;
  const uint64_t t14 = t13 ^ t12;
  const uint64_t t15 = y8 & y10;
  const uint64_t t16 = t15 ^ t12;
  const uint64_t t17 = t4 ^ t14;
  const uint64_t t18 = t6 ^ t16;
  const uint64_t t19 = t9 ^ t14;
  const uint64_t t20 = t11 ^ t16;
  const uint64_t t21 = t17 ^ y20;
  const uint64_t t22 = t18 ^ y19;
  const uint64_t t23 = t19 ^ y21;
  const uint64_t t24 = t20 ^ y18;

  const uint64_t t25 = t21 ^ t22;
  const uint64_t t26 = t21 & t23;
  const uint64_t t27 = t24 ^ t26;
  const uint64_t t28 = t25 & t27;
  const uint64_t t29 = t28 ^ t22;
  const uint64_t t30 = t23 ^ t24;
  const uint64_t t31 = t22 ^ t26;
  const uint64_t t32 = t31 & t30;
  const uint64_t t33 = t32 ^ t24;
  const uint64_t t34 = t23 ^ t33;
  const uint64_t t35 = t27 ^ t33;
  const uint64_t t36 = t24 & t35;
  const uint64_t t37 = t36 ^ t34;
  const uint64_t t38 = t27 ^ t36;
  const uint64_t t39 = t29 & t38;
  const uint64_t t40 = t25 ^ t39;

  const uint64_t t41 = t40 ^ t37;
  const uint64_t t42 = t29 ^ t33;
  const uint64_t t43 = t29 ^ t40;
  const uint64_t t44 = t33 ^ t37;
  const uint64_t t45 = t42 ^ t41;
  const uint64_t z0 = t44 & y15;
  const uint64_t z1 = t37 & y6;
  const uint64_t z2 = t33 & x7;
  const uint64_t z3 = t43 & y16;
  const uint64_t z4 = t40 & y1;
  const uint64_t z5 = t29 & y7;
  const uint64_t z6 = t42 & y11;
  const uint64_t z7 = t45 & y17;
  const uint64_t z8 = t41 & y10;
  const uint64_t z9 = t44 & y12;
  const uint64_t z10 = t37 & y3;
  const uint64_t z11 = t33 & y4;
  const uint64_t z12 = t43 & y13;
  const uint64_t z13 = t40 & y5;
  const uint64_t z14 = t29 & y2;
  const uint64_t z15 = t42 & y9;
  const uint64_t z16 = t45 & y14;
  const uint64_t z17 = t41 & y8;

  // Bottom linear transformation, with the affine constant 0x63.
  const uint64_t t46 = z15 ^ z16;
  const uint64_t t47 = z10 ^ z11;
  const uint64_t t48 = z5 ^ z13;
  const uint64_t t49 = z9 ^ z10;
  const uint64_t t50 = z2 ^ z12;
  const uint64_t t51 = z2 ^ z5;
  const uint64_t t52 = z7 ^ z8;
  const uint64_t t53 = z0 ^ z3;
  const uint64_t t54 = z6 ^ z7;
  const uint64_t t55 = z16 ^ z17;
  const uint64_t t56 = z12 ^ t48;
  const uint64_t t57 = t50 ^ t53;
  const uint64_t t58 = z4 ^ t46;
  const uint64_t t59 = z3 ^ t54;
  const uint64_t t60 = t46 ^ t57;
  const uint64_t t61 = z14 ^ t57;
  const uint64_t t62 = t52 ^ t58;
  const uint64_t t63 = t49 ^ t58;
  const uint64_t t64 = z4 ^ t59;
  const uint64_t t65 = t61 ^ t62;
  const uint64_t t66 = z1 ^ t63;
  const uint64_t s0 = t59 ^ t63;
  const uint64_t s6 = t56 ^ ~t62;
  const uint64_t s7 = t48 ^ ~t60;
  const uint64_t t67 = t64 ^ t65;
  const uint64_t s3 = t53 ^ t66;
  const uint64_t s4 = t51 ^ t66;
  const uint64_t s5 = t47 ^ t65;
  const uint64_t s1 = t64 ^ ~s3;
  const uint64_t s2 = t55 ^ ~t67;

  q = {s7, s6, s5, s4, s3, s2, s1, s0};
}

/// Exchanges the bits of x under `lo` with those of y under `lo << s`.
template <uint64_t kLo, int kShift>
void SwapBits(uint64_t& x, uint64_t& y) {
  constexpr uint64_t kHi = kLo << kShift;
  const uint64_t a = x, b = y;
  x = (a & kLo) | ((b & kLo) << kShift);
  y = ((a & kHi) >> kShift) | (b & kHi);
}

/// Transposes each 8x8 bit matrix made of byte m of the eight words, so
/// bytes become bit planes and back (it is its own inverse).
void Ortho(Planes& q) {
  constexpr uint64_t k1 = 0x5555555555555555, k2 = 0x3333333333333333,
                     k4 = 0x0f0f0f0f0f0f0f0f;
  for (int i = 0; i < 8; i += 2) SwapBits<k1, 1>(q[i], q[i + 1]);
  for (int i : {0, 1, 4, 5}) SwapBits<k2, 2>(q[i], q[i + 2]);
  for (int i = 0; i < 4; ++i) SwapBits<k4, 4>(q[i], q[i + 4]);
}

uint32_t LoadLe32(const uint8_t* p) {
  return uint32_t{p[0]} | uint32_t{p[1]} << 8 | uint32_t{p[2]} << 16 |
         uint32_t{p[3]} << 24;
}

void StoreLe32(uint8_t* p, uint32_t v) {
  for (int i = 0; i < 4; ++i) p[i] = static_cast<uint8_t>(v >> (8 * i));
}

/// A block's four columns (little-endian words) spread so that row r of
/// columns 0 and 2 lands in bytes 2r and 2r + 1 of `even`, and of columns
/// 1 and 3 in those of `odd`.
void InterleaveIn(uint64_t& even, uint64_t& odd, const uint32_t (&w)[4]) {
  uint64_t x[4];
  for (int i = 0; i < 4; ++i) {
    x[i] = w[i];
    x[i] = (x[i] | (x[i] << 16)) & 0x0000ffff0000ffff;
    x[i] = (x[i] | (x[i] << 8)) & 0x00ff00ff00ff00ff;
  }
  even = x[0] | (x[2] << 8);
  odd = x[1] | (x[3] << 8);
}

/// InterleaveIn's inverse.
void InterleaveOut(uint32_t (&w)[4], uint64_t even, uint64_t odd) {
  uint64_t x[4] = {even & 0x00ff00ff00ff00ff, odd & 0x00ff00ff00ff00ff,
                   (even >> 8) & 0x00ff00ff00ff00ff,
                   (odd >> 8) & 0x00ff00ff00ff00ff};
  for (int i = 0; i < 4; ++i) {
    x[i] = (x[i] | (x[i] >> 8)) & 0x0000ffff0000ffff;
    w[i] = static_cast<uint32_t>(x[i] | (x[i] >> 16));
  }
}

/// Four blocks' columns into bit planes: block l in lane l.
void Load(Planes& q, const uint32_t (&w)[kCryptoLanes][4]) {
  for (size_t l = 0; l < kCryptoLanes; ++l) {
    InterleaveIn(q[l], q[l + 4], w[l]);
  }
  Ortho(q);
}

/// Row r of every column rotates left by r places.
void ShiftRows(Planes& q) {
  for (uint64_t& x : q) {
    x = (x & 0x000000000000ffff) | ((x & 0x00000000fff00000) >> 4) |
        ((x & 0x00000000000f0000) << 12) | ((x & 0x0000ff0000000000) >> 8) |
        ((x & 0x000000ff00000000) << 8) | ((x & 0xf000000000000000) >> 12) |
        ((x & 0x0fff000000000000) << 4);
  }
}

uint64_t Rotr(uint64_t x, int n) { return (x >> n) | (x << (64 - n)); }

/// Each column times 2·x³ + x² + x + 3 (mod x⁴ + 1): row r becomes
/// 2·a_r ^ 3·a_{r+1} ^ a_{r+2} ^ a_{r+3}. Rotating a plane by 16 bits moves
/// row r + 1 onto row r; doubling maps bit plane j to j + 1 and folds
/// plane 7 into planes 0, 1, 3 and 4 (the polynomial 0x11b).
void MixColumns(Planes& q) {
  Planes r;
  for (int j = 0; j < 8; ++j) r[j] = Rotr(q[j], 16);
  Planes s;  // a_r ^ a_{r+1}
  for (int j = 0; j < 8; ++j) s[j] = q[j] ^ r[j];
  q[0] = s[7] ^ r[0] ^ Rotr(s[0], 32);
  q[1] = s[0] ^ s[7] ^ r[1] ^ Rotr(s[1], 32);
  q[2] = s[1] ^ r[2] ^ Rotr(s[2], 32);
  q[3] = s[2] ^ s[7] ^ r[3] ^ Rotr(s[3], 32);
  q[4] = s[3] ^ s[7] ^ r[4] ^ Rotr(s[4], 32);
  q[5] = s[4] ^ r[5] ^ Rotr(s[5], 32);
  q[6] = s[5] ^ r[6] ^ Rotr(s[6], 32);
  q[7] = s[6] ^ r[7] ^ Rotr(s[7], 32);
}

void AddRoundKey(Planes& q, const uint64_t* rk) {
  for (int j = 0; j < 8; ++j) q[j] ^= rk[j];
}

constexpr uint8_t kRcon[10] = {0x01, 0x02, 0x04, 0x08, 0x10,
                               0x20, 0x40, 0x80, 0x1b, 0x36};

/// FIPS-197 §5.2's key expansion, run on the bit planes (Käsper and
/// Schwabe §4.1): round key i + 1 comes from round key i without leaving
/// the bitsliced form. Each round, SubBytes of the whole key gives
/// SubWord(column 3); a 16-bit rotation moves row r + 1 of it onto row r
/// (RotWord); Rcon goes into row 0; and column c becomes the XOR of
/// columns 0..c of the old key and that word.
void ExpandKeys(std::span<const Key128* const> keys, uint64_t* round_keys) {
  assert(!keys.empty() && keys.size() <= kCryptoLanes);
  constexpr uint64_t kColumn3 = 0xf000f000f000f000;
  constexpr uint64_t kRow0Column3 = 0x000000000000f000;
  constexpr uint64_t kColumns123 = 0xfff0fff0fff0fff0;
  constexpr uint64_t kColumns23 = 0xff00ff00ff00ff00;
  struct Schedule {
    uint32_t w[kCryptoLanes][4];
    Planes key, sub;
  };
  Scrubbed<Schedule> s;
  for (size_t l = 0; l < kCryptoLanes; ++l) {
    const uint8_t* key = keys[l < keys.size() ? l : 0]->secret_bytes().data();
    for (int i = 0; i < 4; ++i) s.w[l][i] = LoadLe32(key + 4 * i);
  }
  Load(s.key, s.w);
  std::copy(s.key.begin(), s.key.end(), round_keys);
  for (int round = 1; round <= 10; ++round) {
    s.sub = s.key;
    SubBytes(s.sub);
    for (int j = 0; j < 8; ++j) {
      uint64_t t = Rotr(s.sub[j] & kColumn3, 16);
      t ^= kRow0Column3 & (0 - static_cast<uint64_t>(
                                   (kRcon[round - 1] >> j) & 1));
      t |= t >> 4;  // column 3's word into every column
      t |= t >> 8;
      uint64_t x = s.key[j];
      x ^= (x << 4) & kColumns123;
      x ^= (x << 8) & kColumns23;
      s.key[j] = x ^ t;
    }
    std::copy(s.key.begin(), s.key.end(), round_keys + 8 * round);
  }
}

}  // namespace

SoftAes128::SoftAes128(const Key128& key) {
  const Key128* keys[] = {&key};
  ExpandKeys(keys, round_keys_.data());
}

SoftAes128::SoftAes128(std::span<const Key128* const> keys) {
  ExpandKeys(keys, round_keys_.data());
}

void SoftAes128::EncryptLanes(std::span<Block128> blocks) const {
  assert(blocks.size() <= kCryptoLanes);
  struct State {
    uint32_t w[kCryptoLanes][4];
    Planes q;
  };
  Scrubbed<State> s;
  for (size_t l = 0; l < blocks.size(); ++l) {
    for (int i = 0; i < 4; ++i) s.w[l][i] = LoadLe32(&blocks[l][4 * i]);
  }
  Load(s.q, s.w);
  const uint64_t* rk = round_keys_.data();
  AddRoundKey(s.q, rk);
  for (int round = 1; round < 10; ++round) {
    SubBytes(s.q);
    ShiftRows(s.q);
    MixColumns(s.q);
    AddRoundKey(s.q, rk + 8 * round);
  }
  SubBytes(s.q);
  ShiftRows(s.q);
  AddRoundKey(s.q, rk + 80);
  Ortho(s.q);
  for (size_t l = 0; l < blocks.size(); ++l) {
    InterleaveOut(s.w[l], s.q[l], s.q[l + 4]);
    for (int i = 0; i < 4; ++i) StoreLe32(&blocks[l][4 * i], s.w[l][i]);
  }
}

Block128 SoftAes128::EncryptBlock(const Block128& plaintext) const {
  Block128 block = plaintext;
  EncryptLanes({&block, 1});
  return block;
}

}  // namespace tc::crypto
