// Arithmetic in GF(2^255 - 19), the field of Curve25519 and edwards25519,
// shared by X25519 (x25519.cpp) and Ed25519 (ed25519.cpp). Every function
// runs the same instructions and memory accesses whatever the values: no
// branch, index or table depends on a field element.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <span>

#include "common/secret.hpp"

namespace tc::crypto::internal {

using U128 = unsigned __int128;

// An element of GF(p), p = 2^255 - 19, as five limbs of 51 bits:
// f[0] + f[1]·2^51 + f[2]·2^102 + f[3]·2^153 + f[4]·2^204. Between
// operations a limb may exceed 51 bits; each function states the bounds it
// takes and gives. Mul and Sqr take limbs below 2^54: a limb product then
// fits 108 bits, a column of five, some times 19, fits 115, and 19 times
// the top column's carry fits 64.
using Fe = std::array<uint64_t, 5>;

inline constexpr uint64_t kMask51 = (uint64_t{1} << 51) - 1;
inline constexpr size_t kFeBytes = 32;

inline uint64_t LoadLe64(const uint8_t* p) {
  uint64_t v = 0;
  for (int i = 7; i >= 0; --i) v = (v << 8) | p[i];
  return v;
}

inline void StoreLe64(uint8_t* p, uint64_t v) {
  for (int i = 0; i < 8; ++i) p[i] = static_cast<uint8_t>(v >> (8 * i));
}

/// Limbs of 51 bits; the top bit of byte 31 is dropped (RFC 7748 §5, RFC
/// 8032 §5.1.3), and an encoding of p or more is taken as its value.
inline Fe FeFromBytes(std::span<const uint8_t, kFeBytes> s) {
  return {LoadLe64(&s[0]) & kMask51, (LoadLe64(&s[6]) >> 3) & kMask51,
          (LoadLe64(&s[12]) >> 6) & kMask51, (LoadLe64(&s[19]) >> 1) & kMask51,
          (LoadLe64(&s[24]) >> 12) & kMask51};
}

/// Writes the canonical encoding (the value reduced below p). Limbs below
/// 2^54.
inline void FeToBytes(std::span<uint8_t, kFeBytes> out, const Fe& f) {
  Scrubbed<Fe> t = f;
  // Each pass leaves limbs of 51 bits, folding the carry out of the top
  // limb back in as 19 times itself (2^255 = 19 mod p).
  auto carry = [&t] {
    for (int i = 0; i < 4; ++i) {
      t[i + 1] += t[i] >> 51;
      t[i] &= kMask51;
    }
    t[0] += 19 * (t[4] >> 51);
    t[4] &= kMask51;
  };
  carry();
  carry();
  // Now 0 <= t < 2^255. Adding 19 carries out of bit 255 exactly when
  // t >= p, and the fold leaves t - p + 19; otherwise t + 19. Adding
  // 2^255 - 19 and dropping bit 255 leaves t mod p in both cases.
  t[0] += 19;
  carry();
  t[0] += (kMask51 + 1) - 19;
  for (int i = 1; i < 5; ++i) t[i] += kMask51;
  for (int i = 0; i < 4; ++i) {
    t[i + 1] += t[i] >> 51;
    t[i] &= kMask51;
  }
  t[4] &= kMask51;

  StoreLe64(&out[0], t[0] | (t[1] << 51));
  StoreLe64(&out[8], (t[1] >> 13) | (t[2] << 38));
  StoreLe64(&out[16], (t[2] >> 26) | (t[3] << 25));
  StoreLe64(&out[24], (t[3] >> 39) | (t[4] << 12));
}

/// Inputs below 2^53 per limb give an output below 2^54.
inline Fe Add(const Fe& a, const Fe& b) {
  return {a[0] + b[0], a[1] + b[1], a[2] + b[2], a[3] + b[3], a[4] + b[4]};
}

/// a - b + 2p, so no limb borrows while b's limbs stay below 2^52 - 38
/// (a product or a Reduce output, below 2^51 + 2^13). a below 2^53 gives
/// an output below 2^54.
inline Fe Sub(const Fe& a, const Fe& b) {
  constexpr uint64_t kTwoP0 = 2 * ((uint64_t{1} << 51) - 19);
  constexpr uint64_t kTwoPi = 2 * kMask51;
  return {a[0] + kTwoP0 - b[0], a[1] + kTwoPi - b[1], a[2] + kTwoPi - b[2],
          a[3] + kTwoPi - b[3], a[4] + kTwoPi - b[4]};
}

/// Carries five column sums below 2^115 into limbs below 2^51, except
/// limb 1, below 2^51 + 2^13. The top column stays below 2^111 (it holds
/// no products times 19), so 19 times its carry fits 64 bits.
inline Fe Carry(U128 t0, U128 t1, U128 t2, U128 t3, U128 t4) {
  Fe r{};
  t1 += static_cast<uint64_t>(t0 >> 51);
  r[0] = static_cast<uint64_t>(t0) & kMask51;
  t2 += static_cast<uint64_t>(t1 >> 51);
  r[1] = static_cast<uint64_t>(t1) & kMask51;
  t3 += static_cast<uint64_t>(t2 >> 51);
  r[2] = static_cast<uint64_t>(t2) & kMask51;
  t4 += static_cast<uint64_t>(t3 >> 51);
  r[3] = static_cast<uint64_t>(t3) & kMask51;
  r[4] = static_cast<uint64_t>(t4) & kMask51;
  r[0] += 19 * static_cast<uint64_t>(t4 >> 51);
  r[1] += r[0] >> 51;
  r[0] &= kMask51;
  return r;
}

/// The same value with limbs below 2^51 + 2^13, for a Sub's subtrahend.
inline Fe Reduce(const Fe& a) { return Carry(a[0], a[1], a[2], a[3], a[4]); }

/// Schoolbook product; limb products at or above 2^255 wrap around as 19
/// times themselves. Inputs below 2^54 per limb.
inline Fe Mul(const Fe& a, const Fe& b) {
  const uint64_t b1 = 19 * b[1], b2 = 19 * b[2], b3 = 19 * b[3],
                 b4 = 19 * b[4];
  auto m = [](uint64_t x, uint64_t y) { return U128{x} * y; };
  return Carry(
      m(a[0], b[0]) + m(a[1], b4) + m(a[2], b3) + m(a[3], b2) + m(a[4], b1),
      m(a[0], b[1]) + m(a[1], b[0]) + m(a[2], b4) + m(a[3], b3) + m(a[4], b2),
      m(a[0], b[2]) + m(a[1], b[1]) + m(a[2], b[0]) + m(a[3], b4) +
          m(a[4], b3),
      m(a[0], b[3]) + m(a[1], b[2]) + m(a[2], b[1]) + m(a[3], b[0]) +
          m(a[4], b4),
      m(a[0], b[4]) + m(a[1], b[3]) + m(a[2], b[2]) + m(a[3], b[1]) +
          m(a[4], b[0]));
}

/// Mul(a, a) with the symmetric products computed once: 15 limb products
/// instead of 25. Input below 2^54 per limb.
inline Fe Sqr(const Fe& a) {
  const uint64_t d0 = 2 * a[0], d1 = 2 * a[1], d2 = 2 * a[2];
  const uint64_t a3_19 = 19 * a[3], a4_19 = 19 * a[4];
  auto m = [](uint64_t x, uint64_t y) { return U128{x} * y; };
  return Carry(m(a[0], a[0]) + m(d1, a4_19) + m(d2, a3_19),
               m(d0, a[1]) + m(d2, a4_19) + m(a[3], a3_19),
               m(d0, a[2]) + m(a[1], a[1]) + m(2 * a[3], a4_19),
               m(d0, a[3]) + m(d1, a[2]) + m(a[4], a4_19),
               m(d0, a[4]) + m(d1, a[3]) + m(a[2], a[2]));
}

/// a^(2^n).
inline Fe SqrTimes(Fe a, int n) {
  for (int i = 0; i < n; ++i) a = Sqr(a);
  return a;
}

// The addition chain from Bernstein's curve25519 reference code, shared by
// Invert and Pow22523: z^(2^250 - 1) and z^11.
struct PowState {
  Fe z2, z9, z11, z_5_0, z_10_0, z_20_0, z_50_0, z_100_0, t;
};

inline void Pow2250Minus1(PowState& s, const Fe& z) {
  s.z2 = Sqr(z);                                  // 2
  s.z9 = Mul(SqrTimes(s.z2, 2), z);               // 9
  s.z11 = Mul(s.z9, s.z2);                        // 11
  s.z_5_0 = Mul(Sqr(s.z11), s.z9);                // 2^5 - 1
  s.z_10_0 = Mul(SqrTimes(s.z_5_0, 5), s.z_5_0);  // 2^10 - 1
  s.z_20_0 = Mul(SqrTimes(s.z_10_0, 10), s.z_10_0);
  s.t = Mul(SqrTimes(s.z_20_0, 20), s.z_20_0);  // 2^40 - 1
  s.z_50_0 = Mul(SqrTimes(s.t, 10), s.z_10_0);
  s.z_100_0 = Mul(SqrTimes(s.z_50_0, 50), s.z_50_0);
  s.t = Mul(SqrTimes(s.z_100_0, 100), s.z_100_0);  // 2^200 - 1
  s.t = Mul(SqrTimes(s.t, 50), s.z_50_0);          // 2^250 - 1
}

/// z^(p - 2) = 1/z (Fermat): 254 squarings and 11 multiplications.
inline Fe Invert(const Fe& z) {
  Scrubbed<PowState> s;
  Pow2250Minus1(s, z);
  return Mul(SqrTimes(s.t, 5), s.z11);  // 2^255 - 21
}

/// z^((p - 5) / 8) = z^(2^252 - 3), the power in a square root's candidate
/// (RFC 8032 §5.1.3).
inline Fe Pow22523(const Fe& z) {
  Scrubbed<PowState> s;
  Pow2250Minus1(s, z);
  return Mul(SqrTimes(s.t, 2), z);
}

/// Swaps a and b when `swap` is 1, leaves them when it is 0, with the same
/// instructions and memory accesses either way.
inline void CondSwap(Fe& a, Fe& b, uint64_t swap) {
  const uint64_t mask = 0 - swap;
  for (size_t i = 0; i < a.size(); ++i) {
    const uint64_t x = mask & (a[i] ^ b[i]);
    a[i] ^= x;
    b[i] ^= x;
  }
}

/// a = b when `move` is 1, unchanged when it is 0, in constant time.
inline void CondMove(Fe& a, const Fe& b, uint64_t move) {
  const uint64_t mask = 0 - move;
  for (size_t i = 0; i < a.size(); ++i) a[i] ^= mask & (a[i] ^ b[i]);
}

}  // namespace tc::crypto::internal
