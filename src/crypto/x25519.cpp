#include "crypto/x25519.hpp"

#include <algorithm>
#include <array>
#include <cstdint>

#include "crypto/field25519.hpp"

namespace tc::crypto {

namespace {

using internal::Add;
using internal::Carry;
using internal::CondSwap;
using internal::Fe;
using internal::FeFromBytes;
using internal::FeToBytes;
using internal::Invert;
using internal::Mul;
using internal::Sqr;
using internal::Sub;
using internal::U128;

/// a times a constant below 2^17.
Fe MulSmall(const Fe& a, uint64_t k) {
  return Carry(U128{a[0]} * k, U128{a[1]} * k, U128{a[2]} * k,
               U128{a[3]} * k, U128{a[4]} * k);
}

// The Montgomery ladder's state (RFC 7748 §5): (x2 : z2) and (x3 : z3) are
// the projective u-coordinates of two multiples of the input point that
// differ by it, and the rest are one step's intermediates.
struct LadderState {
  Fe x1, x2, z2, x3, z3;
  Fe a, aa, b, bb, e, c, d, da, cb;
};

constexpr uint64_t kA24 = 121665;  // (486662 - 2) / 4

/// One ladder step: (x2 : z2) doubles and (x3 : z3) becomes their sum.
void LadderStep(LadderState& s) {
  s.a = Add(s.x2, s.z2);
  s.aa = Sqr(s.a);
  s.b = Sub(s.x2, s.z2);
  s.bb = Sqr(s.b);
  s.e = Sub(s.aa, s.bb);
  s.c = Add(s.x3, s.z3);
  s.d = Sub(s.x3, s.z3);
  s.da = Mul(s.d, s.a);
  s.cb = Mul(s.c, s.b);
  s.x3 = Sqr(Add(s.da, s.cb));
  s.z3 = Mul(s.x1, Sqr(Sub(s.da, s.cb)));
  s.x2 = Mul(s.aa, s.bb);
  s.z2 = Mul(s.e, Add(s.aa, MulSmall(s.e, kA24)));
}

constexpr std::array<uint8_t, kX25519KeySize> kBasePoint = {9};

}  // namespace

void X25519(std::span<uint8_t, kX25519KeySize> out,
            std::span<const uint8_t, kX25519KeySize> scalar,
            std::span<const uint8_t, kX25519KeySize> u) {
  Scrubbed<std::array<uint8_t, kX25519KeySize>> k;
  std::copy(scalar.begin(), scalar.end(), k.begin());
  k[0] &= 248;
  k[31] &= 127;
  k[31] |= 64;

  Scrubbed<LadderState> s;
  s.x1 = FeFromBytes(u);
  s.x2 = {1};
  s.x3 = s.x1;
  s.z3 = {1};
  // Bit t of the scalar decides which of the pair doubles. The swap is
  // deferred: the pair is swapped only when the bit differs from the last.
  uint64_t swap = 0;
  for (int t = 254; t >= 0; --t) {
    const uint64_t bit = (k[t >> 3] >> (t & 7)) & 1;
    swap ^= bit;
    CondSwap(s.x2, s.x3, swap);
    CondSwap(s.z2, s.z3, swap);
    swap = bit;
    LadderStep(s);
  }
  CondSwap(s.x2, s.x3, swap);
  CondSwap(s.z2, s.z3, swap);

  s.z3 = Invert(s.z2);
  s.x2 = Mul(s.x2, s.z3);
  FeToBytes(out, s.x2);
}

Result<Bytes> BoxPublicKey(const SecretBuffer& secret) {
  if (secret.size() != kX25519KeySize) {
    return InvalidArgument("X25519 secret key must be 32 bytes");
  }
  Bytes public_key(kX25519KeySize);
  X25519(std::span<uint8_t, kX25519KeySize>(public_key),
         secret.secret_bytes().first<kX25519KeySize>(), kBasePoint);
  return public_key;
}

}  // namespace tc::crypto
