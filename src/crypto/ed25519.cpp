#include "crypto/ed25519.hpp"

#include <algorithm>
#include <array>
#include <cstdint>
#include <span>

#include "crypto/constant_time.hpp"
#include "crypto/field25519.hpp"
#include "crypto/sha512.hpp"

namespace tc::crypto {

namespace {

using internal::Add;
using internal::CondMove;
using internal::CondSwap;
using internal::Fe;
using internal::FeFromBytes;
using internal::FeToBytes;
using internal::Invert;
using internal::Mul;
using internal::Pow22523;
using internal::Reduce;
using internal::Sqr;
using internal::Sub;

using Encoding = std::array<uint8_t, 32>;

// The curve constant d = -121665/121666, 2d, sqrt(-1) and the base point
// B = (x, 4/5) with x even (RFC 8032 §5.1), as 51-bit limbs.
constexpr Fe kD2 = {1859910466990425, 932731440258426, 1072319116312658,
                    1815898335770999, 633789495995903};
constexpr Fe kD = {929955233495203, 466365720129213, 1662059464998953,
                   2033849074728123, 1442794654840575};
constexpr Fe kSqrtM1 = {1718705420411056, 234908883556509, 2233514472574048,
                        2117202627021982, 765476049583133};
constexpr Fe kBaseX = {1738742601995546, 1146398526822698, 2070867633025821,
                       562264141797630, 587772402128613};
constexpr Fe kBaseY = {1801439850948184, 1351079888211148, 450359962737049,
                       900719925474099, 1801439850948198};
constexpr Fe kOne = {1};

// A point of edwards25519 in extended coordinates (Hisil, Wong, Carter and
// Dawson, "Twisted Edwards Curves Revisited", 2008): x = X/Z, y = Y/Z,
// T = XY/Z. Every coordinate is a Mul output.
struct Point {
  Fe x, y, z, t;
};

// A point ready to be added: (Y + X, Y - X, Z, 2dT).
struct Cached {
  Fe y_plus_x, y_minus_x, z, t2d;
};

constexpr Point kIdentity = {{0}, {1}, {1}, {0}};

Point BasePoint() { return {kBaseX, kBaseY, kOne, Mul(kBaseX, kBaseY)}; }
constexpr Cached kCachedIdentity = {{1}, {1}, {1}, {0}};

Cached ToCached(const Point& p) {
  return {Add(p.y, p.x), Sub(p.y, p.x), p.z, Mul(p.t, kD2)};
}

/// -p: (Y - X, Y + X, Z, -2dT).
Cached Negate(const Cached& c) {
  return {c.y_minus_x, c.y_plus_x, c.z, Sub(Fe{}, c.t2d)};
}

/// p + q by the unified a = -1 formula (HWCD §3.1, add-2008-hwcd-3): nine
/// multiplications, the same for every pair of points.
Point AddPoints(const Point& p, const Cached& q) {
  const Fe a = Mul(Sub(p.y, p.x), q.y_minus_x);
  const Fe b = Mul(Add(p.y, p.x), q.y_plus_x);
  const Fe c = Mul(p.t, q.t2d);
  const Fe zz = Mul(p.z, q.z);
  const Fe d = Add(zz, zz);
  const Fe e = Sub(b, a), f = Sub(d, c), g = Add(d, c), h = Add(b, a);
  return {Mul(e, f), Mul(g, h), Mul(f, g), Mul(e, h)};
}

/// 2p (HWCD §3.3, dbl-2008-hwcd with a = -1): four squarings and four
/// multiplications.
Point Double(const Point& p) {
  const Fe xx = Sqr(p.x);
  const Fe yy = Sqr(p.y);
  const Fe zz = Sqr(p.z);
  const Fe xy2 = Sub(Sub(Sqr(Add(p.x, p.y)), xx), yy);  // 2XY
  const Fe g = Sub(yy, xx);                             // Y² - X²
  const Fe f = Sub(Add(Add(zz, zz), xx), yy);           // 2Z² - G
  const Fe h = Add(yy, xx);                             // -(-X² - Y²)
  return {Mul(xy2, f), Mul(g, h), Mul(f, g), Mul(xy2, h)};
}

bool IsNegative(const Fe& f) {
  Encoding s;
  FeToBytes(s, f);
  return (s[0] & 1) != 0;
}

bool IsZero(const Fe& f) {
  Encoding s;
  FeToBytes(s, f);
  return ConstantTimeEqual(s, Encoding{});
}

/// RFC 8032 §5.1.2: y with the sign of x in the top bit.
Encoding Encode(const Point& p) {
  const Fe z_inv = Invert(p.z);
  Encoding s;
  FeToBytes(s, Mul(p.y, z_inv));
  s[31] ^= static_cast<uint8_t>(IsNegative(Mul(p.x, z_inv)) << 7);
  return s;
}

/// RFC 8032 §5.1.3, as OpenSSL decodes a public key: y is taken mod p
/// (a non-canonical encoding is accepted), and x = 0 with the sign bit set
/// gives x = 0. False when no x fits y. Variable time: keys are public.
bool Decode(Point& p, std::span<const uint8_t, 32> s) {
  p.y = FeFromBytes(s);
  p.z = kOne;
  const Fe yy = Sqr(p.y);
  const Fe u = Reduce(Sub(yy, kOne));  // y² - 1
  const Fe v = Add(Mul(yy, kD), kOne);   // dy² + 1
  const Fe v3 = Mul(Sqr(v), v);
  // The candidate x = u v³ (u v⁷)^((p - 5) / 8).
  Fe x = Mul(Mul(u, v3), Pow22523(Mul(Mul(Sqr(v3), v), u)));
  const Fe vxx = Mul(Sqr(x), v);
  if (!IsZero(Sub(vxx, u))) {
    if (!IsZero(Add(vxx, u))) return false;
    x = Mul(x, kSqrtM1);
  }
  if (IsNegative(x) != ((s[31] >> 7) != 0)) x = Sub(Fe{}, x);
  p.x = Reduce(x);
  p.t = Mul(p.x, p.y);
  return true;
}

// ------------------------------------------------------------ scalars

using Scalar = std::array<uint8_t, 32>;

// L = 2^252 + 27742317777372353535851937790883648493, the order of B, as
// little-endian bytes.
constexpr int64_t kL[32] = {0xed, 0xd3, 0xf5, 0x5c, 0x1a, 0x63, 0x12, 0x58,
                            0xd6, 0x9c, 0xf7, 0xa2, 0xde, 0xf9, 0xde, 0x14,
                            0,    0,    0,    0,    0,    0,    0,    0,
                            0,    0,    0,    0,    0,    0,    0,    0x10};

using Wide = std::array<int64_t, 64>;

/// x mod L, where x is the sum of x[i]·2^(8i) over signed limbs of any size
/// that keeps the products below in range (TweetNaCl's modL, from Bernstein
/// et al., "TweetNaCl: a crypto library in 100 tweets"). Limbs 32 and up
/// fold down as 2^252 = -(L - 2^252) mod L; the loops and their arithmetic
/// do not depend on the value. Consumes x.
Scalar ModL(Wide& x) {
  for (int i = 63; i >= 32; --i) {
    int64_t carry = 0;
    int j = i - 32;
    for (; j < i - 12; ++j) {
      x[j] += carry - 16 * x[i] * kL[j - (i - 32)];
      carry = (x[j] + 128) >> 8;
      x[j] -= carry * 256;
    }
    x[j] += carry;
    x[i] = 0;
  }
  int64_t carry = 0;
  for (int j = 0; j < 32; ++j) {
    x[j] += carry - (x[31] >> 4) * kL[j];
    carry = x[j] >> 8;
    x[j] &= 255;
  }
  for (int j = 0; j < 32; ++j) x[j] -= carry * kL[j];
  Scalar r;
  for (int i = 0; i < 32; ++i) {
    x[i + 1] += x[i] >> 8;
    r[i] = static_cast<uint8_t>(x[i] & 255);
  }
  return r;
}

/// A 64-byte hash, as a little-endian integer, mod L.
Scalar ReduceHash(const Sha512Digest& h) {
  Scrubbed<Wide> x;
  for (size_t i = 0; i < h.size(); ++i) x[i] = h[i];
  return ModL(x);
}

/// (a·b + c) mod L.
Scalar MulAdd(const Scalar& a, const Scalar& b, const Scalar& c) {
  Scrubbed<Wide> x;
  for (size_t i = 0; i < c.size(); ++i) x[i] = c[i];
  for (size_t i = 0; i < a.size(); ++i) {
    for (size_t j = 0; j < b.size(); ++j) x[i + j] += int64_t{a[i]} * b[j];
  }
  return ModL(x);
}

// ------------------------------------------------- scalar multiplication

// Row i holds (j + 1)·256^i·B for j = 0..7: a scalar's 64 signed radix-16
// digits each pick one entry of their row (Bernstein et al., "High-speed
// high-security signatures", §4, as in the ref10 code).
using BaseRow = std::array<Cached, 8>;
using BaseTable = std::array<BaseRow, 32>;

BaseTable BuildBaseTable() {
  BaseTable table;
  Point row_base = BasePoint();
  for (BaseRow& row : table) {
    row[0] = ToCached(row_base);
    Point multiple = row_base;
    for (size_t j = 1; j < row.size(); ++j) {
      multiple = AddPoints(multiple, row[0]);
      row[j] = ToCached(multiple);
    }
    for (int k = 0; k < 8; ++k) row_base = Double(row_base);
  }
  return table;
}

/// Built on first use: 40 KiB, touched only by processes that sign.
const BaseTable& Base() {
  static const BaseTable table = BuildBaseTable();
  return table;
}

/// 1 when a == b, else 0, for a and b below 2^63.
uint64_t Equal(uint64_t a, uint64_t b) { return ((a ^ b) - 1) >> 63; }

/// digit·(row's 256^i·B) for a digit in [-8, 8]: every entry is read and
/// the sign applied with masks, so neither the digit's size nor its sign
/// shows in the memory accesses or branches.
Cached Select(const BaseRow& row, int8_t digit) {
  const int64_t d = digit;
  const uint64_t negative = static_cast<uint64_t>(d) >> 63;
  const auto magnitude = static_cast<uint64_t>(
      (d ^ -static_cast<int64_t>(negative)) + static_cast<int64_t>(negative));
  Cached t = kCachedIdentity;
  for (size_t j = 0; j < row.size(); ++j) {
    const uint64_t hit = Equal(magnitude, j + 1);
    CondMove(t.y_plus_x, row[j].y_plus_x, hit);
    CondMove(t.y_minus_x, row[j].y_minus_x, hit);
    CondMove(t.z, row[j].z, hit);
    CondMove(t.t2d, row[j].t2d, hit);
  }
  CondSwap(t.y_plus_x, t.y_minus_x, negative);
  CondMove(t.t2d, Sub(Fe{}, t.t2d), negative);
  return t;
}

struct BaseMulState {
  std::array<int8_t, 64> digits;
  Point acc;
  Cached term;
};

/// a·B for a scalar below 2^255, in constant time: the same 64 additions,
/// four doublings and table reads for every scalar.
Point BaseMul(const Scalar& a) {
  Scrubbed<BaseMulState> s;
  // Radix-16 digits in [0, 15], then recentred into [-8, 8] (the top digit
  // takes the last carry: a < 2^255 keeps it at most 8).
  for (size_t i = 0; i < a.size(); ++i) {
    s.digits[2 * i] = static_cast<int8_t>(a[i] & 15);
    s.digits[2 * i + 1] = static_cast<int8_t>(a[i] >> 4);
  }
  int carry = 0;
  for (size_t i = 0; i + 1 < s.digits.size(); ++i) {
    const int e = s.digits[i] + carry;
    carry = (e + 8) >> 4;
    s.digits[i] = static_cast<int8_t>(e - carry * 16);
  }
  s.digits[63] = static_cast<int8_t>(s.digits[63] + carry);

  // Odd digits first, times 16, then the even ones: digit i of row i / 2.
  const BaseTable& table = Base();
  s.acc = kIdentity;
  for (size_t i = 1; i < s.digits.size(); i += 2) {
    s.term = Select(table[i / 2], s.digits[i]);
    s.acc = AddPoints(s.acc, s.term);
  }
  for (int k = 0; k < 4; ++k) s.acc = Double(s.acc);
  for (size_t i = 0; i < s.digits.size(); i += 2) {
    s.term = Select(table[i / 2], s.digits[i]);
    s.acc = AddPoints(s.acc, s.term);
  }
  return s.acc;
}

using Digits = std::array<int8_t, 256>;

/// The scalar's signed sliding-window form: digits odd and in [-15, 15],
/// any two nonzero ones at least five places apart (ref10's slide).
Digits Slide(const Scalar& a) {
  Digits r;
  for (int i = 0; i < 256; ++i) {
    r[i] = static_cast<int8_t>(1 & (a[i >> 3] >> (i & 7)));
  }
  for (int i = 0; i < 256; ++i) {
    if (r[i] == 0) continue;
    for (int b = 1; b <= 6 && i + b < 256; ++b) {
      if (r[i + b] == 0) continue;
      const int shifted = r[i + b] << b;
      if (r[i] + shifted <= 15) {
        r[i] = static_cast<int8_t>(r[i] + shifted);
        r[i + b] = 0;
      } else if (r[i] - shifted >= -15) {
        r[i] = static_cast<int8_t>(r[i] - shifted);
        for (int k = i + b; k < 256; ++k) {
          if (r[k] == 0) {
            r[k] = 1;
            break;
          }
          r[k] = 0;
        }
      } else {
        break;
      }
    }
  }
  return r;
}

/// p, 3p, 5p, ..., 15p.
std::array<Cached, 8> OddMultiples(const Point& p) {
  std::array<Cached, 8> m;
  m[0] = ToCached(p);
  const Cached twice = ToCached(Double(p));
  Point q = p;
  for (size_t j = 1; j < m.size(); ++j) {
    q = AddPoints(q, twice);
    m[j] = ToCached(q);
  }
  return m;
}

/// a·A + b·B in variable time, for public a, A and b (verification).
Point DoubleScalarMul(const Scalar& a, const Point& A, const Scalar& b) {
  const Digits a_digits = Slide(a), b_digits = Slide(b);
  const std::array<Cached, 8> a_odd = OddMultiples(A);
  const std::array<Cached, 8> b_odd = OddMultiples(BasePoint());
  int i = 255;
  while (i >= 0 && a_digits[i] == 0 && b_digits[i] == 0) --i;
  Point r = kIdentity;
  const auto add = [&r](const std::array<Cached, 8>& odd, int8_t digit) {
    if (digit > 0) r = AddPoints(r, odd[digit / 2]);
    if (digit < 0) r = AddPoints(r, Negate(odd[-digit / 2]));
  };
  for (; i >= 0; --i) {
    r = Double(r);
    add(a_odd, a_digits[i]);
    add(b_odd, b_digits[i]);
  }
  return r;
}

// ---------------------------------------------------------------- keys

// SHA-512(seed) split in two (RFC 8032 §5.1.5): the secret scalar a,
// clamped, and the prefix that keys the nonce.
struct ExpandedKey {
  Scalar a;
  std::array<uint8_t, 32> prefix;
};

void Expand(ExpandedKey& key, BytesView seed) {
  Sha512Digest h = Sha512({seed});
  std::copy(h.begin(), h.begin() + 32, key.a.begin());
  std::copy(h.begin() + 32, h.end(), key.prefix.begin());
  SecureZero(h);
  key.a[0] &= 248;
  key.a[31] &= 127;
  key.a[31] |= 64;
}

}  // namespace

Result<Bytes> SigningPublicKey(const SecretBuffer& secret_key) {
  if (secret_key.size() != kEd25519SecretKeySize) {
    return InvalidArgument("Ed25519 secret key must be 32 bytes");
  }
  Scrubbed<ExpandedKey> key;
  Expand(key, secret_key.secret_bytes());
  const Encoding public_key = Encode(BaseMul(key.a));
  return Bytes(public_key.begin(), public_key.end());
}

SigningKeyPair GenerateSigningKeyPair() {
  SigningKeyPair pair;
  pair.secret_key.resize(kEd25519SecretKeySize);
  RandomBytes(pair.secret_key.secret_bytes());
  pair.public_key = *SigningPublicKey(pair.secret_key);
  return pair;
}

Result<Bytes> SignMessage(const SecretBuffer& secret_key, BytesView message) {
  if (secret_key.size() != kEd25519SecretKeySize) {
    return InvalidArgument("Ed25519 secret key must be 32 bytes");
  }
  // RFC 8032 §5.1.6: r = SHA-512(prefix || M) mod L, R = r·B,
  // k = SHA-512(R || A || M) mod L and S = (r + k·a) mod L.
  Scrubbed<ExpandedKey> key;
  Expand(key, secret_key.secret_bytes());
  const Encoding public_key = Encode(BaseMul(key.a));
  Sha512Digest nonce_hash = Sha512({key.prefix, message});
  Scalar r = ReduceHash(nonce_hash);
  SecureZero(nonce_hash);
  const Encoding big_r = Encode(BaseMul(r));
  const Scalar k = ReduceHash(Sha512({big_r, public_key, message}));
  const Scalar s = MulAdd(k, key.a, r);
  SecureZero(r);

  Bytes signature(big_r.begin(), big_r.end());
  signature.insert(signature.end(), s.begin(), s.end());
  return signature;
}

Status VerifySignature(BytesView public_key, BytesView message,
                       BytesView signature) {
  if (public_key.size() != kEd25519PublicKeySize) {
    return InvalidArgument("Ed25519 public key must be 32 bytes");
  }
  if (signature.size() != kEd25519SignatureSize) {
    return InvalidArgument("Ed25519 signature must be 64 bytes");
  }
  const Status forged =
      PermissionDenied("Ed25519 signature verification failed");
  // RFC 8032 §5.1.7, with OpenSSL's checks: S must be below L; the key
  // must decode; R' = S·B - k·A must encode to R's bytes.
  Scalar s;
  std::copy(signature.begin() + 32, signature.end(), s.begin());
  for (int i = 31; i >= 0; --i) {
    if (s[i] < kL[i]) break;
    if (s[i] > kL[i] || i == 0) return forged;
  }
  Point a;
  if (!Decode(a, public_key.first<32>())) return forged;
  a.x = Reduce(Sub(Fe{}, a.x));  // -A
  a.t = Reduce(Sub(Fe{}, a.t));
  const BytesView big_r = signature.first(32);
  const Scalar k = ReduceHash(Sha512({big_r, public_key, message}));
  const Encoding check = Encode(DoubleScalarMul(k, a, s));
  if (!ConstantTimeEqual(BytesView(check), big_r)) return forged;
  return Status::Ok();
}

}  // namespace tc::crypto
