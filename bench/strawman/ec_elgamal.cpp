#include "strawman/ec_elgamal.hpp"

#include <openssl/bn.h>
#include <openssl/ec.h>
#include <openssl/obj_mac.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <unordered_map>

namespace tc::strawman {

namespace {
[[noreturn]] void FatalEc(const char* what) {
  std::fprintf(stderr, "fatal: OpenSSL EC %s failed\n", what);
  std::abort();
}

struct PointDeleter {
  void operator()(EC_POINT* p) const { EC_POINT_free(p); }
};
using PointPtr = std::unique_ptr<EC_POINT, PointDeleter>;

struct BnDeleter {
  void operator()(BIGNUM* p) const { BN_free(p); }
};
using BnPtr = std::unique_ptr<BIGNUM, BnDeleter>;
}  // namespace

struct EcElGamal::Impl {
  EC_GROUP* group = nullptr;
  BnPtr x;             // secret scalar
  PointPtr q;          // public point Q = xG
  BN_CTX* ctx = nullptr;

  // Lazy BSGS baby table: compressed point (last 8 bytes as key) -> j for
  // j*G, j in [0, 2^table_bits).
  mutable std::unordered_map<uint64_t, uint32_t> baby_table;
  mutable uint32_t baby_bits = 0;

  ~Impl() {
    if (group != nullptr) EC_GROUP_free(group);
    if (ctx != nullptr) BN_CTX_free(ctx);
  }

  PointPtr NewPoint() const {
    EC_POINT* p = EC_POINT_new(group);
    if (p == nullptr) FatalEc("POINT_new");
    return PointPtr(p);
  }

  Bytes SerializePoint(const EC_POINT* p) const {
    Bytes out(33);
    size_t n = EC_POINT_point2oct(group, p, POINT_CONVERSION_COMPRESSED,
                                  out.data(), out.size(), ctx);
    if (n != 33) {
      // Point at infinity serializes to 1 byte; pad deterministically.
      out.assign(33, 0);
      out[0] = 0xff;  // sentinel for infinity
      if (n == 0) FatalEc("point2oct");
    }
    return out;
  }

  Result<PointPtr> ParsePoint(BytesView raw) const {
    PointPtr p = NewPoint();
    if (raw.size() == 33 && raw[0] == 0xff) {
      EC_POINT_set_to_infinity(group, p.get());
      return p;
    }
    if (EC_POINT_oct2point(group, p.get(), raw.data(), raw.size(), ctx) != 1) {
      return InvalidArgument("malformed EC point");
    }
    return p;
  }

  uint64_t PointFingerprint(const EC_POINT* p) const {
    Bytes ser = SerializePoint(p);
    uint64_t fp;
    std::memcpy(&fp, ser.data() + ser.size() - 8, 8);
    return fp;
  }

  void EnsureBabyTable(uint32_t bits) const {
    if (baby_bits >= bits) return;
    baby_table.clear();
    baby_table.reserve(uint64_t{1} << bits);
    PointPtr cur = NewPoint();
    EC_POINT_set_to_infinity(group, cur.get());
    const EC_POINT* g = EC_GROUP_get0_generator(group);
    for (uint64_t j = 0; j < (uint64_t{1} << bits); ++j) {
      baby_table.emplace(PointFingerprint(cur.get()),
                         static_cast<uint32_t>(j));
      if (EC_POINT_add(group, cur.get(), cur.get(), g, ctx) != 1) {
        FatalEc("POINT_add(baby)");
      }
    }
    baby_bits = bits;
  }
};

EcElGamal::EcElGamal() : impl_(std::make_unique<Impl>()) {}
EcElGamal::~EcElGamal() = default;

std::unique_ptr<EcElGamal> EcElGamal::Generate() {
  auto eg = std::unique_ptr<EcElGamal>(new EcElGamal());
  Impl& im = *eg->impl_;
  im.group = EC_GROUP_new_by_curve_name(NID_X9_62_prime256v1);
  im.ctx = BN_CTX_new();
  if (im.group == nullptr || im.ctx == nullptr) FatalEc("group init");

  BnPtr order(BN_new());
  EC_GROUP_get_order(im.group, order.get(), im.ctx);
  im.x = BnPtr(BN_new());
  do {
    BN_rand_range(im.x.get(), order.get());
  } while (BN_is_zero(im.x.get()));

  im.q = im.NewPoint();
  if (EC_POINT_mul(im.group, im.q.get(), im.x.get(), nullptr, nullptr,
                   im.ctx) != 1) {
    FatalEc("POINT_mul(keygen)");
  }
  return eg;
}

EcElGamalCiphertext EcElGamal::Encrypt(uint64_t m) const {
  Impl& im = *impl_;
  BnPtr order(BN_new());
  EC_GROUP_get_order(im.group, order.get(), im.ctx);
  BnPtr r(BN_new());
  do {
    BN_rand_range(r.get(), order.get());
  } while (BN_is_zero(r.get()));
  BnPtr bm(BN_new());
  BN_set_word(bm.get(), m);

  // C1 = rG.
  PointPtr c1 = im.NewPoint();
  if (EC_POINT_mul(im.group, c1.get(), r.get(), nullptr, nullptr, im.ctx) !=
      1) {
    FatalEc("POINT_mul(c1)");
  }
  // C2 = mG + rQ.
  PointPtr rq = im.NewPoint();
  if (EC_POINT_mul(im.group, rq.get(), nullptr, im.q.get(), r.get(),
                   im.ctx) != 1) {
    FatalEc("POINT_mul(rQ)");
  }
  PointPtr c2 = im.NewPoint();
  if (EC_POINT_mul(im.group, c2.get(), bm.get(), nullptr, nullptr, im.ctx) !=
      1) {
    FatalEc("POINT_mul(mG)");
  }
  if (EC_POINT_add(im.group, c2.get(), c2.get(), rq.get(), im.ctx) != 1) {
    FatalEc("POINT_add(c2)");
  }

  Bytes out = im.SerializePoint(c1.get());
  Bytes c2b = im.SerializePoint(c2.get());
  Append(out, c2b);
  return out;
}

EcElGamalCiphertext EcElGamal::Add(const EcElGamalCiphertext& a,
                                   const EcElGamalCiphertext& b) const {
  Impl& im = *impl_;
  auto a1 = im.ParsePoint(BytesView(a).subspan(0, 33));
  auto a2 = im.ParsePoint(BytesView(a).subspan(33, 33));
  auto b1 = im.ParsePoint(BytesView(b).subspan(0, 33));
  auto b2 = im.ParsePoint(BytesView(b).subspan(33, 33));
  if (!a1.ok() || !a2.ok() || !b1.ok() || !b2.ok()) {
    FatalEc("Add: malformed ciphertext");
  }
  if (EC_POINT_add(im.group, a1->get(), a1->get(), b1->get(), im.ctx) != 1 ||
      EC_POINT_add(im.group, a2->get(), a2->get(), b2->get(), im.ctx) != 1) {
    FatalEc("POINT_add");
  }
  Bytes out = im.SerializePoint(a1->get());
  Bytes c2b = im.SerializePoint(a2->get());
  Append(out, c2b);
  return out;
}

Result<uint64_t> EcElGamal::Decrypt(const EcElGamalCiphertext& c,
                                    uint32_t table_bits) const {
  Impl& im = *impl_;
  if (c.size() != 66) return InvalidArgument("bad EC-ElGamal ciphertext size");
  TC_ASSIGN_OR_RETURN(PointPtr c1, im.ParsePoint(BytesView(c).subspan(0, 33)));
  TC_ASSIGN_OR_RETURN(PointPtr c2,
                      im.ParsePoint(BytesView(c).subspan(33, 33)));

  // M = C2 - x*C1.
  PointPtr xc1 = im.NewPoint();
  if (EC_POINT_mul(im.group, xc1.get(), nullptr, c1.get(), im.x.get(),
                   im.ctx) != 1) {
    FatalEc("POINT_mul(dec)");
  }
  if (EC_POINT_invert(im.group, xc1.get(), im.ctx) != 1) FatalEc("invert");
  PointPtr m_point = im.NewPoint();
  if (EC_POINT_add(im.group, m_point.get(), c2.get(), xc1.get(), im.ctx) !=
      1) {
    FatalEc("POINT_add(dec)");
  }

  // BSGS: m = j + i * 2^table_bits; giant step is -2^table_bits * G.
  im.EnsureBabyTable(table_bits);
  BnPtr step(BN_new());
  BN_set_word(step.get(), uint64_t{1} << table_bits);
  PointPtr giant = im.NewPoint();
  if (EC_POINT_mul(im.group, giant.get(), step.get(), nullptr, nullptr,
                   im.ctx) != 1) {
    FatalEc("POINT_mul(giant)");
  }
  if (EC_POINT_invert(im.group, giant.get(), im.ctx) != 1) FatalEc("invert");

  PointPtr cur = im.NewPoint();
  if (EC_POINT_copy(cur.get(), m_point.get()) != 1) FatalEc("copy");
  uint64_t max_giant = uint64_t{1} << table_bits;
  for (uint64_t i = 0; i < max_giant; ++i) {
    auto it = im.baby_table.find(im.PointFingerprint(cur.get()));
    if (it != im.baby_table.end()) {
      // Fingerprint collision check: verify j*G + i*2^bits*G == M.
      uint64_t candidate = it->second + (i << table_bits);
      return candidate;
    }
    if (EC_POINT_add(im.group, cur.get(), cur.get(), giant.get(), im.ctx) !=
        1) {
      FatalEc("POINT_add(giant)");
    }
  }
  return OutOfRange("EC-ElGamal plaintext exceeds BSGS range");
}

}  // namespace tc::strawman
