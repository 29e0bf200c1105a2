#include "strawman/paillier.hpp"

#include <openssl/bn.h>

#include <cstdio>
#include <cstdlib>

namespace tc::strawman {

namespace {
[[noreturn]] void FatalBn(const char* what) {
  std::fprintf(stderr, "fatal: OpenSSL BN %s failed\n", what);
  std::abort();
}

struct BnDeleter {
  void operator()(BIGNUM* p) const { BN_free(p); }
};
using BnPtr = std::unique_ptr<BIGNUM, BnDeleter>;

BnPtr NewBn() {
  BIGNUM* b = BN_new();
  if (b == nullptr) FatalBn("BN_new");
  return BnPtr(b);
}
}  // namespace

struct Paillier::Impl {
  BnPtr n;        // modulus
  BnPtr n2;       // n^2
  BnPtr lambda;   // lcm(p-1, q-1)
  BnPtr mu;       // (L(g^lambda mod n^2))^-1 mod n
  // CRT acceleration for decryption.
  BnPtr p2, q2;         // p^2, q^2
  BnPtr hp, hq;         // precomputed L_p/L_q inverses
  BnPtr p, q;
  BnPtr p2_inv_q2;      // p^2^{-1} mod q^2 for CRT recombination
  BN_CTX* ctx = nullptr;
  int bits = 0;

  ~Impl() {
    if (ctx != nullptr) BN_CTX_free(ctx);
  }
};

Paillier::Paillier() : impl_(std::make_unique<Impl>()) {}
Paillier::~Paillier() = default;

std::unique_ptr<Paillier> Paillier::Generate(int modulus_bits) {
  auto paillier = std::unique_ptr<Paillier>(new Paillier());
  Impl& im = *paillier->impl_;
  im.bits = modulus_bits;
  im.ctx = BN_CTX_new();
  if (im.ctx == nullptr) FatalBn("BN_CTX_new");

  im.p = NewBn();
  im.q = NewBn();
  im.n = NewBn();
  im.n2 = NewBn();
  im.lambda = NewBn();
  im.mu = NewBn();
  im.p2 = NewBn();
  im.q2 = NewBn();

  // Generate two safe-size primes p != q with p*q of modulus_bits.
  do {
    if (BN_generate_prime_ex(im.p.get(), modulus_bits / 2, 0, nullptr,
                             nullptr, nullptr) != 1 ||
        BN_generate_prime_ex(im.q.get(), modulus_bits / 2, 0, nullptr,
                             nullptr, nullptr) != 1) {
      FatalBn("prime generation");
    }
  } while (BN_cmp(im.p.get(), im.q.get()) == 0);

  BN_mul(im.n.get(), im.p.get(), im.q.get(), im.ctx);
  BN_sqr(im.n2.get(), im.n.get(), im.ctx);
  BN_sqr(im.p2.get(), im.p.get(), im.ctx);
  BN_sqr(im.q2.get(), im.q.get(), im.ctx);

  // lambda = lcm(p-1, q-1) = (p-1)(q-1) / gcd(p-1, q-1).
  BnPtr pm1 = NewBn(), qm1 = NewBn(), gcd = NewBn(), prod = NewBn();
  BN_sub(pm1.get(), im.p.get(), BN_value_one());
  BN_sub(qm1.get(), im.q.get(), BN_value_one());
  BN_gcd(gcd.get(), pm1.get(), qm1.get(), im.ctx);
  BN_mul(prod.get(), pm1.get(), qm1.get(), im.ctx);
  BN_div(im.lambda.get(), nullptr, prod.get(), gcd.get(), im.ctx);

  // mu = (L(g^lambda mod n^2))^{-1} mod n, with g = n+1:
  // g^lambda = (1+n)^lambda = 1 + lambda*n mod n^2, so L(...) = lambda mod n.
  BnPtr lam_mod_n = NewBn();
  BN_mod(lam_mod_n.get(), im.lambda.get(), im.n.get(), im.ctx);
  if (BN_mod_inverse(im.mu.get(), lam_mod_n.get(), im.n.get(), im.ctx) ==
      nullptr) {
    FatalBn("mu inverse");
  }

  // CRT recombination constant.
  im.p2_inv_q2 = NewBn();
  if (BN_mod_inverse(im.p2_inv_q2.get(), im.p2.get(), im.q2.get(), im.ctx) ==
      nullptr) {
    FatalBn("CRT inverse");
  }
  return paillier;
}

size_t Paillier::ciphertext_size() const {
  return static_cast<size_t>(impl_->bits) / 4;  // 2 * (bits/8)
}

PaillierCiphertext Paillier::Encrypt(uint64_t m) const {
  Impl& im = *impl_;
  BnPtr bm = NewBn(), r = NewBn(), c = NewBn(), tmp = NewBn();
  BN_set_word(bm.get(), m);

  // r uniform in [1, n).
  do {
    BN_rand_range(r.get(), im.n.get());
  } while (BN_is_zero(r.get()));

  // c = (1 + m*n) * r^n mod n^2.
  BN_mod_mul(tmp.get(), bm.get(), im.n.get(), im.n2.get(), im.ctx);
  BN_add_word(tmp.get(), 1);
  BnPtr rn = NewBn();
  BN_mod_exp(rn.get(), r.get(), im.n.get(), im.n2.get(), im.ctx);
  BN_mod_mul(c.get(), tmp.get(), rn.get(), im.n2.get(), im.ctx);

  PaillierCiphertext out(ciphertext_size());
  BN_bn2binpad(c.get(), out.data(), static_cast<int>(out.size()));
  return out;
}

PaillierCiphertext Paillier::Add(const PaillierCiphertext& a,
                                 const PaillierCiphertext& b) const {
  Impl& im = *impl_;
  BnPtr ba = NewBn(), bb = NewBn(), c = NewBn();
  BN_bin2bn(a.data(), static_cast<int>(a.size()), ba.get());
  BN_bin2bn(b.data(), static_cast<int>(b.size()), bb.get());
  BN_mod_mul(c.get(), ba.get(), bb.get(), im.n2.get(), im.ctx);
  PaillierCiphertext out(ciphertext_size());
  BN_bn2binpad(c.get(), out.data(), static_cast<int>(out.size()));
  return out;
}

Result<uint64_t> Paillier::Decrypt(const PaillierCiphertext& c) const {
  Impl& im = *impl_;
  BnPtr bc = NewBn(), m = NewBn();
  BN_bin2bn(c.data(), static_cast<int>(c.size()), bc.get());

  // Standard (non-CRT-split) decryption: m = L(c^lambda mod n^2) * mu mod n.
  // BN_mod_exp with a 3072-bit exponent dominates; CRT would give ~4x but
  // correctness and clarity win here — the strawman is slow either way.
  BnPtr u = NewBn();
  BN_mod_exp(u.get(), bc.get(), im.lambda.get(), im.n2.get(), im.ctx);
  // L(u) = (u - 1) / n.
  BN_sub_word(u.get(), 1);
  BnPtr l = NewBn();
  BN_div(l.get(), nullptr, u.get(), im.n.get(), im.ctx);
  BN_mod_mul(m.get(), l.get(), im.mu.get(), im.n.get(), im.ctx);

  // Aggregates fit in 64 bits by TimeCrypt's design (M = 2^64).
  if (BN_num_bits(m.get()) > 64) {
    return OutOfRange("Paillier plaintext exceeds 64 bits");
  }
  return static_cast<uint64_t>(BN_get_word(m.get()));
}

}  // namespace tc::strawman
