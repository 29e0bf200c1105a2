// Ed25519 known answers: RFC 8032 §7.1's vectors and a keypair and
// signature made by OpenSSL's EVP Ed25519, signed byte for byte and
// verified, with every one-bit change to a signature rejected. Then the
// native code against OpenSSL's EVP Ed25519: signatures of 1,000 seeded
// seeds and messages byte for byte, and verification's verdict on mutated
// signatures, S >= L, and non-canonical and small-order public keys. And
// SHA-512 against FIPS 180's vectors and EVP at every length and split.
#include <gtest/gtest.h>
#include <openssl/evp.h>

#include <memory>
#include <string>
#include <vector>

#include "crypto/ed25519.hpp"
#include "crypto/rand.hpp"
#include "crypto/sha512.hpp"

namespace tc::crypto {
namespace {

struct SignCase {
  const char* name;
  const char* seed;
  const char* public_key;
  const char* message;
  const char* signature;
};

// RFC 8032 §7.1: TEST 1, 2, 3 and SHA(abc), whose message is the SHA-512
// digest of "abc"; then a pin made with OpenSSL 3.5's `genpkey -algorithm
// ed25519` and `pkeyutl -sign -rawin` over "timecrypt attestation pin".
constexpr SignCase kSignCases[] = {
    {"rfc8032_test1",
     "9d61b19deffd5a60ba844af492ec2cc44449c5697b326919703bac031cae7f60",
     "d75a980182b10ab7d54bfed3c964073a0ee172f3daa62325af021a68f707511a", "",
     "e5564300c360ac729086e2cc806e828a84877f1eb8e5d974d873e06522490155"
     "5fb8821590a33bacc61e39701cf9b46bd25bf5f0595bbe24655141438e7a100b"},
    {"rfc8032_test2",
     "4ccd089b28ff96da9db6c346ec114e0f5b8a319f35aba624da8cf6ed4fb8a6fb",
     "3d4017c3e843895a92b70aa74d1b7ebc9c982ccf2ec4968cc0cd55f12af4660c", "72",
     "92a009a9f0d4cab8720e820b5f642540a2b27b5416503f8fb3762223ebdb69da"
     "085ac1e43e15996e458f3613d0f11d8c387b2eaeb4302aeeb00d291612bb0c00"},
    {"rfc8032_test3",
     "c5aa8df43f9f837bedb7442f31dcb7b166d38535076f094b85ce3a2e0b4458f7",
     "fc51cd8e6218a1a38da47ed00230f0580816ed13ba3303ac5deb911548908025",
     "af82",
     "6291d657deec24024827e69c3abe01a30ce548a284743a445e3680d7db5ac3ac"
     "18ff9b538d16f290ae67f760984dc6594a7c15e9716ed28dc027beceea1ec40a"},
    {"rfc8032_sha_abc",
     "833fe62409237b9d62ec77587520911e9a759cec1d19755b7da901b96dca3d42",
     "ec172b93ad5e563bf4932c70e1245034c35467ef2efd4d64ebf819683467e2bf",
     "ddaf35a193617abacc417349ae20413112e6fa4e89a97ea20a9eeee64b55d39a"
     "2192992a274fc1a836ba3c23a3feebbd454d4423643ce80e2a9ac94fa54ca49f",
     "dc2a4459e7369633a52b1bf277839a00201009a3efbf3ecb69bea2186c26b589"
     "09351fc9ac90b3ecfdfbc7c66431e0303dca179c138ac17ad9bef1177331a704"},
    {"openssl_pin",
     "59d9167a99333c7ed2ede1cd4699a4243a1898cc44bafbf6d12775580353b092",
     "4dd55602616edc80e48ab67e4eeac133f06b8b08b743736305fee4c747adaf82",
     "74696d656372797074206174746573746174696f6e2070696e",
     "7904564c611ef19f4ca09a372236d17eb1457cb5606efad7f704cf2b56ba2e49"
     "70ea6f4895678bba521096564f5943944d8710530dcf1464d58215fbca344300"},
};

Bytes Hex(const char* hex) { return FromHex(hex).value(); }

TEST(Ed25519KnownAnswers, SignsEachVectorByteForByte) {
  for (const SignCase& c : kSignCases) {
    auto sig = SignMessage(SecretBuffer(Hex(c.seed)), Hex(c.message));
    ASSERT_TRUE(sig.ok()) << c.name << ": " << sig.status().ToString();
    EXPECT_EQ(ToHex(*sig), c.signature) << c.name;
  }
}

TEST(Ed25519KnownAnswers, VerifiesEachVectorAndRejectsEveryFlippedBit) {
  for (const SignCase& c : kSignCases) {
    const Bytes key = Hex(c.public_key);
    const Bytes message = Hex(c.message);
    const Bytes sig = Hex(c.signature);
    EXPECT_TRUE(VerifySignature(key, message, sig).ok()) << c.name;
    for (size_t bit = 0; bit < 8 * sig.size(); ++bit) {
      Bytes flipped = sig;
      flipped[bit / 8] ^= static_cast<uint8_t>(1u << (bit % 8));
      EXPECT_EQ(VerifySignature(key, message, flipped).code(),
                StatusCode::kPermissionDenied)
          << c.name << " bit " << bit;
    }
  }
}

TEST(Ed25519KnownAnswers, PublicKeyOfEachSeed) {
  for (const SignCase& c : kSignCases) {
    auto public_key = SigningPublicKey(SecretBuffer(Hex(c.seed)));
    ASSERT_TRUE(public_key.ok()) << c.name;
    EXPECT_EQ(ToHex(*public_key), c.public_key) << c.name;
  }
  EXPECT_EQ(SigningPublicKey(SecretBuffer(Bytes(31))).status().code(),
            StatusCode::kInvalidArgument);
}

// ------------------------------------------------- against OpenSSL's EVP

struct PkeyFree {
  void operator()(EVP_PKEY* p) const { EVP_PKEY_free(p); }
};
struct MdCtxFree {
  void operator()(EVP_MD_CTX* p) const { EVP_MD_CTX_free(p); }
};
using PkeyPtr = std::unique_ptr<EVP_PKEY, PkeyFree>;
using MdCtxPtr = std::unique_ptr<EVP_MD_CTX, MdCtxFree>;

Bytes EvpSign(const Bytes& seed, BytesView message) {
  PkeyPtr key(EVP_PKEY_new_raw_private_key(EVP_PKEY_ED25519, nullptr,
                                           seed.data(), seed.size()));
  MdCtxPtr ctx(EVP_MD_CTX_new());
  Bytes sig(kEd25519SignatureSize);
  size_t len = sig.size();
  const bool ok = key && ctx &&
                  EVP_DigestSignInit(ctx.get(), nullptr, nullptr, nullptr,
                                     key.get()) == 1 &&
                  EVP_DigestSign(ctx.get(), sig.data(), &len, message.data(),
                                 message.size()) == 1;
  return ok ? sig : Bytes{};
}

Bytes EvpPublicKey(const Bytes& seed) {
  PkeyPtr key(EVP_PKEY_new_raw_private_key(EVP_PKEY_ED25519, nullptr,
                                           seed.data(), seed.size()));
  Bytes public_key(kEd25519PublicKeySize);
  size_t len = public_key.size();
  if (!key ||
      EVP_PKEY_get_raw_public_key(key.get(), public_key.data(), &len) != 1) {
    return {};
  }
  return public_key;
}

/// EVP's verdict; a key EVP will not import counts as a rejection.
bool EvpVerifies(BytesView public_key, BytesView message, BytesView sig) {
  PkeyPtr key(EVP_PKEY_new_raw_public_key(EVP_PKEY_ED25519, nullptr,
                                          public_key.data(),
                                          public_key.size()));
  MdCtxPtr ctx(EVP_MD_CTX_new());
  return key && ctx &&
         EVP_DigestVerifyInit(ctx.get(), nullptr, nullptr, nullptr,
                              key.get()) == 1 &&
         EVP_DigestVerify(ctx.get(), sig.data(), sig.size(), message.data(),
                          message.size()) == 1;
}

/// The native verdict, with a rejection's status pinned.
bool Verifies(BytesView public_key, BytesView message, BytesView sig) {
  const Status status = VerifySignature(public_key, message, sig);
  EXPECT_TRUE(status.ok() ||
              status.code() == StatusCode::kPermissionDenied)
      << status.ToString();
  return status.ok();
}

TEST(Ed25519VsEvp, SignaturesMatchOnSeededSeedsAndMessages) {
  DeterministicRng rng(0x8032);
  for (int i = 0; i < 1000; ++i) {
    Bytes seed(kEd25519SecretKeySize);
    rng.Fill(seed);
    Bytes message(rng.NextBelow(300));
    rng.Fill(message);
    const Bytes expected = EvpSign(seed, message);
    ASSERT_EQ(expected.size(), kEd25519SignatureSize) << "pair " << i;
    auto sig = SignMessage(SecretBuffer(seed), message);
    ASSERT_TRUE(sig.ok()) << sig.status().ToString();
    ASSERT_EQ(ToHex(*sig), ToHex(expected))
        << "pair " << i << ": seed " << ToHex(seed);
    ASSERT_EQ(ToHex(*SigningPublicKey(SecretBuffer(seed))),
              ToHex(EvpPublicKey(seed)))
        << "pair " << i;
  }
}

// Every signature a mutation of a valid one: one flipped bit anywhere, a
// random S, and S replaced by L, L + 1, 2^253 - 1 and 2^256 - 1, and L
// with a low byte raised. A message flip and a foreign key too.
TEST(Ed25519VsEvp, VerdictsMatchOnMutatedSignatures) {
  const Bytes l = Hex(
      "edd3f55c1a631258d69cf7a2def9de1400000000000000000000000000000010");
  std::vector<Bytes> big_s = {l, l, l, Bytes(32, 0xff), Bytes(32, 0xff)};
  big_s[1][0] = 0xee;                               // L + 1
  big_s[2][15] = 0x15;                              // L + 2^120
  big_s[3][31] = 0x1f;                              // 2^253 - 1
  DeterministicRng rng(7);
  int accepted = 0, checked = 0;
  for (int i = 0; i < 40; ++i) {
    Bytes seed(kEd25519SecretKeySize);
    rng.Fill(seed);
    Bytes message(1 + rng.NextBelow(100));
    rng.Fill(message);
    const Bytes public_key = EvpPublicKey(seed);
    const Bytes sig = EvpSign(seed, message);
    std::vector<Bytes> mutated;
    for (size_t bit = i % 8; bit < 8 * sig.size(); bit += 8) {
      mutated.push_back(sig);
      mutated.back()[bit / 8] ^= static_cast<uint8_t>(1u << (bit % 8));
    }
    for (const Bytes& s : big_s) {
      mutated.push_back(sig);
      std::copy(s.begin(), s.end(), mutated.back().begin() + 32);
    }
    mutated.push_back(sig);
    rng.Fill(MutableBytesView(mutated.back()).subspan(32, 31));
    mutated.back()[63] &= 0x0f;  // a random S below L
    for (const Bytes& m : mutated) {
      const bool evp = EvpVerifies(public_key, message, m);
      ASSERT_EQ(Verifies(public_key, message, m), evp)
          << "key " << ToHex(public_key) << " sig " << ToHex(m);
      accepted += evp;
      ++checked;
    }
    ASSERT_TRUE(Verifies(public_key, message, sig));
    Bytes other = message;
    other[0] ^= 1;
    ASSERT_FALSE(Verifies(public_key, other, sig));
  }
  EXPECT_EQ(accepted, 0) << "of " << checked;
}

// Public keys that are not ordinary: the small-order points (orders 1, 2,
// 4 and 8), non-canonical encodings of y (p and up), each with the sign
// bit clear and set, and encodings with no point. Each is tried with the
// signature (R = identity, S = 0), which verifies exactly when k·A is the
// identity, with S = 1 and R = B, and with a real signature.
TEST(Ed25519VsEvp, VerdictsMatchOnNonCanonicalAndSmallOrderKeys) {
  std::vector<Bytes> keys;
  for (const char* hex : {
           // identity, order 2 (y = -1), order 4 (y = 0)
           "0100000000000000000000000000000000000000000000000000000000000000",
           "ecffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff7f",
           "0000000000000000000000000000000000000000000000000000000000000000",
           // order 8
           "26e8958fc2b227b045c3f489f2ef98f0d5dfac05d3c63339b13802886d53fc05",
           "c7176a703d4dd84fba3c0b760d10670f2a2053fa2c39ccc64ec7fd7792ac037a",
           // y = p (0), p + 1 (1), p + 2 and 2^255 - 1, not reduced
           "edffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff7f",
           "eeffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff7f",
           "efffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff7f",
           "ffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff7f",
           // y = 2: no x fits
           "0200000000000000000000000000000000000000000000000000000000000000",
       }) {
    keys.push_back(Hex(hex));
    keys.push_back(keys.back());
    keys.back()[31] |= 0x80;
  }
  const Bytes seed = Hex(kSignCases[0].seed);
  const Bytes identity_zero = Hex(
      "0100000000000000000000000000000000000000000000000000000000000000"
      "0000000000000000000000000000000000000000000000000000000000000000");
  Bytes base_one = Hex(
      "5866666666666666666666666666666666666666666666666666666666666666"
      "0100000000000000000000000000000000000000000000000000000000000000");
  DeterministicRng rng(25519);
  int accepted = 0;
  for (const Bytes& key : keys) {
    for (int i = 0; i < 16; ++i) {
      Bytes message(8);
      rng.Fill(message);
      for (const Bytes& sig :
           {identity_zero, base_one, EvpSign(seed, message)}) {
        const bool evp = EvpVerifies(key, message, sig);
        ASSERT_EQ(Verifies(key, message, sig), evp)
            << "key " << ToHex(key) << " sig " << ToHex(sig);
        accepted += evp;
      }
    }
  }
  // The identity key accepts (identity, 0) for every message.
  EXPECT_GE(accepted, 32);
}

// ---------------------------------------------------------------- SHA-512

TEST(Sha512, Fips180KnownAnswers) {
  EXPECT_EQ(ToHex(Sha512({})),
            "cf83e1357eefb8bdf1542850d66d8007d620e4050b5715dc83f4a921d36ce9ce"
            "47d0d13c5d85f2b0ff8318d2877eec2f63b931bd47417a81a538327af927da3e");
  EXPECT_EQ(ToHex(Sha512({ToBytes("abc")})),
            "ddaf35a193617abacc417349ae20413112e6fa4e89a97ea20a9eeee64b55d39a"
            "2192992a274fc1a836ba3c23a3feebbd454d4423643ce80e2a9ac94fa54ca49f");
}

// Every length through three blocks, the padding's two-block edge (112 to
// 127 bytes) among them, hashed whole and split into three parts.
TEST(Sha512, MatchesEvpAtEveryLengthAndSplit) {
  DeterministicRng rng(512);
  for (size_t n = 0; n <= 3 * 128 + 1; ++n) {
    Bytes msg(n);
    rng.Fill(msg);
    Sha512Digest expected;
    unsigned int len = 0;
    ASSERT_EQ(EVP_Digest(msg.data(), n, expected.data(), &len, EVP_sha512(),
                         nullptr),
              1);
    EXPECT_EQ(Sha512({msg}), expected) << "length " << n;
    const size_t a = n / 3, b = n - n / 5;
    const BytesView view(msg);
    EXPECT_EQ(Sha512({view.first(a), view.subspan(a, b - a), view.subspan(b)}),
              expected)
        << "length " << n;
  }
}

}  // namespace
}  // namespace tc::crypto
