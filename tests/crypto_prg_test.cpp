// PRG/AES correctness: software AES against the FIPS-197 test vector, the
// AES-NI block cipher and kernels (the GGM step and HEAC's field keys)
// against the software one, the CPU feature table's dispatch and test mask,
// SHA-256 and its hash-chain kernels against OpenSSL on both kernel arms,
// and PRG properties.
#include <gtest/gtest.h>
#include <openssl/evp.h>

#include <cstdio>
#include <cstring>
#include <span>
#include <typeinfo>
#include <vector>

#include "crypto/aes_gcm.hpp"
#include "crypto/aesni.hpp"
#include "crypto/cpu.hpp"
#include "crypto/heac.hpp"
#include "crypto/prg.hpp"
#include "crypto/rand.hpp"
#include "crypto/sha256.hpp"
#include "crypto/soft_aes.hpp"
#include "tests/kernel_arms.hpp"

namespace tc::crypto {
namespace {

Key128 KeyFromHex(const char* hex) {
  auto b = FromHex(hex);
  Key128 k{};
  std::copy(b->begin(), b->end(), k.begin());
  return k;
}

TEST(SoftAes, Fips197Vector) {
  // FIPS-197 Appendix C.1 AES-128 known-answer test.
  SoftAes128 aes(KeyFromHex("000102030405060708090a0b0c0d0e0f"));
  Block128 pt = KeyFromHex("00112233445566778899aabbccddeeff");
  Block128 ct = aes.EncryptBlock(pt);
  EXPECT_EQ(ToHex(ct), "69c4e0d86a7b0430d8cdb78070b4c55a");
}

TEST(SoftAes, DistinctBlocksDistinctOutputs) {
  SoftAes128 aes(RandomKey128());
  Block128 a{}, b{};
  b[0] = 1;
  EXPECT_NE(aes.EncryptBlock(a), aes.EncryptBlock(b));
}

TEST(AesNi, Fips197Vector) {
  if (!CpuHas(kCpuAesNi)) GTEST_SKIP() << "no AES-NI on this CPU";
  AesNiBlock aes(KeyFromHex("000102030405060708090a0b0c0d0e0f"));
  Block128 pt = KeyFromHex("00112233445566778899aabbccddeeff");
  EXPECT_EQ(ToHex(aes.EncryptBlock(pt)), "69c4e0d86a7b0430d8cdb78070b4c55a");
}

/// AES_key(f) folded to 64 bits on the software AES: HEAC's field key f.
uint64_t SoftFieldKey(const SoftAes128& soft, uint64_t f) {
  Block128 counter{};
  std::memcpy(counter.data(), &f, sizeof(f));
  return Fold64(soft.EncryptBlock(counter));
}

// The key schedule against the software one on 1,000 seeded keys and the
// two extreme keys, through the one-block cipher and both kernels: a wrong
// round key shows in every block.
TEST(AesNi, MatchesSoftwareAes) {
  if (!CpuHas(kCpuAesNi)) GTEST_SKIP() << "no AES-NI on this CPU";
  DeterministicRng rng(197);
  std::vector<Key128> keys(1000);
  for (auto& key : keys) rng.Fill(key);
  keys.push_back(Key128{});
  Key128 ones;
  ones.fill(0xff);
  keys.push_back(ones);
  constexpr Block128 kZero{};
  constexpr Block128 kOne{1};
  std::vector<uint64_t> field_keys(19);
  for (const Key128& key : keys) {
    SCOPED_TRACE(::testing::Message() << "key " << ToHex(key));
    Block128 in;
    rng.Fill(in);
    SoftAes128 soft(key);
    EXPECT_EQ(AesNiBlock(key).EncryptBlock(in), soft.EncryptBlock(in));
    Key128 left, right;
    AesNiExpand(key, left, right);
    EXPECT_EQ(left, soft.EncryptBlock(kZero));
    EXPECT_EQ(right, soft.EncryptBlock(kOne));
    AesNiFieldKeys(key, field_keys);
    for (uint64_t f = 0; f < field_keys.size(); ++f) {
      EXPECT_EQ(field_keys[f], SoftFieldKey(soft, f)) << "field " << f;
    }
  }
}

// Field counts 0..25: an empty call, one run of eight with and without
// unused lanes, and later runs (whose schedule comes from the stack copy)
// full and partial.
TEST(AesNi, FieldKeysMatchSoftwareAtEveryCount) {
  if (!CpuHas(kCpuAesNi)) GTEST_SKIP() << "no AES-NI on this CPU";
  const Key128 key = RandomKey128();
  SoftAes128 soft(key);
  for (size_t n = 0; n <= 25; ++n) {
    // One guard word past the end must stay untouched.
    std::vector<uint64_t> keys(n + 1, 0x5eed);
    AesNiFieldKeys(key, std::span(keys).first(n));
    for (size_t f = 0; f < n; ++f) {
      EXPECT_EQ(keys[f], SoftFieldKey(soft, f)) << "n " << n << " field " << f;
    }
    EXPECT_EQ(keys[n], 0x5eedu) << "n " << n;
  }
}

/// True when `prg` is the software AES PRG: MakePrg(kAesSoft)'s type.
bool IsSoftAesPrg(const Prg& prg) {
  const auto soft = MakePrg(PrgKind::kAesSoft);
  return typeid(prg) == typeid(*soft);
}

// The one test seam: under a mask AES-GCM leaves its native path and
// MakePrg(kAesNi) expands like the software AES; a mask never sets a bit,
// and the table it found comes back when the scope ends.
TEST(CpuFeatures, MaskMovesEveryKernelAndLiftsWithItsScope) {
  const uint32_t detected = CpuFeatures();
  EXPECT_EQ(detected & ~kCpuAllFeatures, 0u);
  const Key128 parent = RandomKey128();
  Key128 soft_left, soft_right;
  MakePrg(PrgKind::kAesSoft)->Expand(parent, soft_left, soft_right);
  {
    internal::ScopedCpuFeatureMask mask(kCpuAllFeatures);
    EXPECT_EQ(CpuFeatures(), 0u);
    EXPECT_FALSE(GcmIsNative());
    const auto prg = MakePrg(PrgKind::kAesNi);
    EXPECT_TRUE(IsSoftAesPrg(*prg));
    Key128 left, right;
    prg->Expand(parent, left, right);
    EXPECT_EQ(left, soft_left);
    EXPECT_EQ(right, soft_right);
  }
  EXPECT_EQ(CpuFeatures(), detected);
  {
    internal::ScopedCpuFeatureMask mask(kCpuAesNi);
    EXPECT_EQ(CpuFeatures(), detected & ~kCpuAesNi);
    internal::ScopedCpuFeatureMask none(0);
    EXPECT_EQ(CpuFeatures(), detected & ~kCpuAesNi);
  }
  EXPECT_EQ(CpuFeatures(), detected);
  EXPECT_EQ(GcmIsNative(), CpuHas(kCpuAesNi | kCpuPclmul));
}

// Each arm runs the kernels it claims: the Portable arm every software
// path, the Native arm those of the features this CPU has.
class KernelDispatch : public test::KernelArmTest {};

TEST_P(KernelDispatch, EveryKernelFollowsTheTable) {
  std::printf(
      "CPU feature table: AES-NI %d, PCLMULQDQ %d, SHA-NI %d, VAES %d\n",
      CpuHas(kCpuAesNi), CpuHas(kCpuPclmul), CpuHas(kCpuShaNi),
      CpuHas(kCpuVaes));
  if (portable()) EXPECT_EQ(CpuFeatures(), 0u);
  if (GetParam() == test::KernelArm::kNoVaes) EXPECT_FALSE(CpuHasLanes());
  EXPECT_EQ(GcmIsNative(), CpuHas(kCpuAesNi | kCpuPclmul));
  EXPECT_EQ(IsSoftAesPrg(*MakePrg(PrgKind::kAesNi)), !CpuHas(kCpuAesNi));
}

TC_INSTANTIATE_KERNEL_ARMS(KernelDispatch);

TEST(CpuFeatureTable, VaesComesOnlyWithAesNiAndPclmul) {
  // The lane kernels run AES-NI and PCLMULQDQ code too: the probe sets
  // kCpuVaes only beside both, and masking either one stops the lanes.
  const uint32_t detected = CpuFeatures();
  if ((detected & kCpuVaes) != 0) {
    EXPECT_EQ(detected & (kCpuAesNi | kCpuPclmul), kCpuAesNi | kCpuPclmul);
  }
  EXPECT_EQ(CpuHasLanes(), (detected & kCpuVaes) != 0);
  for (uint32_t cleared : {uint32_t{kCpuAesNi}, uint32_t{kCpuPclmul},
                           uint32_t{kCpuVaes}}) {
    internal::ScopedCpuFeatureMask mask(cleared);
    EXPECT_FALSE(CpuHasLanes()) << "cleared " << cleared;
  }
}

TEST(Sha256, KnownAnswer) {
  // SHA-256("abc") — NIST FIPS 180-2 test vector.
  auto d = Sha256(ToBytes("abc"));
  EXPECT_EQ(ToHex(d),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
}

TEST(Sha256, ConcatMatchesSingleShot) {
  Bytes a = ToBytes("hello ");
  Bytes b = ToBytes("world");
  Bytes ab = ToBytes("hello world");
  EXPECT_EQ(Sha256Concat(a, b), Sha256(ab));
}

/// SHA-256 through OpenSSL's one-shot digest, which shares no code with the
/// SHA-NI path.
Sha256Digest EvpSha256(const Key128& in) {
  Sha256Digest d;
  unsigned int len = 0;
  EXPECT_EQ(EVP_Digest(in.data(), in.size(), d.data(), &len, EVP_sha256(),
                       nullptr),
            1);
  return d;
}

class Sha256ChainWalkTest : public test::KernelArmTest {};
class Sha256ChainKeyTest : public test::KernelArmTest {};
TC_INSTANTIATE_KERNEL_ARMS(Sha256ChainWalkTest);
TC_INSTANTIATE_KERNEL_ARMS(Sha256ChainKeyTest);

TEST_P(Sha256ChainWalkTest, MatchesRepeatedSha256) {
  DeterministicRng rng(256);
  for (uint64_t n : {0, 1, 2, 255, 256, 1092}) {
    SCOPED_TRACE(::testing::Message() << n << " steps");
    Key128 start;
    rng.Fill(start);
    Key128 by_evp = start, by_sha256 = start;
    for (uint64_t i = 0; i < n; ++i) {
      const Sha256Digest e = EvpSha256(by_evp);
      std::copy(e.begin(), e.begin() + 16, by_evp.begin());
      const Sha256Digest d = Sha256(by_sha256);
      std::copy(d.begin(), d.begin() + 16, by_sha256.begin());
    }
    Key128 walked = start;
    Sha256ChainWalk(walked, n);
    EXPECT_EQ(ToHex(walked), ToHex(by_evp));
    EXPECT_EQ(ToHex(walked), ToHex(by_sha256));
    // Two walks that add up to n steps land on the same state.
    Key128 in_two = start;
    Sha256ChainWalk(in_two, n / 3);
    Sha256ChainWalk(in_two, n - n / 3);
    EXPECT_EQ(in_two, walked);
  }
}

TEST_P(Sha256ChainKeyTest, IsTheSecondHalfOfTheDigest) {
  DeterministicRng rng(128);
  for (int i = 0; i < 100; ++i) {
    Key128 state;
    rng.Fill(state);
    const Sha256Digest d = EvpSha256(state);
    EXPECT_EQ(ToHex(Sha256ChainKey(state)),
              ToHex(BytesView(d.data() + 16, 16)));
  }
}

TEST(Sha256Prg, KnownAnswer) {
  // G0(x) = H(0 || x), G1(x) = H(1 || x): 17-byte one-block inputs.
  Key128 parent;
  for (size_t i = 0; i < parent.size(); ++i) {
    parent[i] = static_cast<uint8_t>(0x60 + i);
  }
  Key128 l, r;
  MakePrg(PrgKind::kSha256)->Expand(parent, l, r);
  EXPECT_EQ(ToHex(l), "46f6ffadd3d06a09ff3c5860d2755c8b");
  EXPECT_EQ(ToHex(r), "729a43e43dd1eeea049780d268244191");
}

TEST(Hkdf, ProducesRequestedLengthAndIsDeterministic) {
  Bytes ikm = ToBytes("input key material");
  Bytes salt = ToBytes("salt");
  Bytes info = ToBytes("info");
  Bytes a = HkdfSha256(ikm, salt, info, 42);
  Bytes b = HkdfSha256(ikm, salt, info, 42);
  EXPECT_EQ(a.size(), 42u);
  EXPECT_EQ(a, b);
  Bytes c = HkdfSha256(ikm, salt, ToBytes("other"), 42);
  EXPECT_NE(a, c);
}

class PrgKindTest : public ::testing::TestWithParam<PrgKind> {};

TEST_P(PrgKindTest, DeterministicAndChildrenDiffer) {
  auto prg = MakePrg(GetParam());
  Key128 parent = RandomKey128();
  Key128 l1, r1, l2, r2;
  prg->Expand(parent, l1, r1);
  prg->Expand(parent, l2, r2);
  EXPECT_EQ(l1, l2);
  EXPECT_EQ(r1, r2);
  EXPECT_NE(l1, r1);
  EXPECT_NE(l1, parent);
}

TEST_P(PrgKindTest, ExpandOneMatchesExpand) {
  auto prg = MakePrg(GetParam());
  Key128 parent = RandomKey128();
  Key128 l, r;
  prg->Expand(parent, l, r);
  EXPECT_EQ(prg->ExpandOne(parent, false), l);
  EXPECT_EQ(prg->ExpandOne(parent, true), r);
}

TEST_P(PrgKindTest, DifferentParentsDiverge) {
  auto prg = MakePrg(GetParam());
  Key128 p1 = RandomKey128();
  Key128 p2 = p1;
  p2[15] ^= 1;
  Key128 l1, r1, l2, r2;
  prg->Expand(p1, l1, r1);
  prg->Expand(p2, l2, r2);
  EXPECT_NE(l1, l2);
  EXPECT_NE(r1, r2);
}

INSTANTIATE_TEST_SUITE_P(AllPrgs, PrgKindTest,
                         ::testing::Values(PrgKind::kAesNi, PrgKind::kAesSoft,
                                           PrgKind::kSha256),
                         [](const auto& info) {
                           return std::string(PrgKindName(info.param)) == "AES"
                                      ? "AesSoft"
                                  : PrgKindName(info.param) == "AES-NI"
                                      ? "AesNi"
                                      : "Sha256";
                         });

TEST(DeterministicRng, Reproducible) {
  DeterministicRng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.NextU64(), b.NextU64());
}

TEST(DeterministicRng, BoundsRespected) {
  DeterministicRng rng(7);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.NextBelow(17), 17u);
    double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(DeterministicRng, GaussianMomentsRoughlyStandard) {
  DeterministicRng rng(123);
  double sum = 0, sumsq = 0;
  constexpr int kN = 20000;
  for (int i = 0; i < kN; ++i) {
    double g = rng.NextGaussian();
    sum += g;
    sumsq += g * g;
  }
  double mean = sum / kN;
  double var = sumsq / kN - mean * mean;
  EXPECT_NEAR(mean, 0.0, 0.05);
  EXPECT_NEAR(var, 1.0, 0.1);
}

TEST(RandomBytes, ProducesDifferentKeys) {
  EXPECT_NE(RandomKey128(), RandomKey128());
}

}  // namespace
}  // namespace tc::crypto
