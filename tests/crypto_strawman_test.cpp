// Strawman cipher tests: Paillier and EC-ElGamal correctness and
// homomorphic addition. Small key sizes where possible to keep tests fast;
// the benchmarks use the paper's full 3072-bit / P-256 parameters. The
// schemes live in the bench-only strawman library (bench/strawman/).
#include <gtest/gtest.h>

#include "strawman/ec_elgamal.hpp"
#include "strawman/paillier.hpp"

namespace tc::strawman {
namespace {

class PaillierTest : public ::testing::Test {
 protected:
  // 512-bit keys: fast to generate, same code paths as 3072.
  static void SetUpTestSuite() { paillier_ = Paillier::Generate(512).release(); }
  static void TearDownTestSuite() { delete paillier_; }
  static Paillier* paillier_;
};
Paillier* PaillierTest::paillier_ = nullptr;

TEST_F(PaillierTest, RoundTrip) {
  for (uint64_t m : {uint64_t{0}, uint64_t{1}, uint64_t{123456789},
                     uint64_t{1} << 40}) {
    auto c = paillier_->Encrypt(m);
    EXPECT_EQ(paillier_->Decrypt(c).value(), m);
  }
}

TEST_F(PaillierTest, EncryptionIsRandomized) {
  EXPECT_NE(paillier_->Encrypt(5), paillier_->Encrypt(5));
}

TEST_F(PaillierTest, HomomorphicAddition) {
  auto c = paillier_->Add(paillier_->Encrypt(1000), paillier_->Encrypt(234));
  EXPECT_EQ(paillier_->Decrypt(c).value(), 1234u);
}

TEST_F(PaillierTest, LongAdditionChain) {
  auto acc = paillier_->Encrypt(0);
  uint64_t expected = 0;
  for (uint64_t i = 1; i <= 50; ++i) {
    acc = paillier_->Add(acc, paillier_->Encrypt(i));
    expected += i;
  }
  EXPECT_EQ(paillier_->Decrypt(acc).value(), expected);
}

TEST_F(PaillierTest, CiphertextSizeMatchesModulus) {
  EXPECT_EQ(paillier_->ciphertext_size(), 512u / 4);
  EXPECT_EQ(paillier_->Encrypt(1).size(), paillier_->ciphertext_size());
}

class EcElGamalTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() { eg_ = EcElGamal::Generate().release(); }
  static void TearDownTestSuite() { delete eg_; }
  static EcElGamal* eg_;

  // Small BSGS table keeps tests fast; covers plaintexts < 2^20.
  static constexpr uint32_t kTableBits = 10;
};
EcElGamal* EcElGamalTest::eg_ = nullptr;

TEST_F(EcElGamalTest, RoundTrip) {
  for (uint64_t m : {uint64_t{0}, uint64_t{1}, uint64_t{999},
                     uint64_t{1} << 19}) {
    auto c = eg_->Encrypt(m);
    EXPECT_EQ(eg_->Decrypt(c, kTableBits).value(), m) << m;
  }
}

TEST_F(EcElGamalTest, EncryptionIsRandomized) {
  EXPECT_NE(eg_->Encrypt(7), eg_->Encrypt(7));
}

TEST_F(EcElGamalTest, HomomorphicAddition) {
  auto c = eg_->Add(eg_->Encrypt(300), eg_->Encrypt(45));
  EXPECT_EQ(eg_->Decrypt(c, kTableBits).value(), 345u);
}

TEST_F(EcElGamalTest, LongAdditionChain) {
  auto acc = eg_->Encrypt(0);
  uint64_t expected = 0;
  for (uint64_t i = 1; i <= 40; ++i) {
    acc = eg_->Add(acc, eg_->Encrypt(i));
    expected += i;
  }
  EXPECT_EQ(eg_->Decrypt(acc, kTableBits).value(), expected);
}

TEST_F(EcElGamalTest, CiphertextSizeIsTwoCompressedPoints) {
  EXPECT_EQ(eg_->Encrypt(1).size(), 66u);
}

TEST_F(EcElGamalTest, DlogRangeExceededIsError) {
  auto c = eg_->Encrypt(uint64_t{1} << 30);  // above 2^20 range
  EXPECT_FALSE(eg_->Decrypt(c, kTableBits).ok());
}

TEST_F(EcElGamalTest, MalformedCiphertextRejected) {
  EXPECT_FALSE(eg_->Decrypt(Bytes(10, 0), kTableBits).ok());
}

}  // namespace
}  // namespace tc::strawman
