// SHA-256, HMAC-SHA256, HKDF and AES-GCM known answers, SHA-256 and HMAC
// against OpenSSL at every block boundary, HKDF's length bound, AES-GCM
// payload encryption
// (byte-for-byte agreement with OpenSSL's EVP path, tamper detection, the
// per-thread nonce reserve, its thread and fork safety)
// and sealed-box tests, on both kernel arms (tests/kernel_arms.hpp); and the
// X25519 kernel against RFC 7748's vectors and OpenSSL's EVP X25519.
#include <gtest/gtest.h>
#include <openssl/evp.h>
#include <openssl/hmac.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <iterator>
#include <optional>
#include <set>
#include <thread>
#include <vector>

#include "crypto/aes_gcm.hpp"
#include "crypto/sealed_box.hpp"
#include "crypto/sha256.hpp"
#include "crypto/x25519.hpp"
#include "tests/kernel_arms.hpp"
#include "tests/key_testing.hpp"

namespace tc::crypto {
namespace {

std::string HexOf(BytesView b) { return ToHex(b); }

Bytes Repeat(uint8_t byte, size_t n) { return Bytes(n, byte); }

// Every SHA-256, AES-GCM, payload-key and sealed-box test runs on both
// kernel arms: on the kernels this CPU has (SHA-NI, AES-NI and PCLMULQDQ
// where it has them) and on the portable compression and the portable
// AES-GCM (bitsliced AES, constant-time GHASH), with the CPU feature table
// masked.
class Sha256Test : public test::KernelArmTest {};
class AesGcm : public test::KernelArmTest {};
class ChunkPayloadKeyTest : public test::KernelArmTest {};
class SealedBox : public test::KernelArmTest {};
TC_INSTANTIATE_KERNEL_ARMS(Sha256Test);
TC_INSTANTIATE_KERNEL_ARMS(AesGcm);
TC_INSTANTIATE_KERNEL_ARMS(ChunkPayloadKeyTest);
TC_INSTANTIATE_KERNEL_ARMS(SealedBox);

TEST_P(Sha256Test, Fips180KnownAnswers) {
  EXPECT_EQ(HexOf(Sha256({})),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
  EXPECT_EQ(HexOf(Sha256(ToBytes("abc"))),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
  // FIPS 180-2's multi-block vectors: 448 bits (the padding spills into a
  // second block), 896 bits, and one million 'a'.
  EXPECT_EQ(
      HexOf(Sha256(ToBytes(
          "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"))),
      "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
  EXPECT_EQ(
      HexOf(Sha256(ToBytes("abcdefghbcdefghicdefghijdefghijkefghijklfghijklm"
                           "ghijklmnhijklmnoijklmnopjklmnopqklmnopqrlmnopqrs"
                           "mnopqrstnopqrstu"))),
      "cf5b16a778af8380036ce59e7b0492370b249b11e8f07a51afac45037afee9d1");
  EXPECT_EQ(HexOf(Sha256(Repeat('a', 1000000))),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

// Every total length from 0 to 300 of a seeded message, split every way
// between the two inputs, against OpenSSL's one-shot digest. Lengths 0-55
// fit one padded block; from 56 the length field no longer fits, and at 64
// the terminator starts the second block. Past 64 a split can fall
// anywhere in a block, so both inputs feed the buffered block.
TEST_P(Sha256Test, ConcatMatchesEvpAtEveryLengthAndSplit) {
  Bytes msg(300);
  DeterministicRng(0x5a256).Fill(msg);
  for (size_t n = 0; n <= msg.size(); ++n) {
    Sha256Digest expected;
    unsigned int len = 0;
    ASSERT_EQ(EVP_Digest(msg.data(), n, expected.data(), &len, EVP_sha256(),
                         nullptr),
              1);
    for (size_t split = 0; split <= n; ++split) {
      BytesView a(msg.data(), split);
      BytesView b(msg.data() + split, n - split);
      ASSERT_EQ(Sha256Concat(a, b), expected)
          << "length " << n << " split " << split;
    }
    ASSERT_EQ(HexOf(Sha256(BytesView(msg.data(), n))), HexOf(expected))
        << "length " << n;
  }
}

// RFC 4231 test cases 1-7. Case 5's tag is truncated to 128 bits; cases 6
// and 7 hash their 131-byte key first.
TEST_P(Sha256Test, HmacRfc4231KnownAnswers) {
  struct Case {
    Bytes key;
    Bytes data;
    std::string tag;
  };
  const Bytes key4 =
      FromHex("0102030405060708090a0b0c0d0e0f10111213141516171819").value();
  const Case cases[] = {
      {Repeat(0x0b, 20), ToBytes("Hi There"),
       "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7"},
      {ToBytes("Jefe"), ToBytes("what do ya want for nothing?"),
       "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843"},
      {Repeat(0xaa, 20), Repeat(0xdd, 50),
       "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe"},
      {key4, Repeat(0xcd, 50),
       "82558a389a443c0ea4cc819899f2083a85f0faa3e578f8077a2e3ff46729665b"},
      {Repeat(0x0c, 20), ToBytes("Test With Truncation"),
       "a3b6167473100ee06e0c796c2955552b"},
      {Repeat(0xaa, 131),
       ToBytes("Test Using Larger Than Block-Size Key - Hash Key First"),
       "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54"},
      {Repeat(0xaa, 131),
       ToBytes("This is a test using a larger than block-size key and a "
               "larger than block-size data. The key needs to be hashed "
               "before being used by the HMAC algorithm."),
       "9b09ffa71b942fcb27635fbcd5b0e944bfdc63644f0713938a7f51535c3a35e2"},
  };
  for (size_t i = 0; i < std::size(cases); ++i) {
    const Sha256Digest tag = HmacSha256(cases[i].key, cases[i].data);
    EXPECT_EQ(HexOf(BytesView(tag.data(), cases[i].tag.size() / 2)),
              cases[i].tag)
        << "case " << i + 1;
  }
}

// RFC 5869 test cases A.1-A.3 (A.3: no salt and no info).
TEST_P(Sha256Test, HkdfRfc5869KnownAnswers) {
  auto range = [](int from, int to) {
    Bytes b;
    for (int i = from; i < to; ++i) b.push_back(static_cast<uint8_t>(i));
    return b;
  };
  EXPECT_EQ(HexOf(HkdfSha256(Repeat(0x0b, 22), range(0x00, 0x0d),
                             range(0xf0, 0xfa), 42)),
            "3cb25f25faacd57a90434f64d0362f2a2d2d0a90cf1a5a4c5db02d56ecc4c5bf"
            "34007208d5b887185865");
  EXPECT_EQ(HexOf(HkdfSha256(range(0x00, 0x50), range(0x60, 0xb0),
                             range(0xb0, 0x100), 82)),
            "b11e398dc80327a1c8e7f78c596a49344f012eda2d4efad8a050cc4c19afa97c"
            "59045a99cac7827271cb41c65e590e09da3275600c2f09b8367793a9aca3db71"
            "cc30c58179ec3e87c14c01d5c1f3434f1d87");
  EXPECT_EQ(HexOf(HkdfSha256(Repeat(0x0b, 22), {}, {}, 42)),
            "8da4e775a563c18f715f802a063c5a31b8a11f5c5ee1879ec3454e5f3c738d2d"
            "9d201395faa4b61a96c8");
}

// HMAC under seeded keys of every length 0-200 (past 64 the key is hashed
// first) over seeded messages of every length 0-300, against OpenSSL's
// HMAC().
TEST_P(Sha256Test, HmacMatchesOpenSslAtEveryKeyAndMessageLength) {
  DeterministicRng rng(0x4a3c);
  Bytes msg(300), key(200);
  rng.Fill(msg);
  rng.Fill(key);
  for (size_t k = 0; k <= key.size(); ++k) {
    for (size_t n = 0; n <= msg.size(); ++n) {
      Sha256Digest expected;
      unsigned int len = 0;
      ASSERT_NE(HMAC(EVP_sha256(), key.data(), static_cast<int>(k), msg.data(),
                     n, expected.data(), &len),
                nullptr);
      ASSERT_EQ(
          HmacSha256(BytesView(key.data(), k), BytesView(msg.data(), n)),
          expected)
          << "key length " << k << " message length " << n;
    }
  }
}

// The one-byte block counter numbers 255 blocks: 255 * 32 bytes is the
// longest output, and one byte more aborts in every build type.
TEST(HkdfTest, OutputLengthIsBoundedInEveryBuild) {
  const Bytes ikm = Repeat(0x0b, 22);
  const Bytes longest = HkdfSha256(ikm, {}, ToBytes("info"), 255 * 32);
  ASSERT_EQ(longest.size(), 255u * 32);
  // A prefix of the output is the shorter output.
  EXPECT_EQ(HkdfSha256(ikm, {}, ToBytes("info"), 64),
            Bytes(longest.begin(), longest.begin() + 64));
  GTEST_FLAG_SET(death_test_style, "threadsafe");
  EXPECT_DEATH(HkdfSha256(ikm, {}, ToBytes("info"), 255 * 32 + 1),
               "HKDF output of 8161 bytes");
}

// Reference AES-128-GCM through OpenSSL's legacy EVP_aes_128_gcm() path,
// independent of the algorithm handle GcmSeal/GcmOpen fetch. Same layout:
// nonce || ciphertext || tag.
Bytes LegacyGcmSeal(const Key128& key, BytesView nonce, BytesView pt,
                    BytesView aad) {
  EVP_CIPHER_CTX* ctx = EVP_CIPHER_CTX_new();
  Bytes out(nonce.begin(), nonce.end());
  out.resize(kGcmNonceSize + pt.size() + kGcmTagSize);
  uint8_t* ct = out.data() + kGcmNonceSize;
  int len = 0, final_len = 0;
  bool ok =
      EVP_EncryptInit_ex(ctx, EVP_aes_128_gcm(), nullptr,
                         key.secret_bytes().data(), nonce.data()) == 1 &&
      (aad.empty() || EVP_EncryptUpdate(ctx, nullptr, &len, aad.data(),
                                        static_cast<int>(aad.size())) == 1) &&
      (pt.empty() || EVP_EncryptUpdate(ctx, ct, &len, pt.data(),
                                       static_cast<int>(pt.size())) == 1) &&
      EVP_EncryptFinal_ex(ctx, ct + (pt.empty() ? 0 : len), &final_len) == 1 &&
      EVP_CIPHER_CTX_ctrl(ctx, EVP_CTRL_GCM_GET_TAG, kGcmTagSize,
                          ct + pt.size()) == 1;
  EVP_CIPHER_CTX_free(ctx);
  EXPECT_TRUE(ok);
  return out;
}

std::optional<Bytes> LegacyGcmOpen(const Key128& key, BytesView sealed,
                                   BytesView aad) {
  const size_t ct_len = sealed.size() - kGcmNonceSize - kGcmTagSize;
  const uint8_t* ct = sealed.data() + kGcmNonceSize;
  Bytes pt(ct_len);
  Bytes tag(ct + ct_len, ct + ct_len + kGcmTagSize);
  EVP_CIPHER_CTX* ctx = EVP_CIPHER_CTX_new();
  int len = 0, final_len = 0;
  bool ok =
      EVP_DecryptInit_ex(ctx, EVP_aes_128_gcm(), nullptr,
                         key.secret_bytes().data(), sealed.data()) == 1 &&
      (aad.empty() || EVP_DecryptUpdate(ctx, nullptr, &len, aad.data(),
                                        static_cast<int>(aad.size())) == 1) &&
      (ct_len == 0 || EVP_DecryptUpdate(ctx, pt.data(), &len, ct,
                                        static_cast<int>(ct_len)) == 1) &&
      EVP_CIPHER_CTX_ctrl(ctx, EVP_CTRL_GCM_SET_TAG, kGcmTagSize,
                          tag.data()) == 1 &&
      EVP_DecryptFinal_ex(ctx, pt.data() + (ct_len == 0 ? 0 : len),
                          &final_len) == 1;
  EVP_CIPHER_CTX_free(ctx);
  if (!ok) return std::nullopt;
  return pt;
}

// Every AAD length from 0 to 48, and 64 and 100, against plaintext lengths
// 0-129, 255-257, 1000 and 4109: across the eight-block counter batch, the
// four-block GHASH aggregation, a partial last block, a partial AAD block,
// and AAD and plaintext that both end mid-block.
TEST_P(AesGcm, AgreesWithLegacyEvpPathBothWays) {
  const Bytes fixed_nonce = FromHex("0102030405060708090a0b0c").value();
  std::vector<size_t> aad_sizes;
  for (size_t n = 0; n <= 48; ++n) aad_sizes.push_back(n);
  aad_sizes.push_back(64);
  aad_sizes.push_back(100);
  std::vector<size_t> pt_sizes;
  for (size_t n = 0; n <= 129; ++n) pt_sizes.push_back(n);
  for (size_t n : {255, 256, 257, 1000, 4109}) pt_sizes.push_back(n);
  DeterministicRng rng(3);
  Bytes pt_pool(4109);
  Bytes aad_pool(100);
  rng.Fill(pt_pool);
  rng.Fill(aad_pool);
  // Each input is sealed right after an open of the previous one, under a
  // fresh key, and every other one right after a failed open.
  size_t round = 0;
  for (size_t aad_len : aad_sizes) {
    const BytesView aad(aad_pool.data(), aad_len);
    for (size_t pt_len : pt_sizes) {
      const BytesView pt(pt_pool.data(), pt_len);
      const Key128 key = RandomKey128();
      if (round++ % 2 == 1) {
        ASSERT_FALSE(
            GcmOpen(key, GcmSeal(RandomKey128(), pt, aad), aad).ok());
      }
      // Same key and nonce: byte-identical ciphertext and tag.
      Bytes ours = GcmSeal(key, pt, aad);
      Bytes ref = LegacyGcmSeal(key, BytesView(ours.data(), kGcmNonceSize),
                                pt, aad);
      ASSERT_EQ(ours, ref) << "aad " << aad_len << " plaintext " << pt_len;

      // Each side opens the other's blob.
      auto opened_by_ref = LegacyGcmOpen(key, ours, aad);
      ASSERT_TRUE(opened_by_ref.has_value())
          << "aad " << aad_len << " plaintext " << pt_len;
      ASSERT_EQ(*opened_by_ref, Bytes(pt.begin(), pt.end()));
      auto opened_by_us =
          GcmOpen(key, LegacyGcmSeal(key, fixed_nonce, pt, aad), aad);
      ASSERT_TRUE(opened_by_us.ok()) << opened_by_us.status().ToString();
      ASSERT_EQ(*opened_by_us, Bytes(pt.begin(), pt.end()));
    }
  }
}

// GcmSealLanes on one to four lanes at a time, of unequal lengths drawn
// from the grid above, some sealed in place and some from a separate
// buffer: each lane's bytes are the EVP reference's for the nonce it drew.
TEST_P(AesGcm, LanesAgreeWithLegacyEvpPath) {
  std::vector<size_t> aad_sizes;
  for (size_t n = 0; n <= 48; ++n) aad_sizes.push_back(n);
  aad_sizes.push_back(64);
  aad_sizes.push_back(100);
  std::vector<size_t> pt_sizes;
  for (size_t n = 0; n <= 129; ++n) pt_sizes.push_back(n);
  for (size_t n : {255, 256, 257, 1000, 4109}) pt_sizes.push_back(n);
  DeterministicRng rng(4);
  Bytes pt_pool(4109);
  Bytes aad_pool(100);
  rng.Fill(pt_pool);
  rng.Fill(aad_pool);
  std::set<Bytes> nonces;
  for (size_t round = 0; round < 400; ++round) {
    const size_t n = 1 + round % kCryptoLanes;
    std::vector<Key128> keys(n);
    std::vector<BytesView> pts(n), aads(n);
    std::vector<Bytes> outs(n);
    std::vector<GcmSealLane> lanes(n);
    for (size_t l = 0; l < n; ++l) {
      keys[l] = RandomKey128();
      // A long lane now and then, so the others end passes before it.
      const size_t pt_len = rng.NextBelow(8) == 0
                                ? pt_sizes[pt_sizes.size() - 1 -
                                           rng.NextBelow(5)]
                                : pt_sizes[rng.NextBelow(130)];
      pts[l] = BytesView(pt_pool.data(), pt_len);
      aads[l] = BytesView(aad_pool.data(),
                          aad_sizes[rng.NextBelow(aad_sizes.size())]);
      outs[l].resize(kGcmNonceSize + pt_len + kGcmTagSize);
      BytesView plaintext = pts[l];
      if (rng.NextBelow(2) == 0 && pt_len > 0) {
        std::copy(pts[l].begin(), pts[l].end(),
                  outs[l].begin() + kGcmNonceSize);
        plaintext = BytesView(outs[l].data() + kGcmNonceSize, pt_len);
      }
      lanes[l] = {&keys[l], plaintext, aads[l], outs[l].data()};
    }
    GcmSealLanes(lanes);
    for (size_t l = 0; l < n; ++l) {
      const BytesView nonce(outs[l].data(), kGcmNonceSize);
      nonces.emplace(nonce.begin(), nonce.end());
      ASSERT_EQ(outs[l], LegacyGcmSeal(keys[l], nonce, pts[l], aads[l]))
          << "round " << round << ", lane " << l << " of " << n << ": aad "
          << aads[l].size() << " plaintext " << pts[l].size();
    }
  }
  EXPECT_EQ(nonces.size(), 1000u) << "every lane draws its own nonce";
}

struct GcmSpecCase {
  const char* key;
  const char* iv;
  const char* plaintext;
  const char* aad;
  const char* ciphertext;
  const char* tag;
};

// McGrew and Viega, "The Galois/Counter Mode of Operation (GCM)", test
// cases 1-4: AES-128 with a 96-bit IV.
constexpr GcmSpecCase kGcmSpecCases[] = {
    {"00000000000000000000000000000000", "000000000000000000000000", "", "",
     "", "58e2fccefa7e3061367f1d57a4e7455a"},
    {"00000000000000000000000000000000", "000000000000000000000000",
     "00000000000000000000000000000000", "",
     "0388dace60b6a392f328c2b971b2fe78", "ab6e47d42cec13bdf53a67b21257bddf"},
    {"feffe9928665731c6d6a8f9467308308", "cafebabefacedbaddecaf888",
     "d9313225f88406e5a55909c5aff5269a86a7a9531534f7da2e4c303d8a318a72"
     "1c3c0c95956809532fcf0e2449a6b525b16aedf5aa0de657ba637b391aafd255",
     "",
     "42831ec2217774244b7221b784d0d49ce3aa212f2c02a4e035c17e2329aca12e"
     "21d514b25466931c7d8f6a5aac84aa051ba30b396a0aac973d58e091473f5985",
     "4d5c2af327cd64a62cf35abd2ba6fab4"},
    {"feffe9928665731c6d6a8f9467308308", "cafebabefacedbaddecaf888",
     "d9313225f88406e5a55909c5aff5269a86a7a9531534f7da2e4c303d8a318a72"
     "1c3c0c95956809532fcf0e2449a6b525b16aedf5aa0de657ba637b39",
     "feedfacedeadbeeffeedfacedeadbeefabaddad2",
     "42831ec2217774244b7221b784d0d49ce3aa212f2c02a4e035c17e2329aca12e"
     "21d514b25466931c7d8f6a5aac84aa051ba30b396a0aac973d58e091",
     "5bc94fbc3221a5db94fae95ae7121a47"},
};

TEST_P(AesGcm, OpensGcmSpecTestCases1To4) {
  for (size_t i = 0; i < std::size(kGcmSpecCases); ++i) {
    const GcmSpecCase& c = kGcmSpecCases[i];
    Key128 key;
    const Bytes key_bytes = FromHex(c.key).value();
    std::copy(key_bytes.begin(), key_bytes.end(), key.secret_bytes().begin());
    const Bytes iv = FromHex(c.iv).value();
    const Bytes pt = FromHex(c.plaintext).value();
    const Bytes aad = FromHex(c.aad).value();
    Bytes sealed = iv;
    Append(sealed, FromHex(c.ciphertext).value());
    Append(sealed, FromHex(c.tag).value());
    // The typed vector is first checked against the EVP reference.
    ASSERT_EQ(LegacyGcmSeal(key, iv, pt, aad), sealed) << "test case " << i + 1;
    auto open = GcmOpen(key, sealed, aad);
    ASSERT_TRUE(open.ok()) << "test case " << i + 1 << ": "
                           << open.status().ToString();
    EXPECT_EQ(*open, pt) << "test case " << i + 1;
  }
}

// One flipped bit in any tag byte, the first or last ciphertext byte, or
// the AAD fails the open with DataLoss and returns no plaintext.
TEST_P(AesGcm, EveryTamperedByteIsDataLoss) {
  const Key128 key = RandomKey128();
  Bytes aad = ToBytes("tc-chunk-aad");
  Bytes pt(40);
  DeterministicRng(5).Fill(pt);
  const Bytes sealed = GcmSeal(key, pt, aad);
  const size_t ct_end = sealed.size() - kGcmTagSize;
  std::vector<size_t> positions = {kGcmNonceSize, ct_end - 1};
  for (size_t i = ct_end; i < sealed.size(); ++i) positions.push_back(i);
  ASSERT_EQ(positions.size(), 18u);
  for (size_t pos : positions) {
    Bytes tampered = sealed;
    tampered[pos] ^= 0x01;
    auto open = GcmOpen(key, tampered, aad);
    ASSERT_FALSE(open.ok()) << "byte " << pos;
    EXPECT_EQ(open.status().code(), StatusCode::kDataLoss) << "byte " << pos;
  }
  aad[3] ^= 0x80;
  auto open = GcmOpen(key, sealed, aad);
  ASSERT_FALSE(open.ok());
  EXPECT_EQ(open.status().code(), StatusCode::kDataLoss);
}

TEST_P(AesGcm, OneThreadsNoncesAreDistinctAcrossRefills) {
  // 10,000 seals use about 29 refills of the 341-nonce reserve.
  const Key128 key = RandomKey128();
  std::set<Bytes> nonces;
  for (int i = 0; i < 10'000; ++i) {
    Bytes sealed = GcmSeal(key, {});
    nonces.emplace(sealed.begin(), sealed.begin() + kGcmNonceSize);
  }
  EXPECT_EQ(nonces.size(), 10'000u);
}

TEST_P(AesGcm, ConcurrentThreadsDrawDistinctNonces) {
  // Four sealing threads, each through about three refills of its own
  // reserve, all reading the shared fork generation.
  constexpr int kThreads = 4;
  constexpr int kSeals = 1'000;
  const Key128 key = RandomKey128();
  std::vector<std::vector<Bytes>> drawn(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&key, &out = drawn[t]] {
      for (int i = 0; i < kSeals; ++i) {
        Bytes sealed = GcmSeal(key, {});
        out.emplace_back(sealed.begin(), sealed.begin() + kGcmNonceSize);
      }
    });
  }
  for (auto& th : threads) th.join();
  std::set<Bytes> nonces;
  for (const auto& v : drawn) nonces.insert(v.begin(), v.end());
  EXPECT_EQ(nonces.size(), static_cast<size_t>(kThreads * kSeals));
}

TEST_P(AesGcm, ForkedChildDoesNotReuseParentNonces) {
  const Key128 key = RandomKey128();
  (void)GcmSeal(key, {});  // the reserve is now filled and partly used
  int fds[2];
  ASSERT_EQ(pipe(fds), 0);
  pid_t child = fork();
  ASSERT_GE(child, 0);
  if (child == 0) {
    Bytes sealed = GcmSeal(key, {});
    ssize_t n = write(fds[1], sealed.data(), kGcmNonceSize);
    _exit(n == static_cast<ssize_t>(kGcmNonceSize) ? 0 : 1);
  }
  close(fds[1]);
  Bytes child_nonce(kGcmNonceSize);
  ASSERT_EQ(read(fds[0], child_nonce.data(), child_nonce.size()),
            static_cast<ssize_t>(kGcmNonceSize));
  close(fds[0]);
  int wstatus = 0;
  ASSERT_EQ(waitpid(child, &wstatus, 0), child);
  ASSERT_TRUE(WIFEXITED(wstatus) && WEXITSTATUS(wstatus) == 0);
  // More than the rest of the reserve the child inherited.
  for (int i = 0; i < 400; ++i) {
    Bytes sealed = GcmSeal(key, {});
    ASSERT_NE(Bytes(sealed.begin(), sealed.begin() + kGcmNonceSize),
              child_nonce)
        << "parent nonce " << i;
  }
}

TEST_P(AesGcm, RoundTrip) {
  Key128 key = RandomKey128();
  Bytes pt = ToBytes("the quick brown fox");
  Bytes sealed = GcmSeal(key, pt);
  EXPECT_EQ(sealed.size(), kGcmNonceSize + pt.size() + kGcmTagSize);
  auto open = GcmOpen(key, sealed);
  ASSERT_TRUE(open.ok());
  EXPECT_EQ(*open, pt);
}

TEST_P(AesGcm, EmptyPlaintext) {
  Key128 key = RandomKey128();
  Bytes sealed = GcmSeal(key, {});
  auto open = GcmOpen(key, sealed);
  ASSERT_TRUE(open.ok());
  EXPECT_TRUE(open->empty());
}

TEST_P(AesGcm, RandomizedEncryption) {
  Key128 key = RandomKey128();
  Bytes pt = ToBytes("same message");
  EXPECT_NE(GcmSeal(key, pt), GcmSeal(key, pt));  // fresh nonce per call
}

TEST_P(AesGcm, TamperDetected) {
  Key128 key = RandomKey128();
  Bytes sealed = GcmSeal(key, ToBytes("payload"));
  sealed[kGcmNonceSize] ^= 1;  // flip a ciphertext bit
  EXPECT_FALSE(GcmOpen(key, sealed).ok());
}

TEST_P(AesGcm, WrongKeyFails) {
  Bytes sealed = GcmSeal(RandomKey128(), ToBytes("payload"));
  EXPECT_FALSE(GcmOpen(RandomKey128(), sealed).ok());
}

TEST_P(AesGcm, AadIsAuthenticated) {
  Key128 key = RandomKey128();
  Bytes aad = ToBytes("chunk-42");
  Bytes sealed = GcmSeal(key, ToBytes("payload"), aad);
  EXPECT_TRUE(GcmOpen(key, sealed, aad).ok());
  EXPECT_FALSE(GcmOpen(key, sealed, ToBytes("chunk-43")).ok());
}

TEST_P(AesGcm, TruncatedBlobRejected) {
  Key128 key = RandomKey128();
  Bytes sealed = GcmSeal(key, ToBytes("x"));
  sealed.resize(kGcmNonceSize + kGcmTagSize - 1);
  EXPECT_FALSE(GcmOpen(key, sealed).ok());
}

TEST_P(ChunkPayloadKeyTest, KnownAnswer) {
  // The key of every stored chunk payload: its bytes must never change.
  Key128 a, b;
  for (size_t i = 0; i < sizeof(a); ++i) {
    a.secret_bytes()[i] = static_cast<uint8_t>(0x30 + i);
    b.secret_bytes()[i] = static_cast<uint8_t>(0x40 + i);
  }
  EXPECT_EQ(ToHex(ChunkPayloadKey(a, b)), "a2c02486feb59d5eaff5e2a43e2bc8ec");
}

TEST_P(ChunkPayloadKeyTest, LanesMatchOneAtATime) {
  DeterministicRng rng(6);
  for (size_t n = 0; n <= kCryptoLanes; ++n) {
    std::vector<Key128> leaves(n + 1);
    for (auto& leaf : leaves) rng.Fill(leaf.secret_bytes());
    std::vector<Key128> keys(n);
    ChunkPayloadKeys(leaves, keys);
    for (size_t j = 0; j < n; ++j) {
      EXPECT_EQ(keys[j], ChunkPayloadKey(leaves[j], leaves[j + 1]))
          << n << " keys, key " << j;
    }
  }
}

TEST_P(ChunkPayloadKeyTest, DeterministicAndPositionDependent) {
  Key128 a = RandomKey128(), b = RandomKey128(), c = RandomKey128();
  EXPECT_EQ(ChunkPayloadKey(a, b), ChunkPayloadKey(a, b));
  EXPECT_NE(ChunkPayloadKey(a, b), ChunkPayloadKey(a, c));
  EXPECT_NE(ChunkPayloadKey(a, b), ChunkPayloadKey(b, a));
}

TEST_P(SealedBox, RoundTrip) {
  BoxKeyPair alice = GenerateBoxKeyPair();
  Bytes msg = ToBytes("access token bundle");
  auto sealed = SealToPublicKey(alice.public_key, msg);
  ASSERT_TRUE(sealed.ok());
  auto open = OpenSealed(alice, *sealed);
  ASSERT_TRUE(open.ok());
  EXPECT_EQ(*open, msg);
}

TEST_P(SealedBox, OnlyRecipientCanOpen) {
  BoxKeyPair alice = GenerateBoxKeyPair();
  BoxKeyPair eve = GenerateBoxKeyPair();
  auto sealed = SealToPublicKey(alice.public_key, ToBytes("secret"));
  ASSERT_TRUE(sealed.ok());
  EXPECT_FALSE(OpenSealed(eve, *sealed).ok());
}

TEST_P(SealedBox, FreshEphemeralPerSeal) {
  BoxKeyPair alice = GenerateBoxKeyPair();
  auto a = SealToPublicKey(alice.public_key, ToBytes("m"));
  auto b = SealToPublicKey(alice.public_key, ToBytes("m"));
  EXPECT_NE(*a, *b);
}

TEST_P(SealedBox, TamperDetected) {
  BoxKeyPair alice = GenerateBoxKeyPair();
  auto sealed = SealToPublicKey(alice.public_key, ToBytes("secret"));
  ASSERT_TRUE(sealed.ok());
  (*sealed)[sealed->size() - 1] ^= 1;
  EXPECT_FALSE(OpenSealed(alice, *sealed).ok());
}

TEST_P(SealedBox, RejectsBadPublicKeySize) {
  EXPECT_FALSE(SealToPublicKey(Bytes(31, 0), ToBytes("m")).ok());
}

TEST_P(SealedBox, KeypairsAreUnique) {
  EXPECT_NE(GenerateBoxKeyPair().public_key,
            GenerateBoxKeyPair().public_key);
}

// A recipient keypair, and a box sealed to it, made by OpenSSL's EVP
// X25519. X25519 is deterministic, so any correct implementation derives
// the same public key and opens the same box: stored grants and identity
// key files stay valid.
constexpr char kPinnedSecret[] =
    "a8f3c1d27e4b9065f1e2d3c4b5a69788796a5b4c3d2e1f00112233445566778f";
constexpr char kPinnedPublic[] =
    "485af32f55b04b269b0af21487154362dd7da48ac39d4dc469059221db578a46";
constexpr char kPinnedBox[] =
    "da6d5b8070cbd4c1a992101ad66c3a98c6b1a3b118b26713fb93032c4f76da5e"
    "4c711365dc6abf6697b334e03227f3fe182d781ce69d8407edca53bb1cca6a7f"
    "bc521e8c2ed923a8efc9d574ec65d61e8225042e6a82f0080582bc8e0a8d9e73"
    "71519ce35d09695a";
constexpr char kPinnedPlaintext[] =
    "grant sealed by the OpenSSL EVP X25519 build";

TEST_P(SealedBox, OpensABoxSealedByOpenSslEvp) {
  const BoxKeyPair pinned{FromHex(kPinnedPublic).value(),
                          SecretBuffer(FromHex(kPinnedSecret).value())};
  auto open = OpenSealed(pinned, FromHex(kPinnedBox).value());
  ASSERT_TRUE(open.ok()) << open.status().ToString();
  EXPECT_EQ(ToString(*open), kPinnedPlaintext);
  EXPECT_EQ(ToHex(BoxPublicKey(pinned.secret_key).value()), kPinnedPublic);
}

// ------------------------------------------------------------------ X25519

using Key32 = std::array<uint8_t, kX25519KeySize>;

Key32 Key32FromHex(std::string_view hex) {
  const Bytes bytes = FromHex(hex).value();
  Key32 key{};
  EXPECT_EQ(bytes.size(), key.size()) << hex;
  std::copy_n(bytes.begin(), std::min(bytes.size(), key.size()), key.begin());
  return key;
}

std::string X25519Hex(const Key32& scalar, const Key32& u) {
  Key32 out{};
  X25519(out, scalar, u);
  return ToHex(out);
}

// OpenSSL's EVP X25519, the reference: nullopt when it refuses, which it
// does for an all-zero shared secret.
std::optional<Key32> EvpX25519(const Key32& scalar, const Key32& u) {
  EVP_PKEY* secret = EVP_PKEY_new_raw_private_key(EVP_PKEY_X25519, nullptr,
                                                  scalar.data(), scalar.size());
  EVP_PKEY* peer = EVP_PKEY_new_raw_public_key(EVP_PKEY_X25519, nullptr,
                                               u.data(), u.size());
  EVP_PKEY_CTX* ctx =
      secret != nullptr ? EVP_PKEY_CTX_new(secret, nullptr) : nullptr;
  Key32 shared{};
  size_t len = shared.size();
  const bool ok = ctx != nullptr && peer != nullptr &&
                  EVP_PKEY_derive_init(ctx) == 1 &&
                  EVP_PKEY_derive_set_peer(ctx, peer) == 1 &&
                  EVP_PKEY_derive(ctx, shared.data(), &len) == 1 &&
                  len == shared.size();
  EVP_PKEY_CTX_free(ctx);
  EVP_PKEY_free(peer);
  EVP_PKEY_free(secret);
  if (!ok) return std::nullopt;
  return shared;
}

// RFC 7748 §5.2: two single scalar multiplications, the second with the
// top bit of u set (it must be ignored).
TEST(X25519, Rfc7748Section52Vectors) {
  EXPECT_EQ(
      X25519Hex(Key32FromHex("a546e36bf0527c9d3b16154b82465edd62144c0ac1fc5a18"
                             "506a2244ba449ac4"),
                Key32FromHex("e6db6867583030db3594c1a424b15f7c726624ec26b3353b"
                             "10a903a6d0ab1c4c")),
      "c3da55379de9c6908e94ea4df28d084f32eccf03491c71f754b4075577a28552");
  EXPECT_EQ(
      X25519Hex(Key32FromHex("4b66e9d4d1b4673c5ad22691957d6af5c11b6421e0ea01d4"
                             "2ca4169e7918ba0d"),
                Key32FromHex("e5210f12786811d3f4b7959d0538ae2c31dbe7106fc03c3e"
                             "fc4cd549c715a493")),
      "95cbde9476e8907d7aade45cb4b873f88b595a68799fa152e6f8f7647aac7957");
}

// RFC 7748 §5.2's iteration: k = u = 9, then k, u = X25519(k, u), k.
TEST(X25519, Rfc7748IteratedVectors) {
  Key32 k{9}, u{9};
  auto step = [&] {
    Key32 next{};
    X25519(next, k, u);
    u = k;
    k = next;
  };
  step();
  EXPECT_EQ(ToHex(k),
            "422c8e7a6227d7bca1350b3e2bb7279f7897b87bb6854b783c60e80311ae3079");
  for (int i = 1; i < 1000; ++i) step();
  EXPECT_EQ(ToHex(k),
            "684cf59ba83309552800ef566f2f4d3c1c3887c49360e3875f2eb94d99532c51");
}

// RFC 7748 §6.1: Alice's and Bob's public keys and their shared secret.
TEST(X25519, Rfc7748Section61DiffieHellman) {
  const char* alice_secret =
      "77076d0a7318a57d3c16c17251b26645df4c2f87ebc0992ab177fba51db92c2a";
  const char* bob_secret =
      "5dab087e624a8a4b79e17f8b83800ee66f3bb1292618b6fd1c2f8b27ff88e0eb";
  const char* alice_public =
      "8520f0098930a754748b7ddcb43ef75a0dbf3a0d26381af4eba4a98eaa9b4e6a";
  const char* bob_public =
      "de9edb7d7b7dc1b4d35b61c2ece435373f8343c85b78674dadfc7e146f882b4f";
  const char* shared =
      "4a5d9d5ba4ce2de1728e3bf480350f25e07e21c947d19e3376f09b3c1e161742";
  EXPECT_EQ(ToHex(BoxPublicKey(SecretBuffer(FromHex(alice_secret).value()))
                      .value()),
            alice_public);
  EXPECT_EQ(ToHex(BoxPublicKey(SecretBuffer(FromHex(bob_secret).value()))
                      .value()),
            bob_public);
  EXPECT_EQ(X25519Hex(Key32FromHex(alice_secret), Key32FromHex(bob_public)),
            shared);
  EXPECT_EQ(X25519Hex(Key32FromHex(bob_secret), Key32FromHex(alice_public)),
            shared);
}

TEST(X25519, BoxPublicKeyNeeds32Bytes) {
  EXPECT_EQ(BoxPublicKey(SecretBuffer(31)).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(BoxPublicKey(SecretBuffer(33)).status().code(),
            StatusCode::kInvalidArgument);
}

// 1,000 seeded (scalar, u) pairs against OpenSSL. A quarter of the u have
// the top bit set, a quarter are non-canonical (p + 2 to p + 18, half of
// them with the top bit set too), and the rest have it clear.
TEST(X25519, MatchesEvpOnSeededPairs) {
  const Key32 p = Key32FromHex(
      "edffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff7f");
  DeterministicRng rng(0x25519);
  for (int i = 0; i < 1000; ++i) {
    Key32 scalar{}, u{};
    rng.Fill(scalar);
    rng.Fill(u);
    switch (i % 4) {
      case 0: u[31] |= 0x80; break;
      case 1:
        u = p;
        u[0] = static_cast<uint8_t>(u[0] + 2 + rng.NextBelow(17));
        if (i % 8 == 1) u[31] |= 0x80;
        break;
      default: u[31] &= 0x7f; break;
    }
    const auto expected = EvpX25519(scalar, u);
    ASSERT_TRUE(expected.has_value()) << "pair " << i;
    ASSERT_EQ(X25519Hex(scalar, u), ToHex(*expected))
        << "pair " << i << ": scalar " << ToHex(scalar) << ", u " << ToHex(u);
  }
}

// The points of order 1, 2, 4 and 8 (u = 0, 1, p - 1 and the two of order
// 8), and the non-canonical encodings p and p + 1 of u = 0 and 1, each also
// with the top bit set. Their product with any clamped scalar is the
// identity, whose u-coordinate encodes as zero.
std::vector<Key32> LowOrderKeys() {
  std::vector<Key32> keys;
  for (const char* hex : {
           "0000000000000000000000000000000000000000000000000000000000000000",
           "0100000000000000000000000000000000000000000000000000000000000000",
           "e0eb7a7c3b41b8ae1656e3faf19fc46ada098deb9c32b1fd866205165f49b800",
           "5f9c95bca3508c24b1d0b1559c83ef5b04445cc4581c8e86d8224eddd09f1157",
           "ecffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff7f",
           "edffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff7f",
           "eeffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff7f",
       }) {
    keys.push_back(Key32FromHex(hex));
    keys.push_back(keys.back());
    keys.back()[31] |= 0x80;
  }
  return keys;
}

TEST(X25519, LowOrderPointsGiveAllZero) {
  DeterministicRng rng(8);
  for (const Key32& u : LowOrderKeys()) {
    Key32 scalar{};
    rng.Fill(scalar);
    EXPECT_EQ(X25519Hex(scalar, u), ToHex(Key32{})) << ToHex(u);
    EXPECT_FALSE(EvpX25519(scalar, u).has_value()) << ToHex(u);
  }
}

TEST_P(SealedBox, LowOrderRecipientKeyIsInvalidArgument) {
  for (const Key32& u : LowOrderKeys()) {
    EXPECT_EQ(SealToPublicKey(u, ToBytes("m")).status().code(),
              StatusCode::kInvalidArgument)
        << ToHex(u);
  }
}

TEST_P(SealedBox, LowOrderEphemeralKeyIsDataLoss) {
  BoxKeyPair alice = GenerateBoxKeyPair();
  auto sealed = SealToPublicKey(alice.public_key, ToBytes("secret"));
  ASSERT_TRUE(sealed.ok());
  for (const Key32& u : LowOrderKeys()) {
    Bytes forged = *sealed;
    std::copy(u.begin(), u.end(), forged.begin());
    EXPECT_EQ(OpenSealed(alice, forged).status().code(),
              StatusCode::kDataLoss)
        << ToHex(u);
  }
}

}  // namespace
}  // namespace tc::crypto
