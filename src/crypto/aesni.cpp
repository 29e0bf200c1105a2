#include "crypto/aesni.hpp"

#include <cstdlib>
#include <cstring>

#include "crypto/aesni_rounds.hpp"

namespace tc::crypto {

#if defined(TC_NATIVE_KERNELS)

using internal::Aes4EncryptLanes;
using internal::Aes4EncryptScheduling;
using internal::AesEncryptLanes;
using internal::AesEncryptScheduling;
using internal::AesNextRoundKey;

namespace {

TC_AESNI_TARGET inline __m128i Load(const uint8_t* p) {
  return _mm_loadu_si128(reinterpret_cast<const __m128i*>(p));
}

TC_AESNI_TARGET inline void Store(__m128i b, uint8_t* p) {
  _mm_storeu_si128(reinterpret_cast<__m128i*>(p), b);
}

constexpr size_t kFieldRun = 8;

/// The counter blocks of fields base .. base + kFieldRun - 1 (and of
/// AesNiKeystream's blocks).
TC_AESNI_TARGET inline void FieldCounters(size_t base,
                                          __m128i (&b)[kFieldRun]) {
#pragma GCC unroll 8
  for (size_t j = 0; j < kFieldRun; ++j) {
    b[j] = _mm_set_epi64x(0, static_cast<long long>(base + j));
  }
}

/// keys[base + j] = Fold64(b[j]) for the lanes that have a field.
TC_AESNI_TARGET inline void FoldInto(const __m128i (&b)[kFieldRun],
                                     std::span<uint64_t> keys, size_t base) {
#pragma GCC unroll 8
  for (size_t j = 0; j < kFieldRun; ++j) {
    if (base + j >= keys.size()) return;
    const __m128i folded = _mm_xor_si128(b[j], _mm_unpackhi_epi64(b[j], b[j]));
    _mm_storel_epi64(reinterpret_cast<__m128i*>(&keys[base + j]), folded);
  }
}

/// The four-lane counter blocks of fields base .. base + kFieldRun - 1.
TC_VAES_TARGET inline void FieldCounterLanes(size_t base,
                                             __m512i (&b)[kFieldRun]) {
#pragma GCC unroll 8
  for (size_t j = 0; j < kFieldRun; ++j) {
    b[j] = _mm512_broadcast_i32x4(
        _mm_set_epi64x(0, static_cast<long long>(base + j)));
  }
}

/// keys[l][base + j] = Fold64(lane l of b[j]) for the leaves and fields
/// that exist. After the fold, qword 2l of block j is field base + j of
/// leaf l; three rounds of two-source permutes gather each leaf's eight.
TC_VAES_TARGET inline void FoldLanesInto(const __m512i (&b)[kFieldRun],
                                         std::span<uint64_t* const> keys,
                                         size_t base, size_t num_fields) {
  __m512i x[kFieldRun];
#pragma GCC unroll 8
  for (size_t j = 0; j < kFieldRun; ++j) {
    x[j] = _mm512_xor_si512(b[j], _mm512_shuffle_epi32(b[j], _MM_PERM_BADC));
  }
  // p[k]: leaves 0-3 of block 2k, then leaves 0-3 of block 2k + 1.
  const __m512i evens = _mm512_set_epi64(14, 12, 10, 8, 6, 4, 2, 0);
  __m512i p[4];
#pragma GCC unroll 4
  for (size_t k = 0; k < 4; ++k) {
    p[k] = _mm512_permutex2var_epi64(x[2 * k], evens, x[2 * k + 1]);
  }
  // q[0], q[1]: blocks 0-3 of leaves 0, 1 and of leaves 2, 3; r: blocks 4-7.
  const __m512i leaves01 = _mm512_set_epi64(13, 9, 5, 1, 12, 8, 4, 0);
  const __m512i leaves23 = _mm512_set_epi64(15, 11, 7, 3, 14, 10, 6, 2);
  const __m512i q[2] = {_mm512_permutex2var_epi64(p[0], leaves01, p[1]),
                        _mm512_permutex2var_epi64(p[0], leaves23, p[1])};
  const __m512i r[2] = {_mm512_permutex2var_epi64(p[2], leaves01, p[3]),
                        _mm512_permutex2var_epi64(p[2], leaves23, p[3])};
  const __m512i first = _mm512_set_epi64(11, 10, 9, 8, 3, 2, 1, 0);
  const __m512i second = _mm512_set_epi64(15, 14, 13, 12, 7, 6, 5, 4);
  const size_t left = num_fields - base;
  const auto mask = static_cast<__mmask8>(
      left >= kFieldRun ? 0xff : (1u << left) - 1);
  for (size_t l = 0; l < keys.size(); ++l) {
    const __m512i out = _mm512_permutex2var_epi64(
        q[l / 2], l % 2 == 0 ? first : second, r[l / 2]);
    _mm512_mask_storeu_epi64(keys[l] + base, mask, out);
  }
}

/// Writes the blocks b to out[at, at + 16 * kFieldRun), cut at out's end.
TC_AESNI_TARGET inline void StoreStream(const __m128i (&b)[kFieldRun],
                                        MutableBytesView out, size_t at) {
  for (size_t j = 0; j < kFieldRun && at < out.size(); ++j, at += 16) {
    if (out.size() - at >= 16) {
      Store(b[j], out.data() + at);
    } else {
      uint8_t last[16];
      Store(b[j], last);
      std::memcpy(out.data() + at, last, out.size() - at);
    }
  }
}

}  // namespace

TC_AESNI_TARGET void AesNiExpand(const Key128& parent, Key128& left,
                                 Key128& right) {
  __m128i b[2] = {_mm_setzero_si128(), _mm_cvtsi32_si128(1)};
  AesEncryptScheduling(Load(parent.data()), b, nullptr);
  Store(b[0], left.data());
  Store(b[1], right.data());
}

TC_AESNI_TARGET void AesNiFieldKeys(const Key128& leaf,
                                    std::span<uint64_t> keys) {
  TC_SECRET __m128i rk[11];
  const bool more = keys.size() > kFieldRun;
  __m128i b[kFieldRun];
  FieldCounters(0, b);
  AesEncryptScheduling(Load(leaf.data()), b, more ? rk : nullptr);
  FoldInto(b, keys, 0);
  if (!more) return;
  for (size_t base = kFieldRun; base < keys.size(); base += kFieldRun) {
    FieldCounters(base, b);
    AesEncryptLanes(rk, b);
    FoldInto(b, keys, base);
  }
  SecureZero(MutableBytesView(reinterpret_cast<uint8_t*>(rk), sizeof(rk)));
}

TC_VAES_TARGET void VaesFieldKeys(std::span<const Key128* const> leaves,
                                  std::span<uint64_t* const> keys,
                                  size_t num_fields) {
  TC_SECRET __m512i rk[11];
  const bool more = num_fields > kFieldRun;
  __m512i b[kFieldRun];
  FieldCounterLanes(0, b);
  Aes4EncryptScheduling(internal::LoadKeyLanes(leaves.data(), leaves.size()),
                        b, more ? rk : nullptr);
  FoldLanesInto(b, keys, 0, num_fields);
  if (!more) return;
  for (size_t base = kFieldRun; base < num_fields; base += kFieldRun) {
    FieldCounterLanes(base, b);
    Aes4EncryptLanes(rk, b);
    FoldLanesInto(b, keys, base, num_fields);
  }
  SecureZero(MutableBytesView(reinterpret_cast<uint8_t*>(rk), sizeof(rk)));
}

TC_AESNI_TARGET void AesNiKeystream(const Key128& key, MutableBytesView out) {
  TC_SECRET __m128i rk[11];
  __m128i b[kFieldRun];
  FieldCounters(0, b);
  AesEncryptScheduling(Load(key.data()), b, rk);
  StoreStream(b, out, 0);
  constexpr size_t kRunBytes = 16 * kFieldRun;
  for (size_t at = kRunBytes; at < out.size(); at += kRunBytes) {
    FieldCounters(at / 16, b);
    AesEncryptLanes(rk, b);
    StoreStream(b, out, at);
  }
  SecureZero(MutableBytesView(reinterpret_cast<uint8_t*>(rk), sizeof(rk)));
}

TC_AESNI_TARGET AesNiBlock::AesNiBlock(const Key128& key) {
  auto* rk = reinterpret_cast<__m128i*>(round_keys_.data());
  __m128i k = Load(key.data());
  _mm_store_si128(&rk[0], k);
#pragma GCC unroll 10
  for (int i = 0; i < 10; ++i) {
    k = AesNextRoundKey(k, internal::kAesRcon[i]);
    _mm_store_si128(&rk[i + 1], k);
  }
}

TC_AESNI_TARGET Block128
AesNiBlock::EncryptBlock(const Block128& plaintext) const {
  __m128i b[1] = {Load(plaintext.data())};
  AesEncryptLanes(reinterpret_cast<const __m128i*>(round_keys_.data()), b);
  Block128 out;
  Store(b[0], out.data());
  return out;
}

#else  // !TC_NATIVE_KERNELS

// The feature table is empty here, so every caller takes the software path
// and nothing below runs.
void AesNiExpand(const Key128&, Key128&, Key128&) { std::abort(); }
void AesNiFieldKeys(const Key128&, std::span<uint64_t>) { std::abort(); }
void VaesFieldKeys(std::span<const Key128* const>, std::span<uint64_t* const>,
                   size_t) {
  std::abort();
}
void AesNiKeystream(const Key128&, MutableBytesView) { std::abort(); }
AesNiBlock::AesNiBlock(const Key128&) { std::abort(); }
Block128 AesNiBlock::EncryptBlock(const Block128&) const { std::abort(); }

#endif  // TC_NATIVE_KERNELS

}  // namespace tc::crypto
