#include "crypto/aesni.hpp"

#include <cstdlib>

#include "crypto/aesni_rounds.hpp"

namespace tc::crypto {

#if defined(TC_NATIVE_KERNELS)

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

/// The counter blocks of fields base .. base + kFieldRun - 1.
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
AesNiBlock::AesNiBlock(const Key128&) { std::abort(); }
Block128 AesNiBlock::EncryptBlock(const Block128&) const { std::abort(); }

#endif  // TC_NATIVE_KERNELS

}  // namespace tc::crypto
