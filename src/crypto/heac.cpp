#include "crypto/heac.hpp"

#include <algorithm>
#include <array>
#include <cassert>
#include <cstring>
#include <span>

namespace tc::crypto {

FieldKeys::FieldKeys(const Key128& leaf, size_t num_fields)
    : keys_(num_fields) {
  Derive(leaf);
}

void FieldKeys::Derive(const Key128& leaf) {
  if (CpuHas(kCpuAesNi)) {
    AesNiFieldKeys(leaf, keys_);
    return;
  }
  const SoftAes128 cipher(leaf);
  Block128 block{};
  for (size_t f = 0; f < keys_.size(); ++f) {
    Block128 counter{};
    const uint64_t field = f;
    std::memcpy(counter.data(), &field, sizeof(field));
    block = cipher.EncryptBlock(counter);
    keys_[f] = Fold64(block);
  }
  SecureZero(block);
}

void FieldKeys::DeriveLanes(std::span<const Key128> leaves,
                            std::span<FieldKeys> keys) {
  assert(leaves.size() == keys.size() && leaves.size() <= kCryptoLanes);
  if (leaves.size() > 1 && CpuHasLanes()) {
    const Key128* leaf_lanes[kCryptoLanes];
    uint64_t* key_lanes[kCryptoLanes];
    for (size_t l = 0; l < leaves.size(); ++l) {
      assert(keys[l].num_fields() == keys[0].num_fields());
      leaf_lanes[l] = &leaves[l];
      key_lanes[l] = keys[l].keys_.data();
    }
    VaesFieldKeys({leaf_lanes, leaves.size()}, {key_lanes, leaves.size()},
                  keys[0].num_fields());
    return;
  }
  for (size_t l = 0; l < leaves.size(); ++l) keys[l].Derive(leaves[l]);
}

Result<HeacCiphertext> HeacAdd(const HeacCiphertext& a,
                               const HeacCiphertext& b) {
  HeacCiphertext out = a;
  TC_RETURN_IF_ERROR(HeacAddInPlace(out, b));
  return out;
}

Status HeacAddInPlace(HeacCiphertext& acc, const HeacCiphertext& b) {
  if (acc.fields.size() != b.fields.size()) {
    return InvalidArgument("digest field count mismatch");
  }
  if (acc.last_chunk != b.first_chunk) {
    return InvalidArgument(
        "HEAC aggregation requires contiguous chunk ranges (key canceling)");
  }
  for (size_t i = 0; i < acc.fields.size(); ++i) {
    acc.fields[i] += b.fields[i];  // wraps mod 2^64 by design
  }
  acc.last_chunk = b.last_chunk;
  return Status::Ok();
}

HeacCiphertext HeacCodec::Encrypt(std::span<const uint64_t> fields,
                                  uint64_t chunk, const Key128& leaf_i,
                                  const Key128& leaf_next) const {
  return Encrypt(fields, chunk, FieldKeys(leaf_i, num_fields_),
                 FieldKeys(leaf_next, num_fields_));
}

HeacCiphertext HeacCodec::Encrypt(std::span<const uint64_t> fields,
                                  uint64_t chunk, const FieldKeys& keys_i,
                                  const FieldKeys& keys_next) const {
  HeacCiphertext c;
  c.fields.resize(num_fields_);
  EncryptTo(fields, keys_i, keys_next,
            reinterpret_cast<uint8_t*>(c.fields.data()));
  c.first_chunk = chunk;
  c.last_chunk = chunk + 1;
  return c;
}

void HeacCodec::EncryptTo(std::span<const uint64_t> fields,
                          const FieldKeys& keys_i, const FieldKeys& keys_next,
                          uint8_t* out) const {
  assert(fields.size() == num_fields_);
  assert(keys_i.num_fields() == num_fields_);
  assert(keys_next.num_fields() == num_fields_);
  for (size_t f = 0; f < num_fields_; ++f) {
    const uint64_t c = fields[f] + keys_i.key(f) - keys_next.key(f);
    std::memcpy(out + f * sizeof(c), &c, sizeof(c));
  }
}

void HeacOpen(std::span<uint64_t> fields, const Key128& leaf_first,
              const Key128& leaf_last) {
  const FieldKeys kf(leaf_first, fields.size());
  const FieldKeys kl(leaf_last, fields.size());
  for (size_t f = 0; f < fields.size(); ++f) {
    fields[f] = fields[f] - kf.key(f) + kl.key(f);
  }
}

std::vector<uint64_t> HeacCodec::Decrypt(const HeacCiphertext& c,
                                         const Key128& leaf_first,
                                         const Key128& leaf_last) const {
  assert(c.fields.size() == num_fields_);
  std::vector<uint64_t> m = c.fields;
  HeacOpen(m, leaf_first, leaf_last);
  return m;
}

}  // namespace tc::crypto
