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

namespace {

/// The counter block of field f: f as a little-endian uint64, then zeros.
Block128 FieldCounter(uint64_t f) {
  Block128 counter{};
  std::memcpy(counter.data(), &f, sizeof(f));
  return counter;
}

}  // namespace

void FieldKeys::Derive(const Key128& leaf) {
  if (CpuHas(kCpuAesNi)) {
    AesNiFieldKeys(leaf, keys_);
    return;
  }
  // Four fields per pass of the bitsliced AES.
  const SoftAes128 cipher(leaf);
  Scrubbed<std::array<Block128, kCryptoLanes>> blocks;
  for (size_t base = 0; base < keys_.size(); base += kCryptoLanes) {
    const size_t n = std::min(kCryptoLanes, keys_.size() - base);
    for (size_t j = 0; j < n; ++j) blocks[j] = FieldCounter(base + j);
    cipher.EncryptLanes({blocks.data(), n});
    for (size_t j = 0; j < n; ++j) keys_[base + j] = Fold64(blocks[j]);
  }
}

void FieldKeys::DeriveLanes(std::span<const Key128> leaves,
                            std::span<FieldKeys> keys) {
  assert(leaves.size() == keys.size() && leaves.size() <= kCryptoLanes);
  const size_t n = leaves.size();
  const bool vaes = CpuHasLanes();
  if (n < 2 || (!vaes && CpuHas(kCpuAesNi))) {
    for (size_t l = 0; l < n; ++l) keys[l].Derive(leaves[l]);
    return;
  }
  const size_t num_fields = keys[0].num_fields();
  const Key128* leaf_lanes[kCryptoLanes];
  uint64_t* key_lanes[kCryptoLanes];
  for (size_t l = 0; l < n; ++l) {
    assert(keys[l].num_fields() == num_fields);
    leaf_lanes[l] = &leaves[l];
    key_lanes[l] = keys[l].keys_.data();
  }
  if (vaes) {
    VaesFieldKeys({leaf_lanes, n}, {key_lanes, n}, num_fields);
    return;
  }
  // Portable: leaf l's schedule in lane l of the bitsliced AES, and one
  // pass per field.
  const SoftAes128 cipher({leaf_lanes, n});
  Scrubbed<std::array<Block128, kCryptoLanes>> blocks;
  for (size_t f = 0; f < num_fields; ++f) {
    for (size_t l = 0; l < n; ++l) blocks[l] = FieldCounter(f);
    cipher.EncryptLanes({blocks.data(), n});
    for (size_t l = 0; l < n; ++l) key_lanes[l][f] = Fold64(blocks[l]);
  }
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
