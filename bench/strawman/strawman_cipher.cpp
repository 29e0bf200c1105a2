#include "strawman/strawman_cipher.hpp"

#include <cstring>

namespace tc::strawman {

namespace {

// ----------------------------------------------------------------- Paillier

class PaillierCipher final : public index::DigestCipher {
 public:
  PaillierCipher(size_t num_fields,
                 std::shared_ptr<const Paillier> paillier)
      : num_fields_(num_fields), paillier_(std::move(paillier)) {}

  size_t num_fields() const override { return num_fields_; }
  size_t blob_size() const override {
    return num_fields_ * paillier_->ciphertext_size();
  }

  Result<Bytes> Encrypt(std::span<const uint64_t> fields,
                        uint64_t /*index*/) const override {
    if (fields.size() != num_fields_) {
      return InvalidArgument("field count mismatch");
    }
    Bytes blob;
    blob.reserve(blob_size());
    for (uint64_t f : fields) {
      Bytes c = paillier_->Encrypt(f);
      Append(blob, c);
    }
    return blob;
  }

  Status Add(std::span<uint8_t> acc, BytesView other) const override {
    if (acc.size() != blob_size() || other.size() != blob_size()) {
      return InvalidArgument("blob size mismatch");
    }
    size_t cs = paillier_->ciphertext_size();
    for (size_t f = 0; f < num_fields_; ++f) {
      Bytes a(acc.begin() + f * cs, acc.begin() + (f + 1) * cs);
      Bytes b(other.begin() + f * cs, other.begin() + (f + 1) * cs);
      Bytes sum = paillier_->Add(a, b);
      std::memcpy(acc.data() + f * cs, sum.data(), cs);
    }
    return Status::Ok();
  }

  Result<std::vector<uint64_t>> Decrypt(BytesView blob, uint64_t /*first*/,
                                        uint64_t /*last*/) const override {
    if (blob.size() != blob_size()) {
      return InvalidArgument("blob size mismatch");
    }
    size_t cs = paillier_->ciphertext_size();
    std::vector<uint64_t> fields;
    fields.reserve(num_fields_);
    for (size_t f = 0; f < num_fields_; ++f) {
      Bytes c(blob.begin() + f * cs, blob.begin() + (f + 1) * cs);
      TC_ASSIGN_OR_RETURN(uint64_t m, paillier_->Decrypt(c));
      fields.push_back(m);
    }
    return fields;
  }

  /// Paillier's additive identity blob is Enc(0) per field — but a fresh
  /// Enc(0) costs a full exponentiation, so like HEAC the tree seeds
  /// accumulators from the first operand instead (ZeroBlob unused).

 private:
  size_t num_fields_;
  std::shared_ptr<const Paillier> paillier_;
};

// -------------------------------------------------------------- EC-ElGamal

class EcElGamalCipher final : public index::DigestCipher {
 public:
  EcElGamalCipher(size_t num_fields,
                  std::shared_ptr<const EcElGamal> eg,
                  uint32_t table_bits)
      : num_fields_(num_fields), eg_(std::move(eg)), table_bits_(table_bits) {}

  size_t num_fields() const override { return num_fields_; }
  size_t blob_size() const override {
    return num_fields_ * eg_->ciphertext_size();
  }

  Result<Bytes> Encrypt(std::span<const uint64_t> fields,
                        uint64_t /*index*/) const override {
    if (fields.size() != num_fields_) {
      return InvalidArgument("field count mismatch");
    }
    Bytes blob;
    blob.reserve(blob_size());
    for (uint64_t f : fields) {
      Bytes c = eg_->Encrypt(f);
      Append(blob, c);
    }
    return blob;
  }

  Status Add(std::span<uint8_t> acc, BytesView other) const override {
    if (acc.size() != blob_size() || other.size() != blob_size()) {
      return InvalidArgument("blob size mismatch");
    }
    size_t cs = eg_->ciphertext_size();
    for (size_t f = 0; f < num_fields_; ++f) {
      Bytes a(acc.begin() + f * cs, acc.begin() + (f + 1) * cs);
      Bytes b(other.begin() + f * cs, other.begin() + (f + 1) * cs);
      Bytes sum = eg_->Add(a, b);
      std::memcpy(acc.data() + f * cs, sum.data(), cs);
    }
    return Status::Ok();
  }

  Result<std::vector<uint64_t>> Decrypt(BytesView blob, uint64_t /*first*/,
                                        uint64_t /*last*/) const override {
    if (blob.size() != blob_size()) {
      return InvalidArgument("blob size mismatch");
    }
    size_t cs = eg_->ciphertext_size();
    std::vector<uint64_t> fields;
    fields.reserve(num_fields_);
    for (size_t f = 0; f < num_fields_; ++f) {
      Bytes c(blob.begin() + f * cs, blob.begin() + (f + 1) * cs);
      TC_ASSIGN_OR_RETURN(uint64_t m, eg_->Decrypt(c, table_bits_));
      fields.push_back(m);
    }
    return fields;
  }

 private:
  size_t num_fields_;
  std::shared_ptr<const EcElGamal> eg_;
  uint32_t table_bits_;
};

}  // namespace

std::unique_ptr<index::DigestCipher> MakePaillierCipher(
    size_t num_fields, std::shared_ptr<const Paillier> paillier) {
  return std::make_unique<PaillierCipher>(num_fields, std::move(paillier));
}

std::unique_ptr<index::DigestCipher> MakeEcElGamalCipher(
    size_t num_fields, std::shared_ptr<const EcElGamal> eg,
    uint32_t dlog_table_bits) {
  return std::make_unique<EcElGamalCipher>(num_fields, std::move(eg),
                                           dlog_table_bits);
}

}  // namespace tc::strawman
