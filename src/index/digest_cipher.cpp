#include "index/digest_cipher.hpp"

#include <cstring>

#include "crypto/heac.hpp"

namespace tc::index {

Bytes DigestCipher::ZeroBlob() const { return Bytes(blob_size(), 0); }

namespace {

// ---------------------------------------------------------------- plaintext

class PlainCipher : public DigestCipher {
 public:
  explicit PlainCipher(size_t num_fields) : num_fields_(num_fields) {}

  size_t num_fields() const override { return num_fields_; }
  size_t blob_size() const override { return num_fields_ * 8; }

  Result<Bytes> Encrypt(std::span<const uint64_t> fields,
                        uint64_t /*index*/) const override {
    if (fields.size() != num_fields_) {
      return InvalidArgument("field count mismatch");
    }
    Bytes blob(blob_size());
    std::memcpy(blob.data(), fields.data(), blob.size());
    return blob;
  }

  Status Add(std::span<uint8_t> acc, BytesView other) const override {
    if (acc.size() != blob_size() || other.size() != blob_size()) {
      return InvalidArgument("blob size mismatch");
    }
    for (size_t f = 0; f < num_fields_; ++f) {
      uint64_t a, b;
      std::memcpy(&a, acc.data() + f * 8, 8);
      std::memcpy(&b, other.data() + f * 8, 8);
      a += b;
      std::memcpy(acc.data() + f * 8, &a, 8);
    }
    return Status::Ok();
  }

  Result<std::vector<uint64_t>> Decrypt(BytesView blob, uint64_t /*first*/,
                                        uint64_t /*last*/) const override {
    if (blob.size() != blob_size()) {
      return InvalidArgument("blob size mismatch");
    }
    std::vector<uint64_t> fields(num_fields_);
    std::memcpy(fields.data(), blob.data(), blob.size());
    return fields;
  }

 protected:
  size_t num_fields_;
};

// --------------------------------------------------------------------- HEAC

// HEAC blobs are plaintext blobs: 8 bytes per field, no ciphertext expansion
// (§6.1), and the server adds them exactly as it adds plaintext — this is
// the whole point of HEAC (Table 2 "Micro ADD": 1 ns, same as plaintext).
// Only encryption and decryption use the keys.
class HeacCipher final : public PlainCipher {
 public:
  HeacCipher(size_t num_fields, std::shared_ptr<const crypto::GgmTree> tree)
      : PlainCipher(num_fields), tree_(std::move(tree)), codec_(num_fields) {}


  Result<Bytes> Encrypt(std::span<const uint64_t> fields,
                        uint64_t index) const override {
    if (fields.size() != num_fields_) {
      return InvalidArgument("field count mismatch");
    }
    TC_ASSIGN_OR_RETURN(crypto::Key128 leaf_i, tree_->DeriveLeaf(index));
    TC_ASSIGN_OR_RETURN(crypto::Key128 leaf_n, tree_->DeriveLeaf(index + 1));
    Bytes blob(blob_size());
    codec_.EncryptTo(fields, crypto::FieldKeys(leaf_i, num_fields_),
                     crypto::FieldKeys(leaf_n, num_fields_), blob.data());
    return blob;
  }

  Result<std::vector<uint64_t>> Decrypt(BytesView blob, uint64_t first,
                                        uint64_t last) const override {
    TC_ASSIGN_OR_RETURN(std::vector<uint64_t> fields,
                        PlainCipher::Decrypt(blob, first, last));
    TC_ASSIGN_OR_RETURN(crypto::Key128 leaf_f, tree_->DeriveLeaf(first));
    TC_ASSIGN_OR_RETURN(crypto::Key128 leaf_l, tree_->DeriveLeaf(last));
    crypto::HeacOpen(fields, leaf_f, leaf_l);
    return fields;
  }

 private:
  std::shared_ptr<const crypto::GgmTree> tree_;
  crypto::HeacCodec codec_;
};

}  // namespace

std::unique_ptr<DigestCipher> MakePlainCipher(size_t num_fields) {
  return std::make_unique<PlainCipher>(num_fields);
}

std::unique_ptr<DigestCipher> MakeHeacCipher(
    size_t num_fields, std::shared_ptr<const crypto::GgmTree> tree) {
  return std::make_unique<HeacCipher>(num_fields, std::move(tree));
}

}  // namespace tc::index
