#include "crypto/prg.hpp"

#include "crypto/aesni.hpp"
#include "crypto/sha256.hpp"
#include "crypto/soft_aes.hpp"

#include <cstring>

namespace tc::crypto {

std::string_view PrgKindName(PrgKind kind) {
  switch (kind) {
    case PrgKind::kAesNi: return "AES-NI";
    case PrgKind::kAesSoft: return "AES";
    case PrgKind::kSha256: return "SHA256";
  }
  return "?";
}

namespace {

constexpr Block128 kZeroBlock{};
constexpr Block128 kOneBlock{1};  // first byte 1, rest 0

class AesNiPrg final : public Prg {
 public:
  void Expand(const Key128& parent, Key128& left,
              Key128& right) const override {
    AesNiExpand(parent, left, right);
  }
};

class AesSoftPrg final : public Prg {
 public:
  void Expand(const Key128& parent, Key128& left,
              Key128& right) const override {
    Scrubbed<std::array<Block128, 2>> children;
    children[0] = kZeroBlock;
    children[1] = kOneBlock;
    SoftAes128(parent).EncryptLanes(children);
    std::ranges::copy(children[0], left.secret_bytes().begin());
    std::ranges::copy(children[1], right.secret_bytes().begin());
  }
};

class Sha256Prg final : public Prg {
 public:
  void Expand(const Key128& parent, Key128& left,
              Key128& right) const override {
    left = Truncate(
        Sha256Concat(BytesView(&kLeftTag, 1), parent.secret_bytes()));
    right = Truncate(
        Sha256Concat(BytesView(&kRightTag, 1), parent.secret_bytes()));
  }

 private:
  static Key128 Truncate(const Sha256Digest& d) {
    Key128 k;
    std::memcpy(k.secret_bytes().data(), d.data(), sizeof(k));
    return k;
  }

  static constexpr uint8_t kLeftTag = 0;
  static constexpr uint8_t kRightTag = 1;
};

}  // namespace

std::unique_ptr<Prg> MakePrg(PrgKind kind) {
  switch (kind) {
    case PrgKind::kAesNi:
      if (CpuHas(kCpuAesNi)) return std::make_unique<AesNiPrg>();
      return std::make_unique<AesSoftPrg>();
    case PrgKind::kAesSoft:
      return std::make_unique<AesSoftPrg>();
    case PrgKind::kSha256:
      return std::make_unique<Sha256Prg>();
  }
  return std::make_unique<AesSoftPrg>();
}

}  // namespace tc::crypto
