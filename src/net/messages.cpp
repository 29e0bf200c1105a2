#include "net/messages.hpp"

namespace tc::net {

std::string_view CipherKindName(CipherKind kind) {
  switch (kind) {
    case CipherKind::kPlain: return "Plaintext";
    case CipherKind::kHeac: return "TimeCrypt";
    case CipherKind::kPaillier: return "Paillier";
    case CipherKind::kEcElGamal: return "EC-ElGamal";
  }
  return "?";
}

}  // namespace tc::net
