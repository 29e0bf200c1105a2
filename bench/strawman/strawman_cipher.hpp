// The strawman digest ciphers of the paper's evaluation (§7: Figs 5 and 7,
// Table 2): the index's DigestCipher over Paillier and over EC-ElGamal
// ciphertexts, so the benchmarks run the same AggTree code over each scheme.
// They are baselines, not part of TimeCrypt: only the benchmarks and their
// tests link this library, and the server hosts HEAC and plaintext streams
// only.
#pragma once

#include <memory>

#include "index/digest_cipher.hpp"
#include "strawman/ec_elgamal.hpp"
#include "strawman/paillier.hpp"

namespace tc::strawman {

/// Paillier strawman. Shares the keypair.
std::unique_ptr<index::DigestCipher> MakePaillierCipher(
    size_t num_fields, std::shared_ptr<const Paillier> paillier);

/// EC-ElGamal strawman. Shares the keypair.
std::unique_ptr<index::DigestCipher> MakeEcElGamalCipher(
    size_t num_fields, std::shared_ptr<const EcElGamal> eg,
    uint32_t dlog_table_bits = 21);

}  // namespace tc::strawman
