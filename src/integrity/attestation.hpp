// Stream attestations: the owner-signed anchor that upgrades TimeCrypt from
// confidentiality-only to verified reads. §3.3 scopes integrity out of the
// core system and points at Verena-style extensions; this module is that
// extension, built from the repo's own primitives (Merkle tree + Ed25519).
//
// Protocol:
//  - The producer hashes every sealed chunk into a witness leaf
//    (uuid, chunk index, encrypted digest, sealed payload — all ciphertext,
//    so witnesses leak nothing beyond what the server already stores).
//  - The untrusted server maintains the same Merkle tree over the witnesses
//    it stores and serves audit paths (it *can* — witnesses are public).
//  - The owner periodically signs (uuid, size, root) and publishes the
//    attestation to the server's key store.
//  - A consumer fetches chunk + attestation + audit path and accepts the
//    chunk only if the path verifies against the signed root. A server
//    that tampers with, reorders, or truncates data within the attested
//    prefix can no longer answer with a valid path.
#pragma once

#include <cstdint>

#include "common/io.hpp"
#include "crypto/ed25519.hpp"
#include "integrity/merkle.hpp"

namespace tc::integrity {

/// Witness leaf content for one sealed chunk. Both producer and server
/// compute this over identical bytes.
Hash ChunkWitness(uint64_t uuid, uint64_t chunk_index, BytesView digest_blob,
                  BytesView payload);

/// An owner-signed statement: "stream `uuid` has `size` chunks and witness
/// tree root `root`". Signed over the canonical encoding of those fields.
struct Attestation {
  uint64_t uuid = 0;
  uint64_t size = 0;  // number of attested chunks
  Hash root{};
  Bytes signature;  // Ed25519 over SignedBytes()

  /// The fields the signature covers, in signed order.
  static void VisitSigned(auto& m, auto& v) { v(m.uuid, m.size, m.root); }
  static void Visit(auto& m, auto& v) {
    VisitSigned(m, v);
    v(m.signature);
  }
  TC_WIRE_MESSAGE(Attestation)

  /// The exact byte string the signature covers.
  Bytes SignedBytes() const;

  /// Check the signature against the owner's public signing key.
  Status Verify(BytesView owner_public) const;
};

/// Producer-side attestor: mirrors the witness tree incrementally as chunks
/// are sealed and signs the current root on demand.
class StreamAttestor {
 public:
  StreamAttestor(uint64_t uuid, crypto::SigningKeyPair keys)
      : uuid_(uuid), keys_(std::move(keys)) {}

  /// Record chunk `index`'s witness. Chunks must arrive in order from 0.
  Status Add(uint64_t index, BytesView digest_blob, BytesView payload);

  uint64_t size() const { return tree_.size(); }
  const Bytes& public_key() const { return keys_.public_key; }

  /// Sign the current tree head.
  Result<Attestation> Attest() const;

  /// Sign the head over the first `size` witnesses — reproduces a
  /// historical attestation from a rebuilt tree (restart cross-check).
  Result<Attestation> AttestPrefix(uint64_t size) const;

 private:
  uint64_t uuid_;
  crypto::SigningKeyPair keys_;
  MerkleTree tree_;
};

/// Consumer-side check: does `(digest_blob, payload)` match chunk
/// `chunk_index` of the attested stream, per the audit path?
Status VerifyChunk(const Attestation& attestation, BytesView owner_public,
                   uint64_t chunk_index, BytesView digest_blob,
                   BytesView payload, const AuditPath& path);

/// Wire encoding for audit paths (served by the server): AuditPath's Visit.
inline void EncodeAuditPath(BinaryWriter& w, const AuditPath& path) {
  net::codec::Write(w, path);
}
inline Result<AuditPath> DecodeAuditPath(BinaryReader& r) {
  return net::codec::Read<AuditPath>(r);
}

}  // namespace tc::integrity
