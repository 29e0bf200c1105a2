#include "integrity/attestation.hpp"

namespace tc::integrity {

namespace {
/// An attestation without its signature: what the signature covers.
struct SignedFields {
  const Attestation& attestation;

  static void Visit(auto& m, auto& v) {
    Attestation::VisitSigned(m.attestation, v);
  }
};
}  // namespace

Hash ChunkWitness(uint64_t uuid, uint64_t chunk_index, BytesView digest_blob,
                  BytesView payload) {
  BinaryWriter w(digest_blob.size() + payload.size() + 24);
  w.PutU64(uuid);
  w.PutU64(chunk_index);
  w.PutBytes(digest_blob);
  w.PutBytes(payload);
  return LeafHash(w.data());
}

Bytes Attestation::SignedBytes() const {
  return net::codec::Encode(SignedFields{*this});
}

Status Attestation::Verify(BytesView owner_public) const {
  return crypto::VerifySignature(owner_public, SignedBytes(), signature);
}

Status StreamAttestor::Add(uint64_t index, BytesView digest_blob,
                           BytesView payload) {
  if (index != tree_.size()) {
    return FailedPrecondition("witnesses must arrive in order");
  }
  tree_.Append(ChunkWitness(uuid_, index, digest_blob, payload));
  return Status::Ok();
}

Result<Attestation> StreamAttestor::Attest() const {
  return AttestPrefix(tree_.size());
}

Result<Attestation> StreamAttestor::AttestPrefix(uint64_t size) const {
  Attestation a;
  a.uuid = uuid_;
  a.size = size;
  TC_ASSIGN_OR_RETURN(a.root, tree_.RootAt(size));
  TC_ASSIGN_OR_RETURN(a.signature,
                      crypto::SignMessage(keys_.secret_key, a.SignedBytes()));
  return a;
}

Status VerifyChunk(const Attestation& attestation, BytesView owner_public,
                   uint64_t chunk_index, BytesView digest_blob,
                   BytesView payload, const AuditPath& path) {
  TC_RETURN_IF_ERROR(attestation.Verify(owner_public));
  if (chunk_index >= attestation.size) {
    return OutOfRange("chunk is beyond the attested prefix");
  }
  Hash witness = ChunkWitness(attestation.uuid, chunk_index, digest_blob,
                              payload);
  return VerifyAuditPath(attestation.root, witness, path);
}

}  // namespace tc::integrity
