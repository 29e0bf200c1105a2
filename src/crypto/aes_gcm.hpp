// AES-GCM-128 authenticated encryption for chunk payloads (§4.1: raw data
// points are "compressed and encrypted with a randomized encryption scheme
// (AES-GCM-128)"). The per-chunk key is H(k_i - k_{i+1}) per §4.3.
#pragma once

#include <span>

#include "common/secret.hpp"
#include "common/status.hpp"
#include "crypto/cpu.hpp"
#include "crypto/rand.hpp"

namespace tc::crypto {

constexpr size_t kGcmNonceSize = 12;
constexpr size_t kGcmTagSize = 16;

/// Two implementations, one output. Where the CPU feature table (cpu.hpp)
/// has AES-NI and PCLMULQDQ (GcmIsNative()), a native one-shot kernel runs.
/// One AES pass of eight blocks, with the key schedule run between its
/// rounds in registers, gives H = E(0), E(J0) and the first six keystream
/// blocks; longer payloads continue in passes of eight keystream blocks
/// under a stack copy of the schedule, scrubbed before it returns. GHASH is
/// a PCLMULQDQ multiply and reduction over byte-reflected blocks. Elsewhere
/// a portable kernel runs, in constant time: the bitsliced AES
/// (soft_aes.hpp) in passes of four blocks, the first giving H, E(J0) and
/// two keystream blocks, and a GHASH of integer multiplies on masked bits
/// (BearSSL's ghash_ctmul64). Both give byte-identical ciphertexts and tags
/// (OpenSSL's for the same key and nonce), so stored payloads, envelopes
/// and sealed grants open on either, and neither needs libcrypto.

/// True when this process seals and opens on the native path.
bool GcmIsNative();

/// Encrypt: output layout is nonce(12) || ciphertext || tag(16). A fresh
/// random nonce is drawn per call; with per-chunk keys nonce reuse across
/// chunks is impossible by construction. Both paths encrypt the plaintext
/// straight into the output, between the nonce and the tag.
///
/// Nonces come from a per-thread reserve of about 4 KiB (341 nonces),
/// instead of one CSPRNG call per seal. On AES-NI a refill draws one
/// 16-byte key from getrandom(2), expands it with AES-128 in counter mode
/// into the whole reserve and scrubs the key: a 16-byte getrandom costs a
/// thirtieth of a 4 KiB one. Without AES-NI, where the software AES would
/// cost more than that, getrandom fills the whole reserve. A
/// pthread_atfork child handler bumps a process-wide fork generation, and
/// the reserve records the generation it was filled at. A forked child
/// therefore refills before its first seal and never reuses a nonce its
/// parent holds, without a getpid call per seal. A child made by a raw
/// clone or fork system call runs no atfork handlers, so it must not seal
/// before it execs. Nonces are public, so the reserve needs no scrubbing.
Bytes GcmSeal(const Key128& key, BytesView plaintext,
              BytesView aad = {});

/// GcmSeal's output, appended to `out` (kGcmNonceSize + plaintext.size() +
/// kGcmTagSize bytes) instead of returned. `plaintext` must not point into
/// `out`. GcmSeal is this into an empty buffer.
void GcmSealAppend(const Key128& key, BytesView plaintext,
                   BytesView aad, Bytes& out);

/// One payload for GcmSealLanes: sealed as GcmSealAppend seals `plaintext`
/// under `*key` and `aad`, into the kGcmNonceSize + plaintext.size() +
/// kGcmTagSize bytes at `out`. The plaintext may already sit at
/// out + kGcmNonceSize, to be sealed in place; it must not overlap the
/// output anywhere else.
struct GcmSealLane {
  const Key128* key = nullptr;
  BytesView plaintext;
  BytesView aad;
  uint8_t* out = nullptr;
};

/// Seals up to kCryptoLanes payloads, each under its own key, nonce and
/// length, drawing the nonces in lane order: each lane's bytes are
/// GcmSealAppend's for its nonce. With CpuHasLanes() two or more lanes run
/// together: their AES blocks in the lanes of one zmm key schedule, their
/// GHASH as four VPCLMULQDQ chains in one register, a lane that ends early
/// masked out of the later blocks. One lane, or a CPU without VAES, seals
/// each lane alone.
void GcmSealLanes(std::span<const GcmSealLane> lanes);

/// Decrypt + authenticate. DataLoss on any tampering/truncation. The native
/// path checks the tag (in constant time) before it decrypts, so no
/// unauthenticated plaintext is ever written.
Result<Bytes> GcmOpen(const Key128& key, BytesView sealed,
                      BytesView aad = {});

/// An envelope (§4.4.2): GcmSeal of the 16 bytes of `payload`.
Bytes GcmSealKey(const Key128& key, const Key128& payload);

/// Opens a GcmSealKey envelope; DataLoss unless it holds exactly a key.
Result<Key128> GcmOpenKey(const Key128& key, BytesView sealed);

/// The chunk payload key of §4.3: H(k_i - k_{i+1}) where subtraction is the
/// component-wise uint64 difference of the two 128-bit leaves (mod 2^64 per
/// lane), hashed and truncated to 128 bits: one Sha256ChainWalk step.
Key128 ChunkPayloadKey(const Key128& leaf_i, const Key128& leaf_next);

/// keys[j] = ChunkPayloadKey(leaves[j], leaves[j + 1]) for every j:
/// `leaves` holds one more than `keys`. The hash steps run two at a time
/// (Sha256ChainWalkPair).
void ChunkPayloadKeys(std::span<const Key128> leaves,
                      std::span<Key128> keys);

}  // namespace tc::crypto
