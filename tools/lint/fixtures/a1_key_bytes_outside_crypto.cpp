// tc_lint fixture, checked as src/client/fixture.cpp. MUST fail R12.
//
// A key's bytes are reached outside the crypto layer and the key
// serialisers: from here they can flow into a log line or a Status.
#include "common/logging.hpp"
#include "crypto/rand.hpp"

namespace tc::client {

void LogLeaf(const crypto::Key128& leaf, uint64_t chunk) {
  TC_LOG_INFO << "chunk " << chunk << " leaf " << ToHex(leaf.secret_bytes());
}

}  // namespace tc::client
