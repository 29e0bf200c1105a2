// tc_lint fixture, checked as src/crypto/fixture.hpp. MUST fail R9.
//
// ChainState holds a raw seed that nothing scrubs, so its bytes survive in
// freed memory. ScrubbedState and PublicHeader must not be reported.
#pragma once

#include "common/secret.hpp"
#include "crypto/rand.hpp"

namespace tc::crypto {

struct ChainState {
  uint64_t index = 0;
  Key128 seed;
};

struct ScrubbedState {
  uint64_t index = 0;
  Scrubbed<Key128> seed;
};

struct PublicHeader {
  uint64_t stream_uuid = 0;
  uint64_t chunk_index = 0;
};

}  // namespace tc::crypto
