// tc_lint fixture, checked as src/net/fixture.cpp. MUST fail R3.
//
// A hand-rolled walk over the frame header, with no DecodeFrameHeader in
// the file, skips the body-length bound and the magic/type validation.
#include "net/wire.hpp"

namespace tc::net {

uint32_t ChecksumHeaderByHand(const uint8_t* buffer) {
  uint32_t sum = 0;
  for (size_t i = 0; i < kFrameHeaderBytes; ++i) sum += buffer[i];
  return sum;
}

}  // namespace tc::net
