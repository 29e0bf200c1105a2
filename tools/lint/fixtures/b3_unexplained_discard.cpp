// tc_lint fixture, checked as src/server/fixture.cpp. MUST fail R10.
//
// A cast to void silences [[nodiscard]] without saying why the failure may
// be ignored.
#include "common/status.hpp"

namespace tc::server {

Status Cleanup();

void DropsStatus() {
  (void)Cleanup();
}

}  // namespace tc::server
