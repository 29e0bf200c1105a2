// tc_lint fixture, checked as src/common/fixture.hpp. MUST fail R10.
//
// [[nodiscard]] on the Status class does not reach a Status returned by
// reference, so `SharedStatus();` would drop one silently.
#pragma once

#include "common/status.hpp"

namespace tc {

Status& SharedStatus();

}  // namespace tc
