// Native, NoVaes and Portable arms for tests of code that dispatches on the
// CPU feature table (crypto/cpu.hpp). The Native arm runs whatever kernels
// this CPU has; the NoVaes arm masks only kCpuVaes, so the one-chunk AES-NI
// and PCLMULQDQ kernels run where the four-lane VAES ones would (on a CPU
// without VAES it repeats Native); the Portable arm masks every feature for
// the life of the test fixture, so the bitsliced software AES, the portable
// AES-GCM and the portable SHA-256 run instead. Known answers must hold on
// all three.
//
//   class AesGcm : public tc::test::KernelArmTest {};
//   TEST_P(AesGcm, RoundTrip) { ... }
//   TC_INSTANTIATE_KERNEL_ARMS(AesGcm);
//
// A fixture that also derives from another fixture lists KernelArms first,
// so the mask is on before the other base's constructor builds anything.
#pragma once

#include <gtest/gtest.h>

#include <ostream>
#include <string>

#include "crypto/cpu.hpp"

namespace tc::test {

enum class KernelArm { kNative, kNoVaes, kPortable };

class KernelArms : public ::testing::WithParamInterface<KernelArm> {
 protected:
  bool portable() const { return GetParam() == KernelArm::kPortable; }

 private:
  static uint32_t Masked(KernelArm arm) {
    switch (arm) {
      case KernelArm::kNative: return 0;
      case KernelArm::kNoVaes: return crypto::kCpuVaes;
      case KernelArm::kPortable: return crypto::kCpuAllFeatures;
    }
    return 0;
  }

  crypto::internal::ScopedCpuFeatureMask mask_{Masked(GetParam())};
};

class KernelArmTest : public KernelArms, public ::testing::Test {};

inline const char* KernelArmLabel(KernelArm arm) {
  switch (arm) {
    case KernelArm::kNative: return "Native";
    case KernelArm::kNoVaes: return "NoVaes";
    case KernelArm::kPortable: return "Portable";
  }
  return "?";
}

inline std::string KernelArmName(
    const ::testing::TestParamInfo<KernelArm>& info) {
  return KernelArmLabel(info.param);
}

inline void PrintTo(KernelArm arm, std::ostream* os) {
  *os << KernelArmLabel(arm);
}

}  // namespace tc::test

#define TC_INSTANTIATE_KERNEL_ARMS(suite)                   \
  INSTANTIATE_TEST_SUITE_P(                                 \
      Kernels, suite,                                       \
      ::testing::Values(::tc::test::KernelArm::kNative,     \
                        ::tc::test::KernelArm::kNoVaes,     \
                        ::tc::test::KernelArm::kPortable),  \
      ::tc::test::KernelArmName)
