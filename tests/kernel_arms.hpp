// Native and Portable arms for tests of code that dispatches on the CPU
// feature table (crypto/cpu.hpp). The Native arm runs whatever kernels this
// CPU has; the Portable arm masks every feature for the life of the test
// fixture, so the software AES, OpenSSL's EVP AES-GCM and the portable
// SHA-256 run instead. Known answers must hold on both.
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

enum class KernelArm { kNative, kPortable };

class KernelArms : public ::testing::WithParamInterface<KernelArm> {
 protected:
  bool portable() const { return GetParam() == KernelArm::kPortable; }

 private:
  crypto::internal::ScopedCpuFeatureMask mask_{
      GetParam() == KernelArm::kPortable ? crypto::kCpuAllFeatures : 0u};
};

class KernelArmTest : public KernelArms, public ::testing::Test {};

inline std::string KernelArmName(
    const ::testing::TestParamInfo<KernelArm>& info) {
  return info.param == KernelArm::kNative ? "Native" : "Portable";
}

inline void PrintTo(KernelArm arm, std::ostream* os) {
  *os << (arm == KernelArm::kNative ? "Native" : "Portable");
}

}  // namespace tc::test

#define TC_INSTANTIATE_KERNEL_ARMS(suite)                   \
  INSTANTIATE_TEST_SUITE_P(                                 \
      Kernels, suite,                                       \
      ::testing::Values(::tc::test::KernelArm::kNative,     \
                        ::tc::test::KernelArm::kPortable),  \
      ::tc::test::KernelArmName)
