#include "crypto/cpu.hpp"

#if defined(TC_NATIVE_KERNELS)
#include <cpuid.h>
#endif

namespace tc::crypto::internal {

uint32_t ProbeCpuFeatures() {
  uint32_t detected = 0;
#if defined(TC_NATIVE_KERNELS)
  unsigned int eax, ebx, ecx, edx;
  if (__get_cpuid(1, &eax, &ebx, &ecx, &edx) && (ecx & bit_SSSE3) != 0) {
    if ((ecx & bit_AES) != 0) detected |= kCpuAesNi;
    if ((ecx & bit_PCLMUL) != 0) detected |= kCpuPclmul;
    if ((ecx & bit_SSE4_1) != 0 &&
        __get_cpuid_count(7, 0, &eax, &ebx, &ecx, &edx) &&
        (ebx & bit_SHA) != 0) {
      detected |= kCpuShaNi;
    }
  }
#endif
  // A concurrent first use, or a mask, may have filled the table: keep it.
  uint32_t table = kCpuUnprobed;
  return cpu_features.compare_exchange_strong(table, detected,
                                              std::memory_order_relaxed)
             ? detected
             : table;
}

ScopedCpuFeatureMask::ScopedCpuFeatureMask(uint32_t cleared)
    : saved_(CpuFeatures()) {
  cpu_features.store(saved_ & ~cleared, std::memory_order_relaxed);
}

ScopedCpuFeatureMask::~ScopedCpuFeatureMask() {
  cpu_features.store(saved_, std::memory_order_relaxed);
}

}  // namespace tc::crypto::internal
