#include "crypto/cpu.hpp"

#if defined(TC_NATIVE_KERNELS)
#include <cpuid.h>
#endif

namespace tc::crypto::internal {

#if defined(TC_NATIVE_KERNELS)
namespace {

/// XCR0 bits 1, 2 and 5-7: the OS saves the SSE, AVX, opmask and all 32
/// zmm registers' state across context switches.
constexpr uint64_t kZmmState = 0xe6;

/// XCR0, the state components the OS enables. Requires OSXSAVE.
uint64_t EnabledXsaveState() {
  uint32_t lo, hi;
  __asm__ volatile("xgetbv" : "=a"(lo), "=d"(hi) : "c"(0));
  return (uint64_t{hi} << 32) | lo;
}

}  // namespace
#endif

uint32_t ProbeCpuFeatures() {
  uint32_t detected = 0;
#if defined(TC_NATIVE_KERNELS)
  unsigned int eax, ebx, ecx, edx;
  if (__get_cpuid(1, &eax, &ebx, &ecx, &edx) && (ecx & bit_SSSE3) != 0) {
    const unsigned int leaf1 = ecx;
    if ((leaf1 & bit_AES) != 0) detected |= kCpuAesNi;
    if ((leaf1 & bit_PCLMUL) != 0) detected |= kCpuPclmul;
    if (__get_cpuid_count(7, 0, &eax, &ebx, &ecx, &edx)) {
      if ((leaf1 & bit_SSE4_1) != 0 && (ebx & bit_SHA) != 0) {
        detected |= kCpuShaNi;
      }
      constexpr unsigned int kAvx512 = bit_AVX512F | bit_AVX512BW |
                                       bit_AVX512VL;
      constexpr unsigned int kVaes = bit_VAES | bit_VPCLMULQDQ;
      if ((detected & (kCpuAesNi | kCpuPclmul)) == (kCpuAesNi | kCpuPclmul) &&
          (leaf1 & bit_OSXSAVE) != 0 && (ebx & kAvx512) == kAvx512 &&
          (ecx & kVaes) == kVaes &&
          (EnabledXsaveState() & kZmmState) == kZmmState) {
        detected |= kCpuVaes;
      }
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
