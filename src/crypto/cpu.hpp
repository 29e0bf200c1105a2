// Which crypto kernels run: one CPU feature table, filled by one CPUID probe
// on first use. The AES-NI, PCLMULQDQ and SHA-NI kernels run where their bit
// is set, the portable code (same bytes) where it is not.
#pragma once

#include <atomic>
#include <cstdint>

// Where the native kernels compile. Each carries its own target attribute,
// so no translation unit needs an ISA flag; elsewhere the table stays empty.
#if (defined(__x86_64__) || defined(__i386__)) && defined(__GNUC__)
#define TC_NATIVE_KERNELS 1
#endif

namespace tc::crypto {

/// Each bit is set only where the SSE levels its kernels also use are too.
enum CpuFeature : uint32_t {
  kCpuAesNi = 1u << 0,   // AES-NI and SSSE3: the GGM step, field keys, GCM
  kCpuPclmul = 1u << 1,  // PCLMULQDQ and SSSE3: GCM's GHASH
  kCpuShaNi = 1u << 2,   // SHA-NI, SSSE3 and SSE4.1: SHA-256, chain kernels
};
inline constexpr uint32_t kCpuAllFeatures = kCpuAesNi | kCpuPclmul | kCpuShaNi;

namespace internal {

/// The table: the detected features less any mask, or kCpuUnprobed.
inline constexpr uint32_t kCpuUnprobed = 1u << 31;
inline std::atomic<uint32_t> cpu_features{kCpuUnprobed};

/// Runs CPUID (a VM exit under virtualization) once and fills the table.
uint32_t ProbeCpuFeatures();

/// Test seam: clears `cleared` from the table for the life of the scope, so
/// the portable code runs instead of those kernels. It never sets a bit;
/// the table it found comes back when the scope ends, and scopes nest. The
/// table is process-wide, so every thread sees the mask. AES-GCM, SHA-256
/// (HMAC, HKDF and the chain kernels with it) and HEAC's field keys read
/// the table on each call; MakePrg reads it at construction, so a PRG (or
/// GGM tree) made before the scope keeps its kernel.
class ScopedCpuFeatureMask {
 public:
  explicit ScopedCpuFeatureMask(uint32_t cleared);
  ~ScopedCpuFeatureMask();
  ScopedCpuFeatureMask(const ScopedCpuFeatureMask&) = delete;
  ScopedCpuFeatureMask& operator=(const ScopedCpuFeatureMask&) = delete;

 private:
  uint32_t saved_;
};

}  // namespace internal

/// The features the native kernels may use: one relaxed load.
inline uint32_t CpuFeatures() {
  const uint32_t f = internal::cpu_features.load(std::memory_order_relaxed);
  return f != internal::kCpuUnprobed ? f : internal::ProbeCpuFeatures();
}

inline bool CpuHas(uint32_t features) {
  return (CpuFeatures() & features) == features;
}

}  // namespace tc::crypto
