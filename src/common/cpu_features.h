#ifndef ECGRAPH_COMMON_CPU_FEATURES_H_
#define ECGRAPH_COMMON_CPU_FEATURES_H_

namespace ecg::kern {

/// SIMD capabilities of the host CPU, probed once at runtime. On x86 the
/// probe goes through the compiler's CPUID helpers; on AArch64 through the
/// ELF HWCAP auxiliary vector. Everything else reports scalar-only.
struct CpuFeatures {
  bool avx2 = false;
  /// True only when the F+BW+VL subset the AVX-512 variant is compiled
  /// for is present (Skylake-SP and later).
  bool avx512 = false;
  bool neon = false;
};

/// Detects (and caches) the host's features. Thread-safe.
const CpuFeatures& DetectCpuFeatures();

}  // namespace ecg::kern

#endif  // ECGRAPH_COMMON_CPU_FEATURES_H_
