// AVX2 variant: compiled with -mavx2 (see src/common/CMakeLists.txt), so
// the auto-vectorized loops and the register tiles widen to 256 bits.
#define ECG_KERN_NS kern_avx2
#define ECG_KERN_VARIANT_NAME "avx2"
#define ECG_KERN_GETTER GetKernels_avx2
#define ECG_KERN_ALLOW_SIMD 1
#include "common/kernels_impl.inc"
