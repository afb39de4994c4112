#include "common/kernels.h"

#include <atomic>
#include <cstdlib>

#include "common/cpu_features.h"
#include "common/logging.h"
#include "common/metrics.h"

namespace ecg::kern {

// Variant accessors, one per TU compiled in (CMake defines the ECG_KERN_HAVE_*
// macros to match the source list it assembled for this arch).
const Kernels* GetKernels_scalar();
#if defined(ECG_KERN_HAVE_AVX2)
const Kernels* GetKernels_avx2();
#endif
#if defined(ECG_KERN_HAVE_AVX512)
const Kernels* GetKernels_avx512();
#endif
#if defined(ECG_KERN_HAVE_NEON)
const Kernels* GetKernels_neon();
#endif

namespace {

/// The forced table (tests / --kernels= / ECG_KERNELS), or null for auto.
std::atomic<const Kernels*> g_forced{nullptr};

const Kernels* SelectAuto() {
  const CpuFeatures& cpu = DetectCpuFeatures();
#if defined(ECG_KERN_HAVE_AVX512)
  if (cpu.avx512) return GetKernels_avx512();
#endif
#if defined(ECG_KERN_HAVE_AVX2)
  if (cpu.avx2) return GetKernels_avx2();
#endif
#if defined(ECG_KERN_HAVE_NEON)
  if (cpu.neon) return GetKernels_neon();
#endif
  return GetKernels_scalar();
}

const Kernels* Lookup(const std::string& name) {
  const CpuFeatures& cpu = DetectCpuFeatures();
  if (name == "scalar") return GetKernels_scalar();
#if defined(ECG_KERN_HAVE_AVX2)
  if (name == "avx2" && cpu.avx2) return GetKernels_avx2();
#endif
#if defined(ECG_KERN_HAVE_AVX512)
  if (name == "avx512" && cpu.avx512) return GetKernels_avx512();
#endif
#if defined(ECG_KERN_HAVE_NEON)
  if (name == "neon" && cpu.neon) return GetKernels_neon();
#endif
  return nullptr;
}

/// Resolves the ECG_KERNELS environment override once, at first dispatch.
const Kernels* ResolveInitial() {
  if (const char* env = std::getenv("ECG_KERNELS")) {
    const std::string name(env);
    if (!name.empty() && name != "auto") {
      if (const Kernels* k = Lookup(name)) return k;
      ECG_LOG(Warning) << "ECG_KERNELS='" << name
                       << "' is unknown or unsupported on this CPU; using "
                          "auto dispatch (scalar|avx2|avx512|neon|auto)";
    }
  }
  return SelectAuto();
}

/// One gauge sample per dispatch decision. Selection happens once (or on an
/// explicit ForceVariant), so this never touches the per-call hot path.
void PublishDispatch(const Kernels* k) {
  if (k == nullptr || !obs::MetricsEnabled()) return;
  obs::MetricsRegistry::Global()
      .GetCounter("ecg_kern_dispatch_total",
                  "SIMD kernel table selections, by chosen variant.",
                  {{"kernel_variant", k->name}})
      ->Inc();
}

}  // namespace

const Kernels& Active() {
  if (const Kernels* forced = g_forced.load(std::memory_order_acquire)) {
    return *forced;
  }
  static const Kernels* initial = [] {
    const Kernels* k = ResolveInitial();
    PublishDispatch(k);
    return k;
  }();
  return *initial;
}

const char* ActiveName() { return Active().name; }

const float* BuildUnpackLut(int bits, const float* table,
                            std::vector<float>* storage) {
  if (bits > 4) return table;
  const size_t per_byte = 8 / static_cast<size_t>(bits);
  const uint32_t mask = (1u << bits) - 1;
  storage->resize(256 * per_byte);
  for (uint32_t byte = 0; byte < 256; ++byte) {
    for (size_t j = 0; j < per_byte; ++j) {
      (*storage)[byte * per_byte + j] = table[(byte >> (j * bits)) & mask];
    }
  }
  return storage->data();
}

std::vector<const Kernels*> AvailableVariants() {
  const CpuFeatures& cpu = DetectCpuFeatures();
  std::vector<const Kernels*> out;
#if defined(ECG_KERN_HAVE_AVX512)
  if (cpu.avx512) out.push_back(GetKernels_avx512());
#endif
#if defined(ECG_KERN_HAVE_AVX2)
  if (cpu.avx2) out.push_back(GetKernels_avx2());
#endif
#if defined(ECG_KERN_HAVE_NEON)
  if (cpu.neon) out.push_back(GetKernels_neon());
#endif
  out.push_back(GetKernels_scalar());
  return out;
}

bool ForceVariant(const std::string& name) {
  if (name.empty() || name == "auto") {
    g_forced.store(nullptr, std::memory_order_release);
    return true;
  }
  const Kernels* k = Lookup(name);
  if (k == nullptr) return false;
  g_forced.store(k, std::memory_order_release);
  PublishDispatch(k);
  return true;
}

}  // namespace ecg::kern
