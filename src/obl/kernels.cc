#include "src/obl/kernels.h"

namespace snoopy {

std::vector<KernelBackend> SupportedKernelBackends() {
  std::vector<KernelBackend> backends{KernelBackend::kGeneric};
  for (const KernelBackend b : {KernelBackend::kAVX2, KernelBackend::kAVX512}) {
    if (KernelBackendSupported(b)) {
      backends.push_back(b);
    }
  }
  return backends;
}

}  // namespace snoopy
