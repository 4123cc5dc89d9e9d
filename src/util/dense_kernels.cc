#include "util/dense_kernels.h"

namespace rtr::util {
namespace {

// Portable reference body of the 4-lane contract documented in the header.
// Plain mul + add on purpose: this TU is built without -mfma, so the
// compiler cannot contract the pair and break bit-identity with the AVX2
// body.
double PortableGatherDotF64(const uint32_t* idx, const double* probs,
                            size_t n, const double* x) {
  double lanes[4] = {0.0, 0.0, 0.0, 0.0};
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    lanes[0] += probs[i] * x[idx[i]];
    lanes[1] += probs[i + 1] * x[idx[i + 1]];
    lanes[2] += probs[i + 2] * x[idx[i + 2]];
    lanes[3] += probs[i + 3] * x[idx[i + 3]];
  }
  for (; i < n; ++i) lanes[i & 3] += probs[i] * x[idx[i]];
  return (lanes[0] + lanes[1]) + (lanes[2] + lanes[3]);
}

bool HostHasAvx2() {
#if (defined(__x86_64__) || defined(_M_X64)) && \
    (defined(__GNUC__) || defined(__clang__))
  return __builtin_cpu_supports("avx2");
#else
  return false;
#endif
}

// Resolved once; after that every call is one indirect call.
internal::GatherF64Fn ActiveKernel() {
  static const internal::GatherF64Fn kernel =
      internal::Avx2Kernel() != nullptr ? internal::Avx2Kernel()
                                        : internal::PortableKernel();
  return kernel;
}

}  // namespace

namespace internal {

GatherF64Fn PortableKernel() { return &PortableGatherDotF64; }

GatherF64Fn Avx2Kernel() {
  return HostHasAvx2() ? CompiledAvx2Kernel() : nullptr;
}

}  // namespace internal

double GatherDotF64(const uint32_t* idx, const double* probs, size_t n,
                    const double* x) {
  return ActiveKernel()(idx, probs, n, x);
}

const char* DenseKernelIsa() {
  return ActiveKernel() == internal::PortableKernel() ? "portable" : "avx2";
}

}  // namespace rtr::util
