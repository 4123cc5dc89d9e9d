// AVX2 body for util/dense_kernels.h. This is the ONE translation unit
// compiled with -mavx2 (see CMakeLists.txt) — and deliberately NOT -mfma:
// the bit-identity contract requires separate mul + add, and without -mfma
// the compiler cannot contract them into vfmadd either. On non-x86 builds
// the file compiles to a null accessor and dispatch stays portable.

#include "util/dense_kernels.h"

#if defined(__AVX2__)

#include <immintrin.h>

namespace rtr::util::internal {
namespace {

// Lane j of the accumulator takes the products at indices i+j — the exact
// association of the portable 4-lane loop. vpgatherdpd consumes SIGNED
// 32-bit indices; the header's contract (idx[i] < 2^31) makes the
// reinterpretation safe.
double GatherDotF64Avx2(const uint32_t* idx, const double* probs, size_t n,
                        const double* x) {
  __m256d acc = _mm256_setzero_pd();
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m128i vi =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(idx + i));
    const __m256d vx = _mm256_i32gather_pd(x, vi, sizeof(double));
    const __m256d vp = _mm256_loadu_pd(probs + i);
    acc = _mm256_add_pd(acc, _mm256_mul_pd(vp, vx));
  }
  alignas(32) double lanes[4];
  _mm256_store_pd(lanes, acc);
  for (; i < n; ++i) lanes[i & 3] += probs[i] * x[idx[i]];
  return (lanes[0] + lanes[1]) + (lanes[2] + lanes[3]);
}

}  // namespace

GatherF64Fn CompiledAvx2Kernel() { return &GatherDotF64Avx2; }

}  // namespace rtr::util::internal

#else  // !defined(__AVX2__)

namespace rtr::util::internal {

GatherF64Fn CompiledAvx2Kernel() { return nullptr; }

}  // namespace rtr::util::internal

#endif  // defined(__AVX2__)
