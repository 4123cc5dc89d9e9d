#ifndef RTR_UTIL_DENSE_KERNELS_H_
#define RTR_UTIL_DENSE_KERNELS_H_

#include <cstddef>
#include <cstdint>

// Vectorized gather-multiply-accumulate primitive for the dense pull
// kernels (ranking::FRankInto / TRankInto and the power-iteration steps in
// core/round_trip_rank.cc). One CSR row's contribution is
//
//   sum_i probs[i] * x[idx[i]]       for i in [0, n)
//
// — a bandwidth-bound gather-dot. Two bodies exist: a portable scalar one
// and an AVX2 one (vpgatherdpd + mul + add). GatherDotF64 picks one once,
// at first use, by CPU detection and by nothing else.
//
// Bit-identity contract: both bodies use the SAME fixed 4-lane
// summation — the main loop accumulates products into four independent lane
// accumulators (lane j takes the products at indices i+j), the scalar tail
// adds element i into lane i&3, and the final combine is
// (l0 + l1) + (l2 + l3). Neither body may use FMA (the AVX2 translation
// unit is compiled with -mavx2 only, never -mfma, so the compiler cannot
// contract the mul+add either). Under IEEE-754 the portable and AVX2 bodies
// therefore return bit-identical doubles, so every rank is the same on
// every host.
//
// Indices are u32 and gathered with signed-32 addressing on AVX2: callers
// guarantee idx[i] < 2^31, which Graph enforces a fortiori (node counts are
// far below kInvalidNode).

namespace rtr::util {

// sum over i<n of probs[i] * x[idx[i]], fixed 4-lane association.
double GatherDotF64(const uint32_t* idx, const double* probs, size_t n,
                    const double* x);

// "avx2" or "portable": the body GatherDotF64 dispatches to.
const char* DenseKernelIsa();

// Read-prefetch hint with low temporal locality; no-op where unsupported.
// Used by the Stage-II compaction pass to hide the adjacency-column latency
// of the next few nodes.
inline void PrefetchRead(const void* p) {
#if defined(__GNUC__) || defined(__clang__)
  __builtin_prefetch(p, /*rw=*/0, /*locality=*/1);
#else
  (void)p;
#endif
}

namespace internal {

using GatherF64Fn = double (*)(const uint32_t*, const double*, size_t,
                               const double*);

// The two bodies of GatherDotF64, for tests and microbenchmarks that run
// them side by side. PortableKernel() is always available; Avx2Kernel() is
// null unless AVX2 code was compiled in and this CPU supports it.
GatherF64Fn PortableKernel();
GatherF64Fn Avx2Kernel();

// Defined in dense_kernels_avx2.cc (the only TU compiled with -mavx2);
// returns null when AVX2 code was not compiled in. Not gated on the CPU:
// call Avx2Kernel() instead.
GatherF64Fn CompiledAvx2Kernel();

}  // namespace internal
}  // namespace rtr::util

#endif  // RTR_UTIL_DENSE_KERNELS_H_
