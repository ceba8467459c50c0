// Float32 compute kernels for the batched inference engine.
//
// Training keeps the double-precision Mat path (ml/tensor.hpp); inference
// runs on contiguous float32 buffers through this kernel table. The table is
// resolved once per process: AVX2+FMA variants when the CPU supports them,
// portable scalar fallbacks otherwise, with a GNNMLS_SIMD=scalar|avx2
// environment override for A/B runs. The selection is recorded in the flight
// recorder (EventKind::kDispatch) and the ml.engine.dispatch.* counters so a
// perf-ledger row always says which code path produced it.
//
// Contract notes:
//   * gemm / gemm_nt take an `accumulate` flag: true is C += A·B (callers
//     pre-fill C with the bias row for a fused bias add), false is C = A·B
//     (overwrite — saves the zero-fill pass and the C read).
//   * All matrices are dense row-major with no padding between rows.
//   * Scalar and AVX2 variants may differ in the last float ulps (different
//     summation order, FMA contraction, polynomial exp in softmax); the
//     engine's parity tests pin the tolerance.
#pragma once

#include <cstddef>

namespace gnnmls::ml {

enum class SimdLevel { kScalar = 0, kAvx2 = 1 };
const char* to_string(SimdLevel level);

struct Kernels {
  // C(m x n) (+)= A(m x k) · B(k x n); accumulate selects += vs overwrite.
  void (*gemm)(int m, int k, int n, const float* a, const float* b, float* c, bool accumulate);
  // C(m x n) (+)= A(m x k) · B(n x k)^T  (B stored row-major as n x k)
  void (*gemm_nt)(int m, int k, int n, const float* a, const float* b, float* c,
                  bool accumulate);
  // In-place row-wise softmax over an m x n matrix.
  void (*softmax_rows)(int m, int n, float* x);
  // In-place elementwise max(0, x).
  void (*relu)(std::size_t count, float* x);
  // Fused x = max(0, x + bias) per row (bias is n wide): the FFN/head
  // activation without a separate bias-fill pass over the buffer.
  void (*bias_relu_rows)(int m, int n, const float* bias, float* x);
  // In-place tanh-approximation GELU (reserved for future heads; the current
  // model is ReLU but the engine exposes both activations).
  void (*gelu)(std::size_t count, float* x);
  // Row-wise layer norm: y = (x - mean) / sqrt(var + eps) * gamma + beta.
  // In-place safe (y may alias x).
  void (*layernorm_rows)(int m, int n, const float* x, const float* gamma, const float* beta,
                         float eps, float* y);
  // Fused single-graph multi-head attention over strided head slices. For
  // each head h with slice offset h*(d/heads) into the n-row matrices
  // q/k/v (row stride qkv_stride — d columns of a packed q|k|v buffer) and
  // out (row stride out_stride):
  //   S = softmax(scale * Qh·Khᵀ + edge_bias[h] · adj);  Out_h = S · Vh
  // adj is n rows of `adj_stride` floats; scores_ws is a caller-provided
  // n x n workspace. Only the head slices of out's first n rows are written.
  void (*attention)(int n, int d, int heads, const float* q, const float* kmat, const float* v,
                    int qkv_stride, const float* adj, int adj_stride, const float* edge_bias,
                    float scale, float* scores_ws, float* out, int out_stride);
};

// The process-wide kernel table / active level (resolved on first use).
const Kernels& kernels();
SimdLevel active_simd();

// Kernel tables for a specific level, independent of dispatch — the parity
// tests compare these directly.
const Kernels& kernels_for(SimdLevel level);

// True when this CPU can run the AVX2 variants.
bool cpu_has_avx2();

// Test/bench hook: force the active level in-process (clamped to what the
// CPU supports) and re-record the dispatch event. Returns the previous
// level. Not safe concurrently with running forwards.
SimdLevel set_simd_for_test(SimdLevel level);

}  // namespace gnnmls::ml
