// Specialized state-vector gate kernels, the SIMD dispatch layer above them,
// and the cache-blocked matrix-apply paths used by the density-matrix engine.
//
// The generic apply_gate_inplace in embed.hpp walks all 2^n basis indices
// with a `base & mask` skip-branch and heap-allocates scatter/scratch
// buffers on every call. Transpiled circuits in this repository are almost
// entirely {CX, U3}, plus diagonal phase branches from noise channels and —
// since k<=4 step fusion — dense 8x8/16x16 blocks accumulated at compile
// time, so the shapes that dominate every trajectory shot and density-matrix
// step are known in advance. The kernels here enumerate only the 2^(n-k)
// cosets directly (branch-free index reconstruction, no allocation) and
// exploit matrix structure:
//
//   OneQDiag      diagonal 2x2 (Z / RZ / P / phase-damping Kraus branches)
//   OneQGeneral   dense 2x2 (U3, amplitude-damping Kraus, ...)
//   TwoQDiag      diagonal 4x4 (CZ, CP, RZZ, ZZ-crosstalk)
//   TwoQPermPhase permutation-phase 4x4 (CX, SWAP, CY): one nonzero per
//                 row/column; the pure-swap case (CX) moves amplitudes with
//                 zero complex multiplies
//   TwoQGeneral   dense 4x4, coset loop ordered so the four amplitude
//                 streams advance sequentially through memory
//   ThreeQDiag /  diagonal 8x8 / 16x16 (fused RZ/CZ/phase chains)
//   FourQDiag
//   ThreeQGeneral dense 8x8 / 16x16 (k=3/4 fused gate blocks): per-coset
//   FourQGeneral  gather -> vectorized mat-vec -> scatter
//   GenericK      anything wider (k > 4) — delegated to the generic path
//
// On top of the shape dispatch sits a one-time runtime ISA dispatch: every
// unit-stride kernel has explicitly vectorized AVX2+FMA and AVX-512 variants
// (x86, selected by CPUID), a NEON variant (aarch64), and the scalar
// reference. A single portable binary picks the widest supported ISA at
// startup; QAPPROX_SIMD=scalar|avx2|avx512|neon overrides the choice (for
// sanitizer runs, pinned-ISA CI baselines, and A/B benchmarking), and
// unsupported requests fall back with a warning. Vector variants reassociate
// the complex arithmetic (fused multiply-add, lane-wise sums), so they agree
// with the scalar path to ~1e-12 rather than bit-for-bit; the scalar path
// itself accumulates in the same order as the generic path (ascending column
// index) and stays bit-identical to apply_gate_inplace. RNG draw order is never affected — the dispatch only
// changes arithmetic inside a kernel application.
//
// Wide states additionally slice the coset loop across the process thread
// pool (common::parallel_for, OpenMP-free) once the span holds at least
// `ApplyOptions::parallel_threshold` amplitudes; slices write disjoint
// amplitudes, so threaded results are bit-identical to serial ones at any
// fixed ISA.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "linalg/matrix.hpp"

namespace qc::linalg {

/// Which specialized kernel serves an operator of a given shape.
enum class KernelKind {
  OneQDiag,
  OneQGeneral,
  TwoQDiag,
  TwoQPermPhase,
  TwoQGeneral,
  ThreeQDiag,
  ThreeQGeneral,
  FourQDiag,
  FourQGeneral,
  GenericK,
};

/// Stable lowercase label ("1q_diag", "cx_perm", ...) for reports.
const char* kernel_kind_name(KernelKind kind);

/// Per-kernel dispatch tallies; recorded per CompiledCircuit and surfaced in
/// RunRecord so benchmarks can report which kernels a run actually hit.
struct KernelCounts {
  std::size_t oneq_diag = 0;
  std::size_t oneq_general = 0;
  std::size_t twoq_diag = 0;
  std::size_t twoq_perm_phase = 0;
  std::size_t twoq_general = 0;
  std::size_t threeq_diag = 0;
  std::size_t threeq_general = 0;
  std::size_t fourq_diag = 0;
  std::size_t fourq_general = 0;
  std::size_t generic = 0;

  void add(KernelKind kind);
  std::size_t total() const {
    return oneq_diag + oneq_general + twoq_diag + twoq_perm_phase +
           twoq_general + threeq_diag + threeq_general + fourq_diag +
           fourq_general + generic;
  }
  bool operator==(const KernelCounts&) const = default;
};

/// Classifies an operator matrix (dimension 2^k, k <= 4) by the kernel that
/// will apply it. Structure tests are exact (== 0.0 / == 1.0):
/// gate-construction literals classify to their specialized kernels;
/// numerically-dense matrices (fused products, synthesis results) classify
/// general.
KernelKind classify_kernel(const Matrix& op);

// ---- runtime SIMD dispatch -------------------------------------------------

/// Instruction sets the kernel layer can dispatch to. Scalar is always
/// available and is the bit-identical reference; the vector ISAs are compiled
/// in behind target guards and selected at runtime, so one binary runs on any
/// host.
enum class SimdIsa { Scalar = 0, Avx2, Avx512, Neon };

/// Stable lowercase label ("scalar", "avx2", "avx512", "neon").
const char* simd_isa_name(SimdIsa isa);

/// True when both the binary carries code for `isa` and the running CPU
/// reports support for it. Scalar is always true.
bool simd_isa_supported(SimdIsa isa);

/// Widest ISA supported by this binary on this CPU.
SimdIsa best_supported_simd_isa();

/// Parses a QAPPROX_SIMD value ("scalar", "avx2", "avx512", "neon",
/// case-sensitive). Sets *ok=false (returning Scalar) on anything else.
SimdIsa parse_simd_isa(const std::string& name, bool* ok);

/// Resolves the ISA the dispatch should use for a given QAPPROX_SIMD value
/// (nullptr / empty -> auto-detect widest). Unknown names and supported-but-
/// unavailable requests log a warning and fall back to auto-detection.
/// Pure function of (env_value, CPU) — exposed so tests can exercise the
/// override logic without mutating the cached active ISA.
SimdIsa resolve_simd_isa(const char* env_value);

/// The ISA every kernel application currently dispatches to. Resolved once
/// from QAPPROX_SIMD + CPUID on first use, then cached (a relaxed atomic
/// read per prepare()).
SimdIsa active_simd_isa();

/// Testing/benchmark hook: overrides the active ISA. Unsupported requests
/// clamp to the widest supported ISA. Returns the ISA actually installed.
SimdIsa force_simd_isa(SimdIsa isa);

/// True when this library was compiled with FMA available (QAPPROX_NATIVE on
/// an FMA machine). FMA contraction may round kernel and generic loops
/// differently even at SimdIsa::Scalar.
bool kernels_compiled_with_fma();

/// True when kernel results are guaranteed bit-identical to the generic
/// apply_gate_inplace path: requires the scalar ISA (vector variants
/// reassociate) and no compile-time FMA contraction. The equivalence tests
/// consult this at runtime to pick exact vs ~1e-12 comparison.
bool kernels_bit_exact();

/// Amplitude-count threshold at which dispatch slices the coset loop across
/// the thread pool. 2^14 amplitudes keeps every <=13-qubit trajectory state
/// serial (per-shot parallelism already covers those) while wide reference
/// states fan out.
inline constexpr std::size_t kKernelParallelThreshold = std::size_t{1} << 14;

struct ApplyOptions {
  /// Spans with at least this many amplitudes run the sliced threaded
  /// variant; smaller spans run serially. Tests pin this low to force the
  /// threaded path on small states.
  std::size_t parallel_threshold = kKernelParallelThreshold;
};

struct Prepared;

/// One ISA variant of a specialized kernel: transforms loop indices [b, e)
/// of a span starting at `data`.
using KernelFn = void (*)(const Prepared&, cplx* data, std::size_t b,
                          std::size_t e);

/// An operator bound to its target qubits on a span of `dim` amplitudes:
/// everything a kernel application needs (kernel class, ISA variant, loop
/// count, coset address offsets, permutation/diagonal structure), extracted
/// once by prepare() so a caller that applies the same operator many times —
/// a trajectory program over thousands of shots, a matrix apply over every
/// row — pays classification, unpacking and bounds checks a single time.
///
/// Borrows rather than copies: `m` points into the operator's row-major
/// entries, and the GenericK fallback keeps pointers to the operator and the
/// qubit list. A Prepared must not outlive either. The ISA variant is the one
/// active at prepare() time.
struct Prepared {
  KernelKind kind = KernelKind::GenericK;
  KernelFn fn = nullptr;         // null for GenericK
  std::size_t dim = 0;           // span size the offsets are valid for
  std::size_t count = 0;         // loop indices fn walks over the span
  int k = 1;                     // number of gate qubits (1..4)
  int q[4] = {0, 0, 0, 0};       // qubit positions in operator order
  std::size_t bit[4] = {};       // 1 << q[i]
  int spos[4] = {0, 0, 0, 0};    // the same positions, sorted ascending
  std::size_t offs[16] = {};     // sub-index -> address offset within a coset
  int lo_pos = 0, hi_pos = 0;    // sorted positions for 2q coset enumeration
  const cplx* m = nullptr;       // borrowed dense entries, row-major
  cplx d[16] = {};               // diagonal entries
  int perm[4] = {0, 1, 2, 3};    // source sub-index per output row (2q perm)
  cplx phase[4] = {};
  bool pure_swap = false;        // one transposition, all phases exactly 1
  int swap_a = 0, swap_b = 0;    // the transposed sub-indices
  const Matrix* op = nullptr;    // GenericK only: the borrowed operator
  const std::vector<int>* qubits = nullptr;  // GenericK only
};

/// Binds `op` on `qubits` to a span of `dim` amplitudes (or matrix rows):
/// validates the span and qubit list, classifies the operator and picks the
/// active ISA's kernel. Operators on k > 4 qubits bind as GenericK and apply
/// through the generic path.
Prepared prepare(const Matrix& op, const std::vector<int>& qubits,
                 std::size_t dim);

/// state := (bound op) * state. `state` must have the bound span size, and
/// that one comparison is the only check: nothing is classified, unpacked or
/// validated again, so a trajectory shot loop applies each prepared step at
/// the bare kernel cost.
void apply_prepared(std::vector<cplx>& state, const Prepared& p,
                    const ApplyOptions& options = {});

/// Dispatch entry point: state := (op on qubits) * state, choosing a
/// specialized kernel by shape and falling back to the generic path for
/// k > 4. Drop-in replacement for apply_gate_inplace; prepare() then
/// apply_prepared().
void apply_operator(std::vector<cplx>& state, const Matrix& op,
                    const std::vector<int>& qubits,
                    const ApplyOptions& options = {});

/// Reduced density matrix of `state` on the bound operator's qubits, in
/// operator order: rho[a * 2^k + b] = sum over cosets of
/// psi[base | offs[a]] * conj(psi[base | offs[b]]), written to the first
/// 4^k entries of `rho`. One pass over the state; Born weights of any Kraus
/// set on those qubits follow as Tr(K†K rho). Requires k <= 4.
void reduced_density_matrix(const std::vector<cplx>& state, const Prepared& p,
                            cplx* rho);

/// CX with no matrix in sight: swaps the target-flipped amplitude pairs in
/// the control=1 half-space. Zero complex multiplies.
void apply_cx(std::vector<cplx>& state, int control, int target,
              const ApplyOptions& options = {});

/// CZ as a pure sign flip on the |11> quarter-space.
void apply_cz(std::vector<cplx>& state, int a, int b,
              const ApplyOptions& options = {});

/// Diagonal 1q gate diag(d0, d1) on `qubit` (Z/RZ/P without building a
/// Matrix).
void apply_diag1(std::vector<cplx>& state, cplx d0, cplx d1, int qubit,
                 const ApplyOptions& options = {});

/// u := embed(op) * u through the specialized kernels. Cache-blocked: the
/// coset (row-group) loop is outermost and each group transforms a tile of
/// columns at a time, so every memory access is unit-stride along the rows
/// of u instead of striding a full column — the layout that kept the
/// density-matrix conjugation memory-bound. Groups are disjoint row sets, so
/// the group loop threads across the pool for large u. Drop-in replacement
/// for left_apply_inplace.
void left_apply(Matrix& u, const Matrix& op, const std::vector<int>& qubits,
                const ApplyOptions& options = {});

/// u := u * embed(op); rows transform by op^T with contiguous access.
/// Drop-in replacement for right_apply_inplace.
void right_apply(Matrix& u, const Matrix& op, const std::vector<int>& qubits,
                 const ApplyOptions& options = {});

/// accum += weight * (term * embed(op)), transforming each row of `term` by
/// op^T in scratch and accumulating it into `accum` while the row is still
/// cache-hot — the fused final pass of a density-matrix Kraus term
/// (K rho K^dagger accumulated into the channel sum without a separate
/// full-matrix sweep). `term` is left unchanged. All three matrices must be
/// square with identical dimensions.
void right_apply_accumulate(Matrix& accum, const Matrix& term, const Matrix& op,
                            const std::vector<int>& qubits, double weight,
                            const ApplyOptions& options = {});

}  // namespace qc::linalg
