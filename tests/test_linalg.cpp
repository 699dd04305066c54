// Unit + property tests for qc::linalg — matrices, embedding kernels, expm.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <complex>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "linalg/embed.hpp"
#include "linalg/expm.hpp"
#include "linalg/factories.hpp"
#include "linalg/kernels.hpp"
#include "linalg/matrix.hpp"

namespace qc::linalg {
namespace {

constexpr double kTol = 1e-10;

TEST(Matrix, IdentityAndTrace) {
  const Matrix eye = Matrix::identity(4);
  EXPECT_EQ(eye.trace(), (cplx{4.0, 0.0}));
  EXPECT_TRUE(eye.is_unitary());
  EXPECT_TRUE(eye.is_hermitian());
}

TEST(Matrix, ArithmeticRoundTrip) {
  Matrix a(2, 2, {{1, 0}, {2, 0}, {3, 0}, {4, 0}});
  Matrix b = a * cplx{2.0, 0.0};
  Matrix c = b - a;
  EXPECT_NEAR(c.max_abs_diff(a), 0.0, kTol);
  EXPECT_NEAR((a + a).max_abs_diff(b), 0.0, kTol);
}

TEST(Matrix, GemmMatchesHandComputation) {
  Matrix a(2, 3, {{1, 0}, {2, 0}, {3, 0}, {4, 0}, {5, 0}, {6, 0}});
  Matrix b(3, 2, {{7, 0}, {8, 0}, {9, 0}, {10, 0}, {11, 0}, {12, 0}});
  Matrix c = a * b;
  EXPECT_NEAR(c(0, 0).real(), 58.0, kTol);
  EXPECT_NEAR(c(0, 1).real(), 64.0, kTol);
  EXPECT_NEAR(c(1, 0).real(), 139.0, kTol);
  EXPECT_NEAR(c(1, 1).real(), 154.0, kTol);
}

TEST(Matrix, GemmDimensionMismatchThrows) {
  Matrix a(2, 3), b(2, 2);
  EXPECT_THROW(a * b, common::Error);
}

TEST(Matrix, AdjointConjugatesAndTransposes) {
  Matrix a(2, 2, {{1, 2}, {3, 4}, {5, 6}, {7, 8}});
  Matrix ad = a.adjoint();
  EXPECT_EQ(ad(0, 1), (cplx{5, -6}));
  EXPECT_EQ(ad(1, 0), (cplx{3, -4}));
}

TEST(Matrix, ApplyMatchesGemm) {
  common::Rng rng(5);
  const Matrix u = random_unitary(8, rng);
  std::vector<cplx> x(8);
  for (auto& v : x) v = cplx{rng.normal(), rng.normal()};
  const auto y = u.apply(x);
  for (std::size_t r = 0; r < 8; ++r) {
    cplx expect{0, 0};
    for (std::size_t c = 0; c < 8; ++c) expect += u(r, c) * x[c];
    EXPECT_NEAR(std::abs(y[r] - expect), 0.0, 1e-9);
  }
}

TEST(Paulis, AlgebraRelations) {
  const Matrix x = pauli_x(), y = pauli_y(), z = pauli_z();
  EXPECT_NEAR((x * x).max_abs_diff(Matrix::identity(2)), 0.0, kTol);
  EXPECT_NEAR((y * y).max_abs_diff(Matrix::identity(2)), 0.0, kTol);
  EXPECT_NEAR((z * z).max_abs_diff(Matrix::identity(2)), 0.0, kTol);
  // XY = iZ
  EXPECT_NEAR((x * y).max_abs_diff(z * cplx{0.0, 1.0}), 0.0, kTol);
}

TEST(Paulis, StringBuildsKron) {
  const Matrix zx = pauli_string("ZX");
  EXPECT_NEAR(zx.max_abs_diff(kron(pauli_z(), pauli_x())), 0.0, kTol);
  EXPECT_THROW(pauli_string("Q"), common::Error);
}

TEST(Kron, DimensionsAndValues) {
  const Matrix a(2, 2, {{1, 0}, {2, 0}, {3, 0}, {4, 0}});
  const Matrix k = kron(a, Matrix::identity(2));
  EXPECT_EQ(k.rows(), 4u);
  EXPECT_EQ(k(0, 0), (cplx{1, 0}));
  EXPECT_EQ(k(1, 1), (cplx{1, 0}));
  EXPECT_EQ(k(2, 0), (cplx{3, 0}));
}

TEST(RandomUnitary, IsUnitaryAcrossDims) {
  common::Rng rng(21);
  for (std::size_t dim : {2u, 4u, 8u, 16u}) {
    const Matrix u = random_unitary(dim, rng);
    EXPECT_TRUE(u.is_unitary(1e-9)) << "dim " << dim;
  }
}

TEST(RandomHermitian, IsHermitian) {
  common::Rng rng(22);
  EXPECT_TRUE(random_hermitian(8, rng).is_hermitian(1e-12));
}

// ---- embed ---------------------------------------------------------------

TEST(Embed, SingleQubitMatchesKron) {
  // X on qubit 0 of 2 qubits = I (x) X in the |q1 q0> kron ordering.
  const Matrix e = embed(pauli_x(), {0}, 2);
  EXPECT_NEAR(e.max_abs_diff(kron(pauli_i(), pauli_x())), 0.0, kTol);
  const Matrix e1 = embed(pauli_x(), {1}, 2);
  EXPECT_NEAR(e1.max_abs_diff(kron(pauli_x(), pauli_i())), 0.0, kTol);
}

TEST(Embed, TwoQubitOrderingMatters) {
  common::Rng rng(31);
  const Matrix op = random_unitary(4, rng);
  const Matrix e01 = embed(op, {0, 1}, 3);
  const Matrix e10 = embed(op, {1, 0}, 3);
  // Swapping operand order conjugates by SWAP; generically different.
  EXPECT_GT(e01.max_abs_diff(e10), 1e-3);
}

TEST(Embed, RejectsBadArguments) {
  EXPECT_THROW(embed(pauli_x(), {0, 1}, 2), common::Error);   // dim mismatch
  EXPECT_THROW(embed(pauli_x(), {3}, 2), common::Error);      // out of range
  EXPECT_THROW(embed(Matrix::identity(4), {1, 1}, 3), common::Error);  // dup
}

TEST(Embed, ApplyGateMatchesEmbeddedMatrix) {
  common::Rng rng(33);
  for (int trial = 0; trial < 6; ++trial) {
    const Matrix op = random_unitary(4, rng);
    const std::vector<int> qubits = {static_cast<int>(rng.uniform_int(3)),
                                     3};  // distinct (0..2, 3)
    std::vector<cplx> state(16);
    for (auto& v : state) v = cplx{rng.normal(), rng.normal()};
    auto expect = embed(op, qubits, 4).apply(state);
    apply_gate_inplace(state, op, qubits);
    for (std::size_t i = 0; i < state.size(); ++i)
      ASSERT_NEAR(std::abs(state[i] - expect[i]), 0.0, 1e-9);
  }
}

TEST(Embed, LeftApplyMatchesGemm) {
  common::Rng rng(34);
  const Matrix op = random_unitary(2, rng);
  Matrix u = random_unitary(8, rng);
  const Matrix expect = embed(op, {1}, 3) * u;
  left_apply_inplace(u, op, {1});
  EXPECT_NEAR(u.max_abs_diff(expect), 0.0, 1e-9);
}

TEST(Embed, RightApplyMatchesGemm) {
  common::Rng rng(35);
  const Matrix op = random_unitary(4, rng);
  Matrix u = random_unitary(8, rng);
  const Matrix expect = u * embed(op, {0, 2}, 3);
  right_apply_inplace(u, op, {0, 2});
  EXPECT_NEAR(u.max_abs_diff(expect), 0.0, 1e-9);
}

// ---- expm / solve ----------------------------------------------------------

TEST(Solve, RecoversKnownSolution) {
  common::Rng rng(41);
  const Matrix a = random_unitary(6, rng);
  const Matrix x_true = random_unitary(6, rng);
  const Matrix b = a * x_true;
  const Matrix x = solve(a, b);
  EXPECT_NEAR(x.max_abs_diff(x_true), 0.0, 1e-9);
}

TEST(Solve, SingularThrows) {
  Matrix a(2, 2);  // zero matrix
  EXPECT_THROW(solve(a, Matrix::identity(2)), common::Error);
}

TEST(Expm, ZeroGivesIdentity) {
  EXPECT_NEAR(expm(Matrix(4, 4)).max_abs_diff(Matrix::identity(4)), 0.0, 1e-12);
}

TEST(Expm, DiagonalCase) {
  Matrix d(2, 2);
  d(0, 0) = cplx{1.0, 0.0};
  d(1, 1) = cplx{0.0, 2.0};
  const Matrix e = expm(d);
  EXPECT_NEAR(std::abs(e(0, 0) - std::exp(cplx{1.0, 0.0})), 0.0, 1e-10);
  EXPECT_NEAR(std::abs(e(1, 1) - std::exp(cplx{0.0, 2.0})), 0.0, 1e-10);
  EXPECT_NEAR(std::abs(e(0, 1)), 0.0, 1e-12);
}

TEST(Expm, PauliRotationClosedForm) {
  // exp(-i t X) = cos t I - i sin t X.
  const double t = 0.7;
  const Matrix e = expm(pauli_x() * cplx{0.0, -t});
  Matrix expect = Matrix::identity(2) * cplx{std::cos(t), 0.0};
  expect += pauli_x() * cplx{0.0, -std::sin(t)};
  EXPECT_NEAR(e.max_abs_diff(expect), 0.0, 1e-12);
}

TEST(Expm, LargeNormUsesScaling) {
  // Norm far above the Pade threshold exercises squaring.
  const double t = 40.0;
  const Matrix e = expm(pauli_y() * cplx{0.0, -t});
  Matrix expect = Matrix::identity(2) * cplx{std::cos(t), 0.0};
  expect += pauli_y() * cplx{0.0, -std::sin(t)};
  EXPECT_NEAR(e.max_abs_diff(expect), 0.0, 1e-9);
}

TEST(Expm, HermitianPropagatorIsUnitary) {
  common::Rng rng(51);
  const Matrix h = random_hermitian(8, rng);
  const Matrix u = expm_hermitian_propagator(h, 0.37);
  EXPECT_TRUE(u.is_unitary(1e-9));
}

TEST(Expm, PropagatorComposes) {
  common::Rng rng(52);
  const Matrix h = random_hermitian(4, rng);
  const Matrix u1 = expm_hermitian_propagator(h, 0.2);
  const Matrix u2 = expm_hermitian_propagator(h, 0.3);
  const Matrix u3 = expm_hermitian_propagator(h, 0.5);
  EXPECT_NEAR((u2 * u1).max_abs_diff(u3), 0.0, 1e-9);
}

TEST(Expm, RejectsNonHermitianPropagator) {
  Matrix m(2, 2, {{0, 0}, {1, 0}, {0, 0}, {0, 0}});
  EXPECT_THROW(expm_hermitian_propagator(m, 1.0), common::Error);
}

TEST(VectorOps, InnerAndNorm) {
  std::vector<cplx> x = {{1, 0}, {0, 1}};
  std::vector<cplx> y = {{0, 1}, {1, 0}};
  EXPECT_NEAR(norm(x), std::sqrt(2.0), kTol);
  // <x|y> = conj(1)*i + conj(i)*1 = i - i = 0.
  EXPECT_NEAR(std::abs(inner(x, y)), 0.0, kTol);
}

// ---- specialized kernels ---------------------------------------------------

namespace kernel_test {

std::vector<cplx> random_state(int n, common::Rng& rng) {
  std::vector<cplx> state(std::size_t{1} << n);
  for (auto& v : state) v = cplx{rng.normal(), rng.normal()};
  return state;
}

Matrix random_diagonal(std::size_t dim, common::Rng& rng) {
  Matrix m(dim, dim);
  for (std::size_t i = 0; i < dim; ++i)
    m(i, i) = cplx{rng.normal(), rng.normal()};
  return m;
}

/// Random 4x4 permutation-phase matrix (one nonzero phase per row/column),
/// the CX/SWAP/CY shape.
Matrix random_perm_phase(common::Rng& rng) {
  std::vector<std::size_t> perm = {0, 1, 2, 3};
  for (std::size_t i = 3; i > 0; --i)
    std::swap(perm[i], perm[rng.uniform_int(i + 1)]);
  Matrix m(4, 4);
  for (std::size_t c = 0; c < 4; ++c)
    m(perm[c], c) = std::polar(1.0, rng.uniform() * 6.28318);
  return m;
}

std::vector<int> distinct_qubits(int n, int k, common::Rng& rng) {
  std::vector<int> qs;
  while (static_cast<int>(qs.size()) < k) {
    const int q = static_cast<int>(rng.uniform_int(static_cast<std::size_t>(n)));
    if (std::find(qs.begin(), qs.end(), q) == qs.end()) qs.push_back(q);
  }
  return qs;
}

/// Applies `op` via the dispatch layer and via the generic path and requires
/// the results to agree bit-for-bit when the active configuration guarantees
/// it (scalar ISA, no compile-time FMA contraction — kernels_bit_exact()).
/// Vector ISAs and FMA builds (QAPPROX_NATIVE) reassociate, so there the
/// check relaxes to the 1e-12 bound. Threaded slices write disjoint
/// amplitudes at aligned boundaries, so threading never loosens the check.
void expect_matches_generic(const std::vector<cplx>& state, const Matrix& op,
                            const std::vector<int>& qubits,
                            const ApplyOptions& options) {
  std::vector<cplx> generic = state;
  apply_gate_inplace(generic, op, qubits);
  std::vector<cplx> fast = state;
  apply_operator(fast, op, qubits, options);
  const bool bit_identical = kernels_bit_exact();
  for (std::size_t i = 0; i < state.size(); ++i) {
    ASSERT_NEAR(std::abs(fast[i] - generic[i]), 0.0, 1e-12);
    if (bit_identical) {
      ASSERT_EQ(fast[i], generic[i]);
    }
  }
}

}  // namespace kernel_test

TEST(Kernels, ClassifyRecognizesEveryShape) {
  common::Rng rng(61);
  EXPECT_EQ(classify_kernel(kernel_test::random_diagonal(2, rng)),
            KernelKind::OneQDiag);
  EXPECT_EQ(classify_kernel(random_unitary(2, rng)), KernelKind::OneQGeneral);
  EXPECT_EQ(classify_kernel(kernel_test::random_diagonal(4, rng)),
            KernelKind::TwoQDiag);
  // A diagonal matrix is also permutation-phase; diagonal must win.
  Matrix cx(4, 4);
  cx(0, 0) = cx(2, 2) = cx(3, 1) = cx(1, 3) = cplx{1.0, 0.0};
  EXPECT_EQ(classify_kernel(cx), KernelKind::TwoQPermPhase);
  EXPECT_EQ(classify_kernel(random_unitary(4, rng)), KernelKind::TwoQGeneral);
  EXPECT_EQ(classify_kernel(kernel_test::random_diagonal(8, rng)),
            KernelKind::ThreeQDiag);
  EXPECT_EQ(classify_kernel(random_unitary(8, rng)),
            KernelKind::ThreeQGeneral);
  EXPECT_EQ(classify_kernel(kernel_test::random_diagonal(16, rng)),
            KernelKind::FourQDiag);
  EXPECT_EQ(classify_kernel(random_unitary(16, rng)),
            KernelKind::FourQGeneral);
  EXPECT_EQ(classify_kernel(random_unitary(32, rng)), KernelKind::GenericK);

  KernelCounts counts;
  counts.add(KernelKind::OneQDiag);
  counts.add(KernelKind::TwoQPermPhase);
  counts.add(KernelKind::TwoQPermPhase);
  counts.add(KernelKind::ThreeQGeneral);
  counts.add(KernelKind::FourQDiag);
  EXPECT_EQ(counts.oneq_diag, 1u);
  EXPECT_EQ(counts.twoq_perm_phase, 2u);
  EXPECT_EQ(counts.threeq_general, 1u);
  EXPECT_EQ(counts.fourq_diag, 1u);
  EXPECT_EQ(counts.total(), 5u);
}

TEST(Kernels, RandomizedEquivalenceAcrossWidthsAndShapes) {
  common::Rng rng(62);
  // parallel_threshold = 2 forces the sliced threaded dispatch on even the
  // smallest states; the default keeps them serial.
  const ApplyOptions serial{};
  const ApplyOptions threaded{2};
  for (int n = 1; n <= 8; ++n) {
    for (int trial = 0; trial < 4; ++trial) {
      const auto state = kernel_test::random_state(n, rng);
      for (const ApplyOptions& opts : {serial, threaded}) {
        const auto q1 = kernel_test::distinct_qubits(n, 1, rng);
        kernel_test::expect_matches_generic(state,
                                            kernel_test::random_diagonal(2, rng),
                                            q1, opts);
        kernel_test::expect_matches_generic(state, random_unitary(2, rng), q1,
                                            opts);
        if (n < 2) continue;
        const auto q2 = kernel_test::distinct_qubits(n, 2, rng);
        kernel_test::expect_matches_generic(state,
                                            kernel_test::random_diagonal(4, rng),
                                            q2, opts);
        kernel_test::expect_matches_generic(state,
                                            kernel_test::random_perm_phase(rng),
                                            q2, opts);
        kernel_test::expect_matches_generic(state, random_unitary(4, rng), q2,
                                            opts);
        if (n < 3) continue;
        // k = 3/4 hit the fused-block kernels (gather -> mat-vec -> scatter).
        kernel_test::expect_matches_generic(state,
                                            kernel_test::random_diagonal(8, rng),
                                            kernel_test::distinct_qubits(n, 3, rng),
                                            opts);
        kernel_test::expect_matches_generic(state, random_unitary(8, rng),
                                            kernel_test::distinct_qubits(n, 3, rng),
                                            opts);
        if (n < 4) continue;
        kernel_test::expect_matches_generic(state,
                                            kernel_test::random_diagonal(16, rng),
                                            kernel_test::distinct_qubits(n, 4, rng),
                                            opts);
        kernel_test::expect_matches_generic(state, random_unitary(16, rng),
                                            kernel_test::distinct_qubits(n, 4, rng),
                                            opts);
        if (n < 5) continue;
        // k = 5 exercises the GenericK fallback through the same entry point.
        kernel_test::expect_matches_generic(state, random_unitary(32, rng),
                                            kernel_test::distinct_qubits(n, 5, rng),
                                            opts);
      }
    }
  }
}

TEST(Kernels, MatrixFreeGatesMatchTheirMatrices) {
  common::Rng rng(63);
  Matrix cx(4, 4);  // control = sub-bit 0: swaps |01> and |11>
  cx(0, 0) = cx(2, 2) = cx(3, 1) = cx(1, 3) = cplx{1.0, 0.0};
  Matrix cz(4, 4);
  cz(0, 0) = cz(1, 1) = cz(2, 2) = cplx{1.0, 0.0};
  cz(3, 3) = cplx{-1.0, 0.0};
  for (int n = 2; n <= 6; ++n) {
    for (int trial = 0; trial < 4; ++trial) {
      const auto state = kernel_test::random_state(n, rng);
      const auto qs = kernel_test::distinct_qubits(n, 2, rng);

      std::vector<cplx> expect = state;
      apply_gate_inplace(expect, cx, qs);
      std::vector<cplx> got = state;
      apply_cx(got, qs[0], qs[1]);
      for (std::size_t i = 0; i < got.size(); ++i) ASSERT_EQ(got[i], expect[i]);

      expect = state;
      apply_gate_inplace(expect, cz, qs);
      got = state;
      apply_cz(got, qs[0], qs[1]);
      for (std::size_t i = 0; i < got.size(); ++i) ASSERT_EQ(got[i], expect[i]);

      const Matrix d = kernel_test::random_diagonal(2, rng);
      expect = state;
      apply_gate_inplace(expect, d, {qs[0]});
      got = state;
      apply_diag1(got, d(0, 0), d(1, 1), qs[0]);
      for (std::size_t i = 0; i < got.size(); ++i) {
        if (kernels_bit_exact()) {
          ASSERT_EQ(got[i], expect[i]);
        } else {  // vector ISA / FMA contraction may round differently
          ASSERT_NEAR(std::abs(got[i] - expect[i]), 0.0, 1e-12);
        }
      }
    }
  }
}

TEST(Kernels, LeftRightApplyMatchGenericAndGemm) {
  common::Rng rng(64);
  const ApplyOptions serial{};
  const ApplyOptions threaded{2};
  for (int n = 2; n <= 5; ++n) {
    const std::size_t dim = std::size_t{1} << n;
    for (int k = 1; k <= std::min(n, 4); ++k) {
      const auto qs = kernel_test::distinct_qubits(n, k, rng);
      for (const Matrix& op :
           {kernel_test::random_diagonal(std::size_t{1} << k, rng),
            random_unitary(std::size_t{1} << k, rng)}) {
        const Matrix u = random_unitary(dim, rng);
        const Matrix e = embed(op, qs, n);
        for (const ApplyOptions& opts : {serial, threaded}) {
          Matrix left = u;
          left_apply(left, op, qs, opts);
          EXPECT_NEAR(left.max_abs_diff(e * u), 0.0, 1e-12);
          Matrix lgen = u;
          left_apply_inplace(lgen, op, qs);
          EXPECT_NEAR(left.max_abs_diff(lgen), 0.0, 1e-12);

          Matrix right = u;
          right_apply(right, op, qs, opts);
          EXPECT_NEAR(right.max_abs_diff(u * e), 0.0, 1e-12);
          Matrix rgen = u;
          right_apply_inplace(rgen, op, qs);
          EXPECT_NEAR(right.max_abs_diff(rgen), 0.0, 1e-12);
        }
      }
    }
  }
}

TEST(Kernels, PermPhaseLeftApplyMatchesEmbeddedGemm) {
  // CX/SWAP/CY row shuffles take a dedicated cycle-walking path in the
  // blocked left_apply; check it against the embedded product directly.
  common::Rng rng(66);
  const ApplyOptions serial{};
  const ApplyOptions threaded{2};
  for (int n = 2; n <= 5; ++n) {
    for (int trial = 0; trial < 4; ++trial) {
      const auto qs = kernel_test::distinct_qubits(n, 2, rng);
      // Re-draw past identity permutations, which classify as diagonal.
      Matrix op = kernel_test::random_perm_phase(rng);
      while (classify_kernel(op) != KernelKind::TwoQPermPhase)
        op = kernel_test::random_perm_phase(rng);
      const Matrix u = random_unitary(std::size_t{1} << n, rng);
      const Matrix e = embed(op, qs, n);
      for (const ApplyOptions& opts : {serial, threaded}) {
        Matrix left = u;
        left_apply(left, op, qs, opts);
        EXPECT_NEAR(left.max_abs_diff(e * u), 0.0, 1e-12);
      }
    }
  }
}

TEST(Kernels, RightApplyAccumulateMatchesSeparatePasses) {
  common::Rng rng(67);
  const ApplyOptions serial{};
  const ApplyOptions threaded{2};
  for (int n = 2; n <= 5; ++n) {
    const std::size_t dim = std::size_t{1} << n;
    for (int k = 1; k <= std::min(n, 4); ++k) {
      const auto qs = kernel_test::distinct_qubits(n, k, rng);
      const Matrix op = random_unitary(std::size_t{1} << k, rng);
      const Matrix term = random_unitary(dim, rng);
      const Matrix accum0 = random_unitary(dim, rng);
      const double w = 0.25 + rng.uniform();

      Matrix expect = term;
      right_apply_inplace(expect, op, qs);
      expect *= cplx{w, 0.0};
      expect += accum0;

      for (const ApplyOptions& opts : {serial, threaded}) {
        Matrix accum = accum0;
        right_apply_accumulate(accum, term, op, qs, w, opts);
        EXPECT_NEAR(accum.max_abs_diff(expect), 0.0, 1e-12);
      }
    }
  }
}

// ---- runtime SIMD dispatch -------------------------------------------------

TEST(Kernels, SimdDispatchResolvesOverridesAndClamps) {
  const SimdIsa prev = active_simd_isa();
  EXPECT_TRUE(simd_isa_supported(prev));
  EXPECT_TRUE(simd_isa_supported(SimdIsa::Scalar));
  EXPECT_TRUE(simd_isa_supported(best_supported_simd_isa()));

  bool ok = false;
  EXPECT_EQ(parse_simd_isa("scalar", &ok), SimdIsa::Scalar);
  EXPECT_TRUE(ok);
  EXPECT_EQ(parse_simd_isa("avx2", &ok), SimdIsa::Avx2);
  EXPECT_TRUE(ok);
  EXPECT_EQ(parse_simd_isa("avx512", &ok), SimdIsa::Avx512);
  EXPECT_TRUE(ok);
  EXPECT_EQ(parse_simd_isa("neon", &ok), SimdIsa::Neon);
  EXPECT_TRUE(ok);
  parse_simd_isa("AVX2", &ok);  // case-sensitive by contract
  EXPECT_FALSE(ok);
  parse_simd_isa("sse9", &ok);
  EXPECT_FALSE(ok);

  // The QAPPROX_SIMD resolution rules: unset/empty auto-detect, a supported
  // name pins, unknown or unsupported names fall back to auto-detection.
  EXPECT_EQ(resolve_simd_isa(nullptr), best_supported_simd_isa());
  EXPECT_EQ(resolve_simd_isa(""), best_supported_simd_isa());
  EXPECT_EQ(resolve_simd_isa("scalar"), SimdIsa::Scalar);
  EXPECT_EQ(resolve_simd_isa("sse9"), best_supported_simd_isa());
  for (SimdIsa isa : {SimdIsa::Avx2, SimdIsa::Avx512, SimdIsa::Neon}) {
    EXPECT_EQ(resolve_simd_isa(simd_isa_name(isa)),
              simd_isa_supported(isa) ? isa : best_supported_simd_isa());
  }

  // force_simd_isa installs supported requests and clamps the rest.
  for (SimdIsa isa : {SimdIsa::Scalar, SimdIsa::Avx2, SimdIsa::Avx512,
                      SimdIsa::Neon}) {
    const SimdIsa got = force_simd_isa(isa);
    EXPECT_TRUE(simd_isa_supported(got));
    if (simd_isa_supported(isa)) EXPECT_EQ(got, isa);
    EXPECT_EQ(active_simd_isa(), got);
  }
  force_simd_isa(prev);
  EXPECT_EQ(active_simd_isa(), prev);

  // Bit-exactness requires the scalar ISA (and no compile-time FMA).
  force_simd_isa(SimdIsa::Scalar);
  EXPECT_EQ(kernels_bit_exact(), !kernels_compiled_with_fma());
  if (best_supported_simd_isa() != SimdIsa::Scalar) {
    force_simd_isa(best_supported_simd_isa());
    EXPECT_FALSE(kernels_bit_exact());
  }
  force_simd_isa(prev);
}

TEST(Kernels, EveryHostIsaMatchesScalarWithinTolerance) {
  common::Rng rng(68);
  const SimdIsa prev = active_simd_isa();
  const ApplyOptions serial{};
  const ApplyOptions threaded{2};
  for (int n = 1; n <= 7; ++n) {
    const auto state = kernel_test::random_state(n, rng);
    for (int k = 1; k <= std::min(n, 4); ++k) {
      const auto qs = kernel_test::distinct_qubits(n, k, rng);
      const std::size_t sub = std::size_t{1} << k;
      for (const Matrix& op : {kernel_test::random_diagonal(sub, rng),
                               random_unitary(sub, rng)}) {
        force_simd_isa(SimdIsa::Scalar);
        std::vector<cplx> ref = state;
        apply_operator(ref, op, qs, serial);
        for (SimdIsa isa : {SimdIsa::Avx2, SimdIsa::Avx512, SimdIsa::Neon}) {
          if (!simd_isa_supported(isa)) continue;
          ASSERT_EQ(force_simd_isa(isa), isa);
          for (const ApplyOptions& opts : {serial, threaded}) {
            std::vector<cplx> got = state;
            apply_operator(got, op, qs, opts);
            for (std::size_t i = 0; i < got.size(); ++i)
              ASSERT_NEAR(std::abs(got[i] - ref[i]), 0.0, 1e-12)
                  << simd_isa_name(isa) << " n=" << n << " k=" << k;
          }
        }
      }
    }
  }
  force_simd_isa(prev);
}

TEST(Kernels, PreparedBorrowsEntriesAndReappliesLikeApplyOperator) {
  common::Rng rng(71);
  const int n = 5;
  const auto state = kernel_test::random_state(n, rng);
  for (int k = 1; k <= 5; ++k) {
    const auto qs = kernel_test::distinct_qubits(n, k, rng);
    const Matrix op = random_unitary(std::size_t{1} << k, rng);
    const Prepared p = prepare(op, qs, state.size());
    if (k <= 4) {
      EXPECT_EQ(p.m, op.data());  // borrowed, not copied
      EXPECT_EQ(p.kind, classify_kernel(op));
    } else {
      EXPECT_EQ(p.kind, KernelKind::GenericK);
    }
    // One binding applied twice equals two fresh dispatches.
    std::vector<cplx> bound = state;
    apply_prepared(bound, p);
    apply_prepared(bound, p);
    std::vector<cplx> fresh = state;
    apply_operator(fresh, op, qs);
    apply_operator(fresh, op, qs);
    EXPECT_EQ(bound, fresh) << "k=" << k;
  }
  std::vector<cplx> wrong_size(8);
  const Matrix x = random_unitary(2, rng);
  EXPECT_THROW(apply_prepared(wrong_size, prepare(x, {0}, 16)), common::Error);
}

TEST(Kernels, ReducedDensityMatrixGivesBornWeights) {
  // rho_red on the operator's qubits must reproduce ||K psi||^2 as
  // Tr(K†K rho_red) for any K, at every width the kernels cover.
  common::Rng rng(72);
  for (int n = 1; n <= 6; ++n) {
    const auto state = kernel_test::random_state(n, rng);
    for (int k = 1; k <= std::min(n, 4); ++k) {
      const auto qs = kernel_test::distinct_qubits(n, k, rng);
      const std::size_t sub = std::size_t{1} << k;
      Matrix kraus(sub, sub);
      for (std::size_t r = 0; r < sub; ++r)
        for (std::size_t c = 0; c < sub; ++c)
          kraus(r, c) = cplx{rng.normal(), rng.normal()};
      std::vector<cplx> rho(sub * sub);
      reduced_density_matrix(state, prepare(kraus, qs, state.size()), rho.data());
      const Matrix effect = kraus.adjoint() * kraus;
      cplx trace{0.0, 0.0};
      for (std::size_t a = 0; a < sub; ++a) {
        for (std::size_t b = 0; b < sub; ++b) {
          trace += effect(a, b) * rho[b * sub + a];
          EXPECT_NEAR(std::abs(rho[a * sub + b] - std::conj(rho[b * sub + a])),
                      0.0, 1e-12);
        }
      }
      std::vector<cplx> branch = state;
      apply_gate_inplace(branch, kraus, qs);
      double norm = 0.0;
      for (const cplx& v : branch) norm += std::norm(v);
      EXPECT_NEAR(trace.real(), norm, 1e-9 * norm) << "n=" << n << " k=" << k;
      EXPECT_NEAR(trace.imag(), 0.0, 1e-9 * norm);
    }
  }
}

}  // namespace
}  // namespace qc::linalg
