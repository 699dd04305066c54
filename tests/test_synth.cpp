// Unit + property tests for qc::synth — templates, cost, optimizers,
// QSearch, QFast, reducer.
#include <gtest/gtest.h>

#include <cmath>
#include <thread>

#include "common/deadline.hpp"
#include "common/error.hpp"
#include "common/faults.hpp"
#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "linalg/factories.hpp"
#include "metrics/process.hpp"
#include "synth/cache.hpp"
#include "synth/cost.hpp"
#include "synth/qfactor.hpp"
#include "synth/invariants.hpp"
#include "synth/optimize.hpp"
#include "synth/qfast.hpp"
#include "synth/qsearch.hpp"
#include "synth/reducer.hpp"
#include "synth/template.hpp"

namespace qc::synth {
namespace {

using linalg::Matrix;

TEST(Template, UnitaryMatchesInstantiatedCircuit) {
  common::Rng rng(1);
  TemplateCircuit tpl = TemplateCircuit::u3_layer(3);
  tpl.add_qsearch_block(0, 1);
  tpl.add_qsearch_block(1, 2);
  std::vector<double> params(static_cast<std::size_t>(tpl.num_params()));
  for (auto& p : params) p = rng.uniform(-3.0, 3.0);

  Matrix fast;
  tpl.unitary(params, fast);
  const Matrix slow = tpl.instantiate(params).to_unitary();
  EXPECT_NEAR(fast.max_abs_diff(slow), 0.0, 1e-10);
}

TEST(Template, CountsAndLayout) {
  TemplateCircuit tpl = TemplateCircuit::u3_layer(2);
  EXPECT_EQ(tpl.num_params(), 6);
  tpl.add_qsearch_block(0, 1);
  EXPECT_EQ(tpl.num_params(), 12);
  EXPECT_EQ(tpl.cx_count(), 1u);
  tpl.add_generic_block(0, 1);
  EXPECT_EQ(tpl.cx_count(), 4u);
  EXPECT_EQ(tpl.num_params(), 12 + 8 * 3);
}

TEST(Template, IdentityParamsGiveIdentityLayer) {
  TemplateCircuit tpl = TemplateCircuit::u3_layer(2);
  Matrix u;
  tpl.unitary(tpl.identity_params(), u);
  EXPECT_NEAR(u.max_abs_diff(Matrix::identity(4)), 0.0, 1e-12);
}

TEST(Template, RejectsBadOperands) {
  TemplateCircuit tpl(2);
  EXPECT_THROW(tpl.add_u3(2), common::Error);
  EXPECT_THROW(tpl.add_cx(0, 0), common::Error);
}

TEST(Cost, ZeroAtExactTarget) {
  common::Rng rng(2);
  TemplateCircuit tpl = TemplateCircuit::u3_layer(2);
  tpl.add_qsearch_block(0, 1);
  std::vector<double> params(static_cast<std::size_t>(tpl.num_params()));
  for (auto& p : params) p = rng.uniform(-2.0, 2.0);
  Matrix target;
  tpl.unitary(params, target);

  const HsCost cost(tpl, target);
  EXPECT_NEAR(cost(params), 0.0, 1e-12);
  EXPECT_NEAR(cost.hs_distance(params), 0.0, 1e-6);
}

TEST(Cost, GradientMatchesFiniteDifferenceOfItself) {
  common::Rng rng(3);
  TemplateCircuit tpl = TemplateCircuit::u3_layer(2);
  tpl.add_qsearch_block(0, 1);
  const Matrix target = linalg::random_unitary(4, rng);
  const HsCost cost(tpl, target);

  std::vector<double> x(static_cast<std::size_t>(tpl.num_params()));
  for (auto& p : x) p = rng.uniform(-1.0, 1.0);
  std::vector<double> grad;
  cost.gradient(x, grad);

  // Spot check two coordinates with a coarser step.
  for (std::size_t i : {std::size_t{0}, std::size_t{5}}) {
    std::vector<double> xp = x, xm = x;
    xp[i] += 1e-4;
    xm[i] -= 1e-4;
    const double fd = (cost(xp) - cost(xm)) / 2e-4;
    EXPECT_NEAR(grad[i], fd, 1e-5);
  }
}

TEST(Cost, HsDistanceConversion) {
  EXPECT_NEAR(cost_to_hs_distance(0.0), 0.0, 1e-12);
  EXPECT_NEAR(cost_to_hs_distance(1.0), 1.0, 1e-12);
  // f = 1 - fid; hs = sqrt(1 - fid^2).
  EXPECT_NEAR(cost_to_hs_distance(0.5), std::sqrt(0.75), 1e-12);
}

TEST(Optimize, LbfgsSolvesQuadratic) {
  const CostFn f = [](const std::vector<double>& x) {
    double s = 0.0;
    for (std::size_t i = 0; i < x.size(); ++i)
      s += (i + 1.0) * (x[i] - 1.0) * (x[i] - 1.0);
    return s;
  };
  const GradFn g = [](const std::vector<double>& x, std::vector<double>& grad) {
    grad.resize(x.size());
    for (std::size_t i = 0; i < x.size(); ++i)
      grad[i] = 2.0 * (i + 1.0) * (x[i] - 1.0);
  };
  const OptimizeResult r = lbfgs_minimize(f, g, std::vector<double>(6, -2.0));
  EXPECT_LT(r.value, 1e-10);
  for (double v : r.params) EXPECT_NEAR(v, 1.0, 1e-5);
}

TEST(Optimize, LbfgsHandlesRosenbrock) {
  const CostFn f = [](const std::vector<double>& x) {
    return 100.0 * std::pow(x[1] - x[0] * x[0], 2) + std::pow(1.0 - x[0], 2);
  };
  const GradFn g = [](const std::vector<double>& x, std::vector<double>& grad) {
    grad = {-400.0 * x[0] * (x[1] - x[0] * x[0]) - 2.0 * (1.0 - x[0]),
            200.0 * (x[1] - x[0] * x[0])};
  };
  OptimizeOptions opts;
  opts.max_iterations = 1000;
  const OptimizeResult r = lbfgs_minimize(f, g, {-1.2, 1.0}, opts);
  // Rosenbrock's banana valley is the classic stress test for the Armijo
  // backtracking line search; near-zero is success here.
  EXPECT_LT(r.value, 1e-4);
}

TEST(Optimize, NelderMeadSolvesQuadratic) {
  const CostFn f = [](const std::vector<double>& x) {
    return (x[0] - 2.0) * (x[0] - 2.0) + (x[1] + 1.0) * (x[1] + 1.0);
  };
  OptimizeOptions opts;
  opts.max_iterations = 300;
  const OptimizeResult r = nelder_mead_minimize(f, {0.0, 0.0}, opts);
  EXPECT_NEAR(r.params[0], 2.0, 1e-3);
  EXPECT_NEAR(r.params[1], -1.0, 1e-3);
}

TEST(Optimize, MultistartEscapesBadStart) {
  // f has a local minimum at x=3 (value 1) and global at x=0 (value 0).
  const CostFn f = [](const std::vector<double>& x) {
    const double a = x[0];
    const double local = 1.0 + (a - 3.0) * (a - 3.0);
    const double global = a * a / 2.0;
    return std::min(local, global);
  };
  const GradFn g = [&](const std::vector<double>& x, std::vector<double>& grad) {
    const double a = x[0];
    const double local = 1.0 + (a - 3.0) * (a - 3.0);
    const double global = a * a / 2.0;
    grad = {local < global ? 2.0 * (a - 3.0) : a};
  };
  common::Rng rng(5);
  MultistartOptions opts;
  opts.num_starts = 8;
  const OptimizeResult r = multistart_minimize(f, g, {3.1}, rng, opts);
  EXPECT_LT(r.value, 0.2);
}

TEST(QSearch, SynthesizesSingleCxExactly) {
  ir::QuantumCircuit qc(2);
  qc.cx(0, 1);
  QSearchOptions opts;
  opts.max_cnots = 2;
  opts.max_nodes = 10;
  const QSearchResult res = qsearch_synthesize(qc.to_unitary(), 2, opts);
  EXPECT_TRUE(res.converged);
  EXPECT_LE(res.best.cnot_count, 1u);
}

TEST(QSearch, DepthOptimalForCz) {
  ir::QuantumCircuit qc(2);
  qc.cz(0, 1);
  QSearchOptions opts;
  opts.max_cnots = 3;
  opts.max_nodes = 12;
  const QSearchResult res = qsearch_synthesize(qc.to_unitary(), 2, opts);
  EXPECT_TRUE(res.converged);
  EXPECT_EQ(res.best.cnot_count, 1u);  // CZ needs exactly one CX
}

TEST(QSearch, InstrumentationSeesEveryOptimizedNode) {
  ir::QuantumCircuit qc(2);
  qc.cz(0, 1);
  int calls = 0;
  QSearchOptions opts;
  opts.max_cnots = 2;
  opts.max_nodes = 6;
  opts.intermediate_callback = [&](const ApproxCircuit& c) {
    ++calls;
    EXPECT_GE(c.hs_distance, 0.0);
    EXPECT_EQ(c.source, "qsearch");
    EXPECT_EQ(c.circuit.count(ir::GateKind::CX), c.cnot_count);
  };
  const QSearchResult res = qsearch_synthesize(qc.to_unitary(), 2, opts);
  EXPECT_EQ(calls, res.nodes_optimized);
  EXPECT_GT(calls, 1);
}

TEST(QSearch, ReportedHsMatchesRecomputation) {
  common::Rng rng(6);
  const Matrix target = linalg::random_unitary(4, rng);
  std::vector<ApproxCircuit> seen;
  QSearchOptions opts;
  opts.max_cnots = 3;
  opts.max_nodes = 8;
  opts.intermediate_callback = [&](const ApproxCircuit& c) { seen.push_back(c); };
  qsearch_synthesize(target, 2, opts);
  ASSERT_FALSE(seen.empty());
  for (const auto& c : seen) {
    const double recomputed = metrics::hs_distance(target, c.circuit.to_unitary());
    ASSERT_NEAR(c.hs_distance, recomputed, 1e-6);
  }
}

TEST(QSearch, RespectsCouplingMap) {
  const noise::CouplingMap line = noise::CouplingMap::line(3);
  common::Rng rng(7);
  const Matrix target = linalg::random_unitary(8, rng);
  QSearchOptions opts;
  opts.max_cnots = 3;
  opts.max_nodes = 10;
  std::vector<ApproxCircuit> seen;
  opts.intermediate_callback = [&](const ApproxCircuit& c) { seen.push_back(c); };
  qsearch_synthesize(target, 3, opts, &line);
  for (const auto& c : seen) {
    for (const auto& g : c.circuit.gates()) {
      if (g.kind != ir::GateKind::CX) continue;
      ASSERT_TRUE(line.are_coupled(g.qubits[0], g.qubits[1]));
    }
  }
}

TEST(QSearch, DeterministicAcrossRuns) {
  ir::QuantumCircuit qc(2);
  qc.cz(0, 1);
  QSearchOptions opts;
  opts.max_cnots = 2;
  opts.max_nodes = 5;
  const QSearchResult a = qsearch_synthesize(qc.to_unitary(), 2, opts);
  const QSearchResult b = qsearch_synthesize(qc.to_unitary(), 2, opts);
  EXPECT_EQ(a.best.cnot_count, b.best.cnot_count);
  EXPECT_DOUBLE_EQ(a.best.hs_distance, b.best.hs_distance);
}

TEST(QFast, ConvergesOnTwoQubitUnitary) {
  common::Rng rng(8);
  const Matrix target = linalg::random_unitary(4, rng);
  QFastOptions opts;
  opts.max_blocks = 2;
  opts.optimizer.max_iterations = 150;
  opts.restarts_per_depth = 3;
  const QFastResult res = qfast_synthesize(target, 2, opts);
  // One generic block spans SU(4): distance should be tiny.
  EXPECT_LT(res.best.hs_distance, 1e-4);
}

TEST(QFast, PartialSolutionCallbackFires) {
  common::Rng rng(9);
  const Matrix target = linalg::random_unitary(8, rng);
  int calls = 0;
  QFastOptions opts;
  opts.max_blocks = 3;
  opts.optimizer.max_iterations = 25;
  opts.partial_solution_callback = [&](const ApproxCircuit& c) {
    ++calls;
    EXPECT_EQ(c.source, "qfast");
  };
  qfast_synthesize(target, 3, opts);
  EXPECT_GE(calls, 3);  // at least one per depth
}

TEST(QFast, DistanceImprovesWithDepth) {
  common::Rng rng(10);
  const Matrix target = linalg::random_unitary(8, rng);
  std::vector<double> best_by_depth;
  QFastOptions opts;
  opts.max_blocks = 4;
  opts.optimizer.max_iterations = 40;
  opts.emit_coarse_passes = false;
  opts.partial_solution_callback = [&](const ApproxCircuit& c) {
    best_by_depth.push_back(c.hs_distance);
  };
  qfast_synthesize(target, 3, opts);
  ASSERT_GE(best_by_depth.size(), 3u);
  EXPECT_LT(best_by_depth.back(), best_by_depth.front());
}

TEST(Reducer, FullKeepReproducesReference) {
  ir::QuantumCircuit ref(2);
  ref.h(0).cx(0, 1).rz(0.4, 1).cx(0, 1);
  ReducerOptions opts;
  opts.keep_fractions = {1.0};
  const auto out = reduce_circuit(ref, opts);
  ASSERT_FALSE(out.empty());
  EXPECT_LT(out.back().hs_distance, 1e-4);
}

TEST(Reducer, ProducesRequestedDepthLadder) {
  ir::QuantumCircuit ref(3);
  for (int r = 0; r < 4; ++r) ref.cx(0, 1).cx(1, 2).rz(0.3, 2);
  ReducerOptions opts;
  opts.keep_fractions = {0.0, 0.25, 0.5, 1.0};
  opts.variants_per_size = 1;
  const auto out = reduce_circuit(ref, opts);
  ASSERT_GE(out.size(), 4u);
  EXPECT_EQ(out.front().cnot_count, 0u);
  EXPECT_EQ(out.back().cnot_count, 8u);
  // Sorted by CNOT count.
  for (std::size_t i = 1; i < out.size(); ++i)
    EXPECT_LE(out[i - 1].cnot_count, out[i].cnot_count);
}

TEST(Reducer, ReportedHsIsAccurate) {
  ir::QuantumCircuit ref(3);
  ref.h(0).cx(0, 1).cx(1, 2).rz(0.9, 2).cx(0, 1);
  const Matrix target = ref.to_unitary();
  ReducerOptions opts;
  opts.keep_fractions = {0.5, 1.0};
  opts.variants_per_size = 2;
  for (const auto& c : reduce_circuit(ref, opts)) {
    const double recomputed = metrics::hs_distance(target, c.circuit.to_unitary());
    ASSERT_NEAR(c.hs_distance, recomputed, 1e-6);
  }
}

TEST(Reducer, BoundaryModeKeepsParameterCountSmall) {
  // A wide/deep reference forces boundary mode; result must still carry the
  // surviving CX count.
  ir::QuantumCircuit ref(4);
  for (int r = 0; r < 10; ++r) ref.cx(0, 1).cx(1, 2).cx(2, 3).rz(0.2, 3);
  ReducerOptions opts;
  opts.keep_fractions = {0.5};
  opts.variants_per_size = 1;
  opts.full_reopt_max_qubits = 3;  // 4q -> boundary
  const auto out = reduce_circuit(ref, opts);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].cnot_count, 15u);
  EXPECT_EQ(out[0].circuit.count(ir::GateKind::CX), 15u);
}

// ---- analytic gradients ----------------------------------------------------

TEST(Cost, AnalyticMatchesFiniteDifferenceOnRandomTemplates) {
  common::Rng rng(41);
  for (int n = 2; n <= 4; ++n) {
    TemplateCircuit tpl = TemplateCircuit::u3_layer(n);
    for (int b = 0; b < n + 2; ++b) {
      const int a = static_cast<int>(rng.uniform_int(static_cast<std::uint64_t>(n - 1)));
      tpl.add_qsearch_block(a, a + 1);
    }
    const Matrix target =
        linalg::random_unitary(std::size_t{1} << n, rng);
    const HsCost cost(tpl, target);
    std::vector<double> x(static_cast<std::size_t>(tpl.num_params()));
    for (auto& p : x) p = rng.uniform(-3.0, 3.0);

    std::vector<double> analytic, fd;
    cost.gradient_analytic(x, analytic);
    cost.gradient_finite_difference(x, fd);
    ASSERT_EQ(analytic.size(), fd.size());
    for (std::size_t i = 0; i < analytic.size(); ++i)
      EXPECT_NEAR(analytic[i], fd[i], 1e-5) << "n=" << n << " param " << i;
  }
}

TEST(Cost, GradientDispatchFollowsMode) {
  common::Rng rng(42);
  TemplateCircuit tpl = TemplateCircuit::u3_layer(2);
  tpl.add_qsearch_block(0, 1);
  const Matrix target = linalg::random_unitary(4, rng);
  HsCost cost(tpl, target);
  std::vector<double> x(static_cast<std::size_t>(tpl.num_params()));
  for (auto& p : x) p = rng.uniform(-1.5, 1.5);

  std::vector<double> dispatched, direct;
  cost.set_gradient_mode(GradientMode::kFiniteDifference);
  EXPECT_EQ(cost.gradient_mode(), GradientMode::kFiniteDifference);
  cost.gradient(x, dispatched);
  cost.gradient_finite_difference(x, direct);
  ASSERT_EQ(dispatched.size(), direct.size());
  for (std::size_t i = 0; i < direct.size(); ++i)
    EXPECT_EQ(dispatched[i], direct[i]);  // same code path, bitwise equal

  cost.set_gradient_mode(GradientMode::kAnalytic);
  cost.gradient(x, dispatched);
  cost.gradient_analytic(x, direct);
  for (std::size_t i = 0; i < direct.size(); ++i)
    EXPECT_EQ(dispatched[i], direct[i]);
}

TEST(Cost, BorrowingConstructorKeepsCallersMatrix) {
  common::Rng rng(43);
  TemplateCircuit tpl = TemplateCircuit::u3_layer(2);
  const Matrix target = linalg::random_unitary(4, rng);
  const HsCost borrowed(tpl, target);
  EXPECT_EQ(&borrowed.target(), &target);  // no dim² copy per search node

  const HsCost owned(tpl, linalg::random_unitary(4, rng));
  EXPECT_EQ(owned.target().rows(), 4u);
  EXPECT_NE(&owned.target(), &target);
}

// ---- parallel frontier -----------------------------------------------------

void expect_bit_identical(const ApproxCircuit& a, const ApproxCircuit& b) {
  EXPECT_EQ(a.source, b.source);
  EXPECT_EQ(a.cnot_count, b.cnot_count);
  EXPECT_EQ(a.hs_distance, b.hs_distance);
  const auto& ga = a.circuit.gates();
  const auto& gb = b.circuit.gates();
  ASSERT_EQ(ga.size(), gb.size());
  for (std::size_t i = 0; i < ga.size(); ++i) {
    EXPECT_EQ(ga[i].kind, gb[i].kind);
    EXPECT_EQ(ga[i].qubits, gb[i].qubits);
    ASSERT_EQ(ga[i].params.size(), gb[i].params.size());
    for (std::size_t p = 0; p < ga[i].params.size(); ++p)
      EXPECT_EQ(ga[i].params[p], gb[i].params[p]);
  }
}

void expect_bit_identical_runs(const QSearchResult& a,
                               const std::vector<ApproxCircuit>& sa,
                               const QSearchResult& b,
                               const std::vector<ApproxCircuit>& sb) {
  EXPECT_EQ(a.converged, b.converged);
  EXPECT_EQ(a.timed_out, b.timed_out);
  EXPECT_EQ(a.nodes_expanded, b.nodes_expanded);
  EXPECT_EQ(a.nodes_optimized, b.nodes_optimized);
  expect_bit_identical(a.best, b.best);
  ASSERT_EQ(sa.size(), sb.size());
  for (std::size_t i = 0; i < sa.size(); ++i) expect_bit_identical(sa[i], sb[i]);
}

TEST(QSearch, ParallelChildrenBitIdenticalToSerial) {
  common::Rng rng(44);
  const Matrix target = linalg::random_unitary(8, rng);
  common::ThreadPool pool1(1);
  common::ThreadPool pool4(4);

  auto run = [&](bool parallel, common::ThreadPool& pool,
                 std::vector<ApproxCircuit>& stream) {
    QSearchOptions opts;
    opts.max_cnots = 3;
    opts.max_nodes = 10;
    opts.optimizer.max_iterations = 40;
    opts.use_cache = false;
    opts.parallel_children = parallel;
    opts.pool = &pool;
    opts.intermediate_callback = [&stream](const ApproxCircuit& c) {
      stream.push_back(c);
    };
    return qsearch_synthesize(target, 3, opts);
  };

  std::vector<ApproxCircuit> serial_stream, par1_stream, par4_stream;
  const QSearchResult serial = run(false, pool1, serial_stream);
  const QSearchResult par1 = run(true, pool1, par1_stream);
  const QSearchResult par4 = run(true, pool4, par4_stream);
  EXPECT_GT(serial.nodes_optimized, 1);
  expect_bit_identical_runs(serial, serial_stream, par1, par1_stream);
  expect_bit_identical_runs(serial, serial_stream, par4, par4_stream);
}

TEST(QSearch, ParallelMatchesSerialUnderMidSearchExpiry) {
  common::Rng rng(45);
  const Matrix target = linalg::random_unitary(8, rng);
  common::ThreadPool pool4(4);

  auto run = [&](bool parallel, std::vector<ApproxCircuit>& stream) {
    const common::CancelToken token = common::CancelToken::make();
    QSearchOptions opts;
    opts.max_cnots = 4;
    opts.max_nodes = 20;
    opts.optimizer.max_iterations = 40;
    opts.use_cache = false;
    opts.parallel_children = parallel;
    opts.pool = &pool4;
    opts.deadline = common::Deadline::never().with_token(token);
    int calls = 0;
    opts.intermediate_callback = [&](const ApproxCircuit& c) {
      stream.push_back(c);
      // Deterministic mid-search expiry: cancellation is requested from the
      // merge-time callback, so it lands at the same search position in both
      // schedules.
      if (++calls == 4) token.request_cancel();
    };
    return qsearch_synthesize(target, 3, opts);
  };

  std::vector<ApproxCircuit> serial_stream, parallel_stream;
  const QSearchResult serial = run(false, serial_stream);
  const QSearchResult parallel = run(true, parallel_stream);
  EXPECT_TRUE(serial.timed_out);
  EXPECT_EQ(serial_stream.size(), 4u);
  expect_bit_identical_runs(serial, serial_stream, parallel, parallel_stream);
}

TEST(QSearch, ParallelMatchesSerialWithFaultsArmed) {
  struct FaultSpecGuard {
    ~FaultSpecGuard() { common::faults::install_spec(""); }
  } guard;
  common::faults::install_spec("synth:0.5,seed=7");

  // Firing is a pure function of (spec seed, site, synthesis seed); scan for
  // one seed of each kind.
  std::uint64_t firing = 0, clean = 0;
  bool have_firing = false, have_clean = false;
  for (std::uint64_t s = 0; s < 256 && !(have_firing && have_clean); ++s) {
    if (common::faults::fires(common::faults::Site::SynthFail, s)) {
      if (!have_firing) firing = s, have_firing = true;
    } else if (!have_clean) {
      clean = s, have_clean = true;
    }
  }
  ASSERT_TRUE(have_firing && have_clean);

  common::Rng rng(46);
  const Matrix target = linalg::random_unitary(8, rng);
  common::ThreadPool pool4(4);
  auto run = [&](bool parallel, std::uint64_t seed,
                 std::vector<ApproxCircuit>& stream) {
    QSearchOptions opts;
    opts.max_cnots = 3;
    opts.max_nodes = 6;
    opts.optimizer.max_iterations = 30;
    opts.use_cache = false;
    opts.parallel_children = parallel;
    opts.pool = &pool4;
    opts.seed = seed;
    opts.intermediate_callback = [&stream](const ApproxCircuit& c) {
      stream.push_back(c);
    };
    return qsearch_synthesize(target, 3, opts);
  };

  // An armed, firing fault throws in both modes (before any cache/search).
  std::vector<ApproxCircuit> ignore;
  EXPECT_THROW(run(false, firing, ignore), common::SynthesisError);
  EXPECT_THROW(run(true, firing, ignore), common::SynthesisError);

  // A non-firing seed stays bit-identical with the harness armed.
  std::vector<ApproxCircuit> serial_stream, parallel_stream;
  const QSearchResult serial = run(false, clean, serial_stream);
  const QSearchResult parallel = run(true, clean, parallel_stream);
  expect_bit_identical_runs(serial, serial_stream, parallel, parallel_stream);
}

// ---- incremental qfactor ---------------------------------------------------

TEST(QFactor, IncrementalMatchesDenseSweep) {
  common::Rng rng(47);
  const Matrix target = linalg::random_unitary(8, rng);
  ir::QuantumCircuit structure(3);
  for (int b = 0; b < 6; ++b) {
    structure.cx(b % 2, (b % 2) + 1);
    structure.u3(0.2, 0.1, -0.1, b % 2);
    structure.u3(0.3, -0.2, 0.2, (b % 2) + 1);
  }
  QFactorOptions opts;
  opts.max_sweeps = 4;
  opts.tolerance = 0.0;  // run all sweeps in both modes
  opts.use_cache = false;

  opts.incremental = false;
  const QFactorResult dense = qfactor_optimize(structure, target, opts);
  opts.incremental = true;
  const QFactorResult inc = qfactor_optimize(structure, target, opts);

  EXPECT_EQ(dense.sweeps, inc.sweeps);
  EXPECT_NEAR(inc.hs_distance, dense.hs_distance, 1e-9);
  const auto& gd = dense.circuit.gates();
  const auto& gi = inc.circuit.gates();
  ASSERT_EQ(gd.size(), gi.size());
  for (std::size_t i = 0; i < gd.size(); ++i) {
    EXPECT_EQ(gd[i].kind, gi[i].kind);
    ASSERT_EQ(gd[i].params.size(), gi[i].params.size());
    for (std::size_t p = 0; p < gd[i].params.size(); ++p)
      EXPECT_NEAR(gd[i].params[p], gi[i].params[p], 1e-9)
          << "gate " << i << " param " << p;
  }
}

// ---- synthesis cache -------------------------------------------------------

TEST(Cache, RepeatedSearchHitsAndReplaysStream) {
  common::Rng rng(48);
  const Matrix target = linalg::random_unitary(8, rng);
  clear_synth_cache();
  QSearchOptions opts;
  opts.max_cnots = 3;
  opts.max_nodes = 6;
  opts.optimizer.max_iterations = 30;
  opts.use_cache = true;

  const SynthCacheStats before = synth_cache_stats();
  std::vector<ApproxCircuit> first_stream, second_stream;
  opts.intermediate_callback = [&](const ApproxCircuit& c) {
    first_stream.push_back(c);
  };
  const QSearchResult first = qsearch_synthesize(target, 3, opts);
  opts.intermediate_callback = [&](const ApproxCircuit& c) {
    second_stream.push_back(c);
  };
  const QSearchResult second = qsearch_synthesize(target, 3, opts);
  const SynthCacheStats after = synth_cache_stats();

  EXPECT_GE(after.misses - before.misses, 1u);
  EXPECT_GE(after.hits - before.hits, 1u);
  ASSERT_FALSE(first_stream.empty());
  expect_bit_identical_runs(first, first_stream, second, second_stream);
}

TEST(Cache, QFactorRunsHit) {
  common::Rng rng(49);
  const Matrix target = linalg::random_unitary(4, rng);
  ir::QuantumCircuit structure(2);
  structure.cx(0, 1).u3(0.4, 0.1, -0.3, 0).u3(0.2, -0.2, 0.5, 1);
  clear_synth_cache();
  QFactorOptions opts;
  opts.max_sweeps = 8;
  opts.use_cache = true;
  const SynthCacheStats before = synth_cache_stats();
  const QFactorResult first = qfactor_optimize(structure, target, opts);
  const QFactorResult second = qfactor_optimize(structure, target, opts);
  const SynthCacheStats after = synth_cache_stats();
  EXPECT_GE(after.hits - before.hits, 1u);
  EXPECT_EQ(first.hs_distance, second.hs_distance);
  EXPECT_EQ(first.sweeps, second.sweeps);
}

// A 3-qubit reference whose 6 CNOTs reduce through both regimes: full
// re-optimization at or below 2 kept CNOTs, frozen-interior boundary above.
ir::QuantumCircuit reducer_reference(double angle) {
  ir::QuantumCircuit ref(3);
  ref.h(0);
  for (int r = 0; r < 3; ++r) ref.cx(0, 1).rz(angle + 0.1 * r, 1).cx(1, 2).ry(angle, 2);
  return ref;
}

ReducerOptions small_reducer_options() {
  ReducerOptions opts;
  opts.keep_fractions = {0.0, 0.34, 0.67, 1.0};
  opts.variants_per_size = 2;
  opts.full_reopt_max_cx = 2;
  opts.optimizer.max_iterations = 25;
  opts.use_cache = true;
  return opts;
}

void expect_bit_identical(const std::vector<ApproxCircuit>& a,
                          const std::vector<ApproxCircuit>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) expect_bit_identical(a[i], b[i]);
}

TEST(Cache, DisabledBypassesLookup) {
  common::Rng rng(50);
  const Matrix target = linalg::random_unitary(4, rng);
  QSearchOptions opts;
  opts.max_cnots = 2;
  opts.max_nodes = 4;
  opts.use_cache = false;
  ReducerOptions ropts = small_reducer_options();
  ropts.use_cache = false;
  const SynthCacheStats before = synth_cache_stats();
  qsearch_synthesize(target, 2, opts);
  qsearch_synthesize(target, 2, opts);
  reduce_circuit(reducer_reference(0.3), ropts);
  reduce_circuit(reducer_reference(0.3), ropts);
  const SynthCacheStats after = synth_cache_stats();
  EXPECT_EQ(after.hits, before.hits);
  EXPECT_EQ(after.misses, before.misses);
}

TEST(Cache, ReducerHitIsBitIdenticalToTheMiss) {
  clear_synth_cache();
  const ir::QuantumCircuit ref = reducer_reference(0.3);
  ReducerOptions opts = small_reducer_options();
  std::vector<ApproxCircuit> first_stream, second_stream;
  const SynthCacheStats before = synth_cache_stats();
  opts.callback = [&](const ApproxCircuit& c) { first_stream.push_back(c); };
  bool timed_out = true;
  const auto first = reduce_circuit(ref, opts, &timed_out);
  EXPECT_FALSE(timed_out);
  opts.callback = [&](const ApproxCircuit& c) { second_stream.push_back(c); };
  timed_out = true;
  const auto second = reduce_circuit(ref, opts, &timed_out);
  EXPECT_FALSE(timed_out);
  const SynthCacheStats after = synth_cache_stats();

  EXPECT_EQ(after.misses - before.misses, 1u);
  EXPECT_EQ(after.hits - before.hits, 1u);
  EXPECT_EQ(after.entries, 1u);
  ASSERT_EQ(first.size(), 6u);  // 1 + 2 + 2 + 1 variants
  EXPECT_EQ(first.front().source, "reducer");
  expect_bit_identical(first, second);
  // The callback sees the stream in emission order on a hit as on the miss.
  expect_bit_identical(first_stream, second_stream);

  clear_synth_cache();
  EXPECT_EQ(synth_cache_stats().entries, 0u);
  const SynthCacheStats cleared = synth_cache_stats();
  expect_bit_identical(first, reduce_circuit(ref, opts));
  EXPECT_EQ(synth_cache_stats().misses - cleared.misses, 1u);
}

TEST(Cache, ReducerKeyDiscriminatesEveryOption) {
  clear_synth_cache();
  const ir::QuantumCircuit ref = reducer_reference(0.4);
  const ReducerOptions base = small_reducer_options();
  reduce_circuit(ref, base);

  std::vector<ReducerOptions> variants(4, base);
  variants[0].keep_fractions.back() = std::nextafter(1.0, 0.0);
  variants[1].seed += 1;
  variants[2].full_reopt_max_cx += 1;
  variants[3].optimizer.max_iterations += 1;
  for (std::size_t i = 0; i < variants.size(); ++i) {
    const SynthCacheStats before = synth_cache_stats();
    reduce_circuit(ref, variants[i]);
    const SynthCacheStats after = synth_cache_stats();
    EXPECT_EQ(after.hits, before.hits) << "variant " << i;
    EXPECT_EQ(after.misses - before.misses, 1u) << "variant " << i;
  }
  const SynthCacheStats before = synth_cache_stats();
  reduce_circuit(reducer_reference(0.4 + 1e-12), base);  // angle keys too
  reduce_circuit(ref, base);
  const SynthCacheStats after = synth_cache_stats();
  EXPECT_EQ(after.misses - before.misses, 1u);
  EXPECT_EQ(after.hits - before.hits, 1u);
  clear_synth_cache();
}

TEST(Cache, TimedOutReducerRunIsNotStored) {
  clear_synth_cache();
  const ir::QuantumCircuit ref = reducer_reference(0.5);
  ReducerOptions opts = small_reducer_options();
  const common::CancelToken token = common::CancelToken::make();
  opts.deadline = common::Deadline::never().with_token(token);
  int calls = 0;
  opts.callback = [&](const ApproxCircuit&) {
    if (++calls == 2) token.request_cancel();
  };
  bool timed_out = false;
  const auto truncated = reduce_circuit(ref, opts, &timed_out);
  EXPECT_TRUE(timed_out);
  EXPECT_EQ(truncated.size(), 2u);
  EXPECT_EQ(synth_cache_stats().entries, 0u);

  // The next full run computes (miss) rather than replaying the truncation.
  opts.deadline = common::Deadline::never();
  opts.callback = {};
  const SynthCacheStats before = synth_cache_stats();
  const auto full = reduce_circuit(ref, opts, &timed_out);
  EXPECT_FALSE(timed_out);
  EXPECT_EQ(full.size(), 6u);
  EXPECT_EQ(synth_cache_stats().misses - before.misses, 1u);
  EXPECT_EQ(synth_cache_stats().hits, before.hits);
  clear_synth_cache();
}

// Expiry during the last variant's fit passes no per-variant check: the
// optimizer just returns its best point so far. Such a run is truncated too.
TEST(Cache, ReducerRunExpiringInItsLastFitIsNotStored) {
  clear_synth_cache();
  const ir::QuantumCircuit ref = reducer_reference(0.55);
  ReducerOptions opts = small_reducer_options();
  opts.keep_fractions = {1.0};  // one variant: the boundary fit of the full skeleton
  const common::CancelToken token = common::CancelToken::make();
  opts.deadline = common::Deadline::never().with_token(token);
  int calls = 0;
  opts.callback = [&](const ApproxCircuit&) {
    ++calls;
    token.request_cancel();  // after the last check, as a mid-fit expiry would be
  };
  bool timed_out = false;
  const auto truncated = reduce_circuit(ref, opts, &timed_out);
  EXPECT_EQ(calls, 1);
  EXPECT_EQ(truncated.size(), 1u);
  EXPECT_TRUE(timed_out);
  EXPECT_EQ(synth_cache_stats().entries, 0u);
  clear_synth_cache();
}

TEST(Cache, ReducerFaultFiresOnAWouldBeHit) {
  struct FaultSpecGuard {
    ~FaultSpecGuard() { common::faults::install_spec(""); }
  } guard;
  const std::string spec = "synth:0.5,seed=7";
  common::faults::install_spec(spec);
  std::uint64_t firing = 0;
  while (!common::faults::fires(common::faults::Site::SynthFail, firing)) ++firing;
  common::faults::install_spec("");

  clear_synth_cache();
  const ir::QuantumCircuit ref = reducer_reference(0.6);
  ReducerOptions opts = small_reducer_options();
  opts.seed = firing;
  reduce_circuit(ref, opts);  // stored while faults are off

  common::faults::install_spec(spec);
  const SynthCacheStats before = synth_cache_stats();
  EXPECT_THROW(reduce_circuit(ref, opts), common::SynthesisError);
  EXPECT_EQ(synth_cache_stats().hits, before.hits);  // fired before the lookup
  common::faults::install_spec("");
  reduce_circuit(ref, opts);
  EXPECT_EQ(synth_cache_stats().hits - before.hits, 1u);
  clear_synth_cache();
}

TEST(Cache, ConcurrentReducerLookupsAgree) {
  const std::vector<ir::QuantumCircuit> refs = {reducer_reference(0.7),
                                                reducer_reference(0.8)};
  ReducerOptions opts = small_reducer_options();
  opts.use_cache = false;
  std::vector<std::vector<ApproxCircuit>> expected;
  for (const auto& ref : refs) expected.push_back(reduce_circuit(ref, opts));

  // Four threads race misses, stores and hits on the same two keys: thread
  // t starts on reference t % 2, then reduces both again.
  clear_synth_cache();
  opts.use_cache = true;
  constexpr int kThreads = 4;
  std::vector<std::vector<std::vector<ApproxCircuit>>> got(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < 3; ++i) got[t].push_back(reduce_circuit(refs[(t + i) % 2], opts));
    });
  }
  for (auto& th : threads) th.join();
  for (int t = 0; t < kThreads; ++t)
    for (int i = 0; i < 3; ++i) expect_bit_identical(expected[(t + i) % 2], got[t][i]);
  EXPECT_EQ(synth_cache_stats().entries, 2u);
  clear_synth_cache();
}

}  // namespace
}  // namespace qc::synth

namespace qc::synth {
namespace {

TEST(Invariants, KnownGateClasses) {
  // Local gates: 0 CNOTs.
  ir::QuantumCircuit local(2);
  local.u3(0.3, 0.1, -0.7, 0).u3(1.2, 0.4, 0.2, 1);
  EXPECT_EQ(minimal_cx_count(local.to_unitary()), 0);
  EXPECT_EQ(minimal_cx_count(linalg::Matrix::identity(4)), 0);

  // CX / CZ class: exactly 1.
  EXPECT_EQ(minimal_cx_count(ir::gate_matrix(ir::GateKind::CX, {}, 2)), 1);
  EXPECT_EQ(minimal_cx_count(ir::gate_matrix(ir::GateKind::CZ, {}, 2)), 1);

  // Generic ZZ rotation: 2 (between local and CX classes).
  EXPECT_EQ(minimal_cx_count(ir::gate_matrix(ir::GateKind::RZZ, {0.7}, 2)), 2);

  // SWAP: the classic 3-CNOT gate (gamma = iI — the case that separates
  // the tr^2 invariant from a naive |tr| test).
  EXPECT_EQ(minimal_cx_count(ir::gate_matrix(ir::GateKind::SWAP, {}, 2)), 3);

  // iSWAP class (Weyl (pi/4, pi/4, 0)): tr gamma = 0 but gamma^2 = +I — 2.
  ir::QuantumCircuit iswap_like(2);
  iswap_like.rxx(3.14159265358979 / 2, 0, 1);
  iswap_like.append(ir::Gate(ir::GateKind::RYY, {0, 1}, {3.14159265358979 / 2}));
  EXPECT_EQ(minimal_cx_count(iswap_like.to_unitary()), 2);
}

TEST(Invariants, LocalDressingDoesNotChangeTheCount) {
  common::Rng rng(31);
  for (const auto& kind : {ir::GateKind::CX, ir::GateKind::SWAP}) {
    ir::QuantumCircuit qc(2);
    qc.u3(rng.uniform(0, 3), rng.uniform(-3, 3), rng.uniform(-3, 3), 0);
    qc.u3(rng.uniform(0, 3), rng.uniform(-3, 3), rng.uniform(-3, 3), 1);
    qc.append(ir::Gate(kind, {0, 1}));
    qc.u3(rng.uniform(0, 3), rng.uniform(-3, 3), rng.uniform(-3, 3), 0);
    qc.u3(rng.uniform(0, 3), rng.uniform(-3, 3), rng.uniform(-3, 3), 1);
    const int bare = minimal_cx_count(ir::gate_matrix(kind, {}, 2));
    EXPECT_EQ(minimal_cx_count(qc.to_unitary()), bare) << ir::gate_name(kind);
  }
}

TEST(Invariants, HaarRandomNeedsThree) {
  common::Rng rng(32);
  int threes = 0;
  for (int i = 0; i < 12; ++i)
    threes += minimal_cx_count(linalg::random_unitary(4, rng)) == 3 ? 1 : 0;
  EXPECT_EQ(threes, 12);  // measure-zero exceptions
}

TEST(Invariants, AgreesWithQSearchOptimality) {
  // The depth QSearch certifies as optimal must equal the analytic bound.
  for (const auto& kind : {ir::GateKind::CZ, ir::GateKind::SWAP}) {
    const linalg::Matrix target = ir::gate_matrix(kind, {}, 2);
    QSearchOptions opts;
    opts.max_cnots = 3;
    opts.max_nodes = 40;
    const QSearchResult res = qsearch_synthesize(target, 2, opts);
    ASSERT_TRUE(res.converged) << ir::gate_name(kind);
    EXPECT_EQ(static_cast<int>(res.best.cnot_count), minimal_cx_count(target))
        << ir::gate_name(kind);
  }
}

TEST(Invariants, RejectsNonUnitary) {
  EXPECT_THROW(minimal_cx_count(linalg::Matrix(4, 4)), common::Error);
}

}  // namespace
}  // namespace qc::synth
