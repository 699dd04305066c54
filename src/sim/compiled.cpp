#include "sim/compiled.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <sstream>

#include "common/error.hpp"
#include "common/faults.hpp"
#include "linalg/embed.hpp"
#include "metrics/distribution.hpp"
#include "noise/readout.hpp"
#include "obs/obs.hpp"
#include "sim/density_matrix.hpp"

namespace qc::sim {

namespace {

std::vector<noise::ReadoutError> readout_slice(const noise::NoiseModel& model, int n) {
  const auto& all = model.readout_errors();
  QC_CHECK(all.size() >= static_cast<std::size_t>(n));
  return {all.begin(), all.begin() + n};
}

/// Folds `u` on `qubits` into `prev` (prev runs first) when the two share a
/// qubit and their union stays within `max_qubits`, so the fused matrix still
/// dispatches to a specialized kernel. Returns false without touching `prev`
/// otherwise.
bool fuse_into(CompiledStep& prev, const linalg::Matrix& u,
               const std::vector<int>& qubits, std::size_t max_qubits) {
  std::vector<int> merged = prev.qubits;
  bool overlap = false;
  for (int q : qubits) {
    if (std::find(merged.begin(), merged.end(), q) != merged.end())
      overlap = true;
    else
      merged.push_back(q);
  }
  if (!overlap || merged.size() > max_qubits) return false;
  std::sort(merged.begin(), merged.end());
  const auto positions = [&merged](const std::vector<int>& qs) {
    std::vector<int> out;
    out.reserve(qs.size());
    for (int q : qs)
      out.push_back(static_cast<int>(
          std::find(merged.begin(), merged.end(), q) - merged.begin()));
    return out;
  };
  const int k = static_cast<int>(merged.size());
  prev.unitary = linalg::embed(u, positions(qubits), k) *
                 linalg::embed(prev.unitary, positions(prev.qubits), k);
  prev.qubits = std::move(merged);
  ++prev.source_count;
  return true;
}

}  // namespace

CompiledCircuit compile_noisy_circuit(const ir::QuantumCircuit& circuit,
                                      const noise::NoiseModel& model,
                                      const GateMatrixFn& matrix_fn,
                                      const CompileOptions& options) {
  QC_CHECK_MSG(circuit.num_qubits() <= model.num_qubits(),
               "circuit wider than the noise model's device");
  static obs::Histogram& compile_ns = obs::histogram("sim.compile_ns");
  obs::Span span("sim.compile", &compile_ns);
  CompiledCircuit compiled;
  compiled.num_qubits = circuit.num_qubits();
  compiled.readout = readout_slice(model, circuit.num_qubits());
  const std::size_t max_fuse = static_cast<std::size_t>(
      std::clamp(options.max_fuse_qubits, 1, 4));
  for (const ir::Gate& g : circuit.gates()) {
    if (g.kind == ir::GateKind::Measure || g.kind == ir::GateKind::Barrier) continue;
    ++compiled.source_gates;
    CompiledStep step{g.qubits, matrix_fn ? matrix_fn(g) : g.matrix(), {}};
    for (noise::NoiseOp& op : model.ops_for_gate(g)) {
      // Crosstalk ops can touch spectator qubits outside the circuit's
      // register (device qubits the circuit never uses); those spectators
      // start in |0> and are traced out implicitly, so skip them.
      bool in_range = true;
      for (int q : op.qubits)
        if (q >= circuit.num_qubits()) in_range = false;
      if (!in_range) continue;
      CompiledNoiseOp cop;
      cop.qubits = op.qubits;
      cop.mixed_unitary = op.channel.mixed_unitary_form(cop.probs, cop.operators);
      if (!cop.mixed_unitary) cop.operators = op.channel.kraus();
      step.noise.push_back(std::move(cop));
    }
    // Fusion: a preceding step with no noise draws nothing from the RNG, so
    // folding it into this step preserves the shot-replay stream exactly.
    if (options.fuse_steps && !compiled.steps.empty() &&
        compiled.steps.back().noise.empty() &&
        fuse_into(compiled.steps.back(), step.unitary, step.qubits, max_fuse)) {
      compiled.steps.back().noise = std::move(step.noise);
      ++compiled.fused_gates;
      continue;
    }
    compiled.steps.push_back(std::move(step));
  }
  // Hoist what every replay would otherwise recompute: unitary and Kraus
  // adjoints for density-matrix evolution, and the kernel class of each step.
  for (CompiledStep& step : compiled.steps) {
    step.unitary_adjoint = step.unitary.adjoint();
    step.kernel = linalg::classify_kernel(step.unitary);
    compiled.kernel_counts.add(step.kernel);
    if (step.source_count > 1 && step.qubits.size() < compiled.fused_blocks_by_k.size())
      ++compiled.fused_blocks_by_k[step.qubits.size()];
    for (CompiledNoiseOp& op : step.noise) {
      op.adjoints.reserve(op.operators.size());
      for (const linalg::Matrix& k : op.operators)
        op.adjoints.push_back(k.adjoint());
    }
  }
  // Fusion effectiveness across the whole process; the per-run view lives in
  // RunRecord::{fused_gates, kernel_counts}.
  struct FusionCounters {
    obs::Counter& compiles{obs::counter("sim.compile.circuits")};
    obs::Counter& source{obs::counter("sim.compile.source_gates")};
    obs::Counter& fused{obs::counter("sim.compile.fused_gates")};
    obs::Counter& steps{obs::counter("sim.compile.steps")};
    obs::Counter& blocks_k1{obs::counter("sim.compile.fused_blocks.k1")};
    obs::Counter& blocks_k2{obs::counter("sim.compile.fused_blocks.k2")};
    obs::Counter& blocks_k3{obs::counter("sim.compile.fused_blocks.k3")};
    obs::Counter& blocks_k4{obs::counter("sim.compile.fused_blocks.k4")};
  };
  static FusionCounters c;
  c.compiles.add(1);
  c.source.add(compiled.source_gates);
  c.fused.add(compiled.fused_gates);
  c.steps.add(compiled.steps.size());
  c.blocks_k1.add(compiled.fused_blocks_by_k[1]);
  c.blocks_k2.add(compiled.fused_blocks_by_k[2]);
  c.blocks_k3.add(compiled.fused_blocks_by_k[3]);
  c.blocks_k4.add(compiled.fused_blocks_by_k[4]);
  if (span.active()) {
    span.arg("qubits", compiled.num_qubits);
    span.arg("source_gates", compiled.source_gates);
    span.arg("fused_gates", compiled.fused_gates);
    span.arg("steps", compiled.steps.size());
  }
  return compiled;
}

namespace {

/// 2x2 all-NaN operator used by the StateNan fault site: one application
/// poisons every amplitude, exactly like a broken kernel would.
const linalg::Matrix& nan_matrix() {
  static const linalg::Matrix m = [] {
    const auto nan = std::numeric_limits<double>::quiet_NaN();
    linalg::Matrix out(2, 2);
    for (std::size_t r = 0; r < 2; ++r)
      for (std::size_t c = 0; c < 2; ++c) out(r, c) = linalg::cplx(nan, nan);
    return out;
  }();
  return m;
}

/// Norm-drift guard: NaN, infinity, and drift all fail the negated
/// comparison, so a corrupt state is reported instead of sampled.
void check_state_norm(double norm_squared) {
  if (std::fabs(norm_squared - 1.0) <= kNormDriftTolerance) return;
  std::ostringstream os;
  os << "trajectory state corrupt: |psi|^2 = " << norm_squared
     << " after step loop (norm-drift guard, tolerance " << kNormDriftTolerance
     << ")";
  throw common::SimulationError(os.str());
}

/// Mixed-unitary branches whose entries lie this close to the identity's
/// are skipped instead of applied: the depolarizing identity branch,
/// rescaled by 1/sqrt(p), differs from I by rounding only.
constexpr double kIdentityBranchTolerance = 1e-14;

/// True when a prepared operator is the identity to kIdentityBranchTolerance.
/// Only the diagonal kernel classes can be (their off-diagonals are exactly
/// zero), so the diagonal's real and imaginary parts decide.
bool is_identity(const linalg::Prepared& p) {
  switch (p.kind) {
    case linalg::KernelKind::OneQDiag:
    case linalg::KernelKind::TwoQDiag:
    case linalg::KernelKind::ThreeQDiag:
    case linalg::KernelKind::FourQDiag: break;
    default: return false;
  }
  for (std::size_t s = 0; s < (std::size_t{1} << p.k); ++s)
    if (std::fabs(p.d[s].real() - 1.0) > kIdentityBranchTolerance ||
        std::fabs(p.d[s].imag()) > kIdentityBranchTolerance)
      return false;
  return true;
}

BoundChannel bind_channel(const CompiledNoiseOp& op, std::size_t dim) {
  BoundChannel ch;
  ch.mixed_unitary = op.mixed_unitary;
  ch.ops.reserve(op.operators.size());
  for (const linalg::Matrix& m : op.operators)
    ch.ops.push_back(linalg::prepare(m, op.qubits, dim));
  if (op.mixed_unitary) {
    ch.probs = &op.probs;
    ch.identity.reserve(ch.ops.size());
    for (const linalg::Prepared& p : ch.ops) ch.identity.push_back(is_identity(p));
    return ch;
  }
  QC_CHECK_MSG(!op.operators.empty() && op.qubits.size() <= 4,
               "trajectory Kraus channels cover 1..4 qubits");
  // effects[i] = K_i†K_i, entry (a, b) = sum_r conj(K_i(r, a)) K_i(r, b).
  const std::size_t sub = op.operators.front().rows();
  ch.effect_dim = sub;
  ch.effects.assign(op.operators.size() * sub * sub, linalg::cplx{0.0, 0.0});
  for (std::size_t i = 0; i < op.operators.size(); ++i) {
    const linalg::Matrix& k = op.operators[i];
    linalg::cplx* e = ch.effects.data() + i * sub * sub;
    for (std::size_t r = 0; r < sub; ++r)
      for (std::size_t a = 0; a < sub; ++a)
        for (std::size_t b = 0; b < sub; ++b)
          e[a * sub + b] += std::conj(k(r, a)) * k(r, b);
  }
  return ch;
}

/// Born weights p_i = ||K_i psi||^2 = Tr(K_i†K_i rho_red): one pass over the
/// state builds the 2^k x 2^k reduced density matrix, then each weight is a
/// 4^k-term trace. Clamped at 0 against rounding below zero.
void born_weights(const StateVector& state, const BoundChannel& ch,
                  TrajectoryScratch& scratch) {
  const linalg::cplx* rho = scratch.reduced.data();
  linalg::reduced_density_matrix(state.amplitudes(), ch.ops.front(),
                                 scratch.reduced.data());
  const std::size_t terms = ch.effect_dim * ch.effect_dim;
  scratch.weights.resize(ch.ops.size());
  for (std::size_t i = 0; i < ch.ops.size(); ++i) {
    // Tr(E rho) = sum_ab E_ab rho_ba = sum_ab Re(E_ab conj(rho_ab)), rho
    // Hermitian: a straight dot product over the two row-major arrays.
    const linalg::cplx* e = ch.effects.data() + i * terms;
    double w = 0.0;
    for (std::size_t t = 0; t < terms; ++t)
      w += e[t].real() * rho[t].real() + e[t].imag() * rho[t].imag();
    scratch.weights[i] = std::max(0.0, w);
  }
}

}  // namespace

TrajectoryProgram::TrajectoryProgram(const CompiledCircuit& compiled_circuit)
    : compiled(compiled_circuit) {
  const std::size_t dim = std::size_t{1} << compiled.num_qubits;
  steps.reserve(compiled.steps.size());
  for (const CompiledStep& step : compiled.steps) {
    BoundStep bound{linalg::prepare(step.unitary, step.qubits, dim), {}};
    bound.noise.reserve(step.noise.size());
    for (const CompiledNoiseOp& op : step.noise)
      bound.noise.push_back(bind_channel(op, dim));
    steps.push_back(std::move(bound));
  }
}

std::uint64_t run_trajectory_shot(const TrajectoryProgram& program,
                                  common::Rng& rng, TrajectoryScratch& scratch,
                                  std::uint64_t fault_stream) {
  StateVector& state = scratch.state;
  state.reset();
  for (const BoundStep& step : program.steps) {
    state.apply_prepared(step.unitary);
    for (const BoundChannel& ch : step.noise) {
      if (ch.mixed_unitary) {
        // Branch weights are state independent: sample, apply one unitary.
        const std::size_t pick = rng.discrete(*ch.probs);
        if (!ch.identity[pick]) state.apply_prepared(ch.ops[pick]);
        continue;
      }
      // General quantum-trajectory step: Born-weighted branch pick, then the
      // picked operator is applied to the live state and renormalized.
      born_weights(state, ch, scratch);
      const std::size_t pick = rng.discrete(scratch.weights);
      state.apply_prepared(ch.ops[pick]);
      state.normalize();
    }
  }
  // Fault firing never touches `rng`, so non-faulted shots draw the exact
  // same stream with or without injection armed.
  if (common::faults::enabled() &&
      common::faults::fires(common::faults::Site::StateNan, fault_stream)) {
    state.apply_matrix(nan_matrix(), {0});
  }
  check_state_norm(state.norm_squared());
  std::uint64_t outcome = state.sample(rng);
  return noise::sample_readout_flip(outcome, program.compiled.readout, rng);
}

std::uint64_t run_trajectory_shot(const CompiledCircuit& compiled, common::Rng& rng) {
  const TrajectoryProgram program(compiled);
  TrajectoryScratch scratch(compiled.num_qubits);
  return run_trajectory_shot(program, rng, scratch);
}

std::vector<std::uint64_t> trajectory_counts(const CompiledCircuit& compiled,
                                             std::size_t shots, common::Rng& rng) {
  const TrajectoryProgram program(compiled);
  std::vector<std::uint64_t> counts(std::size_t{1} << compiled.num_qubits, 0);
  TrajectoryScratch scratch(compiled.num_qubits);
  for (std::size_t shot = 0; shot < shots; ++shot)
    ++counts[run_trajectory_shot(program, rng, scratch)];
  return counts;
}

std::vector<std::uint64_t> trajectory_counts_streamed(const CompiledCircuit& compiled,
                                                      std::size_t shot_begin,
                                                      std::size_t shot_end,
                                                      std::uint64_t seed) {
  return trajectory_counts_streamed(TrajectoryProgram(compiled), shot_begin,
                                    shot_end, seed, common::Deadline::never(),
                                    nullptr);
}

std::vector<std::uint64_t> trajectory_counts_streamed(const TrajectoryProgram& program,
                                                      std::size_t shot_begin,
                                                      std::size_t shot_end,
                                                      std::uint64_t seed,
                                                      const common::Deadline& deadline,
                                                      std::size_t* completed) {
  const int num_qubits = program.compiled.num_qubits;
  std::vector<std::uint64_t> counts(std::size_t{1} << num_qubits, 0);
  TrajectoryScratch scratch(num_qubits);
  common::StopPoller poller(deadline, /*stride=*/4);
  std::size_t done = 0;
  for (std::size_t shot = shot_begin; shot < shot_end; ++shot) {
    if (poller.should_stop()) break;
    const std::uint64_t stream = common::derive_stream_seed(seed, shot);
    common::Rng rng(stream);
    // The per-shot stream seed doubles as the NaN-fault stream id: stable
    // across thread counts and block partitions.
    ++counts[run_trajectory_shot(program, rng, scratch, stream)];
    ++done;
  }
  if (completed != nullptr) *completed = done;
  return counts;
}

namespace {

/// Trace-drift guard for the exact engines: the raw outcome mass must be
/// finite and near 1 before normalization smooths corruption away.
void check_outcome_mass(const std::vector<double>& probs, const char* engine) {
  double mass = 0.0;
  for (double p : probs) mass += p;
  if (std::fabs(mass - 1.0) <= kNormDriftTolerance) return;
  std::ostringstream os;
  os << engine << " state corrupt: outcome mass = " << mass
     << " (norm-drift guard, tolerance " << kNormDriftTolerance << ")";
  throw common::SimulationError(os.str());
}

}  // namespace

std::vector<double> density_matrix_probabilities(const CompiledCircuit& compiled) {
  bool timed_out = false;
  return density_matrix_probabilities(compiled, common::Deadline::never(),
                                      &timed_out);
}

std::vector<double> density_matrix_probabilities(const CompiledCircuit& compiled,
                                                 const common::Deadline& deadline,
                                                 bool* timed_out) {
  DensityMatrix rho(compiled.num_qubits);
  common::StopPoller poller(deadline, /*stride=*/1);
  for (const CompiledStep& step : compiled.steps) {
    if (poller.should_stop()) break;
    rho.apply_unitary(step.unitary, step.unitary_adjoint, step.qubits);
    for (const CompiledNoiseOp& op : step.noise)
      rho.apply_kraus(op.operators, op.adjoints,
                      op.mixed_unitary ? &op.probs : nullptr, op.qubits);
  }
  if (timed_out != nullptr) *timed_out = poller.triggered();
  auto probs = rho.probabilities();
  check_outcome_mass(probs, "density-matrix");
  probs = noise::apply_readout_error(probs, compiled.readout);
  return metrics::normalized(std::move(probs));
}

std::vector<double> density_matrix_probabilities(const ir::QuantumCircuit& circuit,
                                                 const noise::NoiseModel& model) {
  return density_matrix_probabilities(compile_noisy_circuit(circuit, model));
}

std::vector<double> statevector_probabilities(const CompiledCircuit& compiled) {
  bool timed_out = false;
  return statevector_probabilities(compiled, common::Deadline::never(),
                                   &timed_out);
}

std::vector<double> statevector_probabilities(const CompiledCircuit& compiled,
                                              const common::Deadline& deadline,
                                              bool* timed_out) {
  StateVector state(compiled.num_qubits);
  common::StopPoller poller(deadline, /*stride=*/1);
  for (const CompiledStep& step : compiled.steps) {
    QC_CHECK_MSG(step.noise.empty(),
                 "statevector_probabilities requires a noise-free program");
    if (poller.should_stop()) break;
    state.apply_matrix(step.unitary, step.qubits);
  }
  if (timed_out != nullptr) *timed_out = poller.triggered();
  auto probs = state.probabilities();
  check_outcome_mass(probs, "statevector");
  return probs;
}

std::vector<std::uint64_t> sample_counts_from_probs(const std::vector<double>& probs,
                                                    std::size_t shots,
                                                    common::Rng& rng) {
  QC_CHECK(!probs.empty());
  std::vector<double> cdf(probs.size());
  double acc = 0.0;
  for (std::size_t i = 0; i < probs.size(); ++i) {
    acc += probs[i];
    cdf[i] = acc;
  }
  std::vector<std::uint64_t> counts(probs.size(), 0);
  for (std::size_t s = 0; s < shots; ++s) {
    const double x = rng.uniform();
    // First bucket whose cumulative mass exceeds x — the same pick the seed's
    // linear subtraction scan made, up to rounding-order ties.
    auto it = std::upper_bound(cdf.begin(), cdf.end(), x);
    const std::size_t idx =
        it == cdf.end() ? probs.size() - 1
                        : static_cast<std::size_t>(it - cdf.begin());
    ++counts[idx];
  }
  return counts;
}

}  // namespace qc::sim
