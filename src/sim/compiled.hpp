// Compiled noisy-circuit programs: the reusable halves of the trajectory
// engine, split so callers can amortize compilation across repetitions.
//
// A noisy trajectory run has three phases with very different costs:
//
//  * compile — per (circuit, noise model): fetch gate matrices, bind the
//    model's error channels to concrete qubits, precompute mixed-unitary
//    decompositions. Identical for every shot; cached by the engine and
//    shared with the density-matrix engine.
//  * bind    — per trajectory run: prepare every step and branch operator
//    for the state's kernels once (linalg::Prepared), flag identity
//    branches, precompute K†K for Born weights. Kept out of the compiled
//    cache so exact-engine runs never pay for it.
//  * evolve  — per shot: walk the bound steps over a fresh state vector,
//    sampling noise branches from an RNG stream.
//
// The seed TrajectoryBackend fused both phases inside run_counts; the
// execution engine (src/exec) caches CompiledCircuit programs per
// (transpiled circuit, noise model) and fans evolve out across threads with
// counter-based per-shot RNG streams (qsim/Cirq amortize noisy trajectory
// repetitions the same way, Isakov et al., arXiv:2111.02396).
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <vector>

#include "common/deadline.hpp"
#include "common/rng.hpp"
#include "ir/circuit.hpp"
#include "linalg/kernels.hpp"
#include "noise/noise_model.hpp"
#include "sim/statevector.hpp"

namespace qc::sim {

/// One precompiled noise channel bound to concrete qubits: either a
/// mixed-unitary sampler (state-independent branch weights — depolarizing,
/// Pauli, coherent errors) or a general Kraus set requiring Born-weighted
/// branching (relaxation).
struct CompiledNoiseOp {
  std::vector<int> qubits;
  bool mixed_unitary = false;
  std::vector<double> probs;              // mixed-unitary branch weights
  std::vector<linalg::Matrix> operators;  // unitaries or raw Kraus ops
  std::vector<linalg::Matrix> adjoints;   // operator adjoints, hoisted here so
                                          // DM evolution never recomputes them
};

/// One gate application plus the noise that follows it. After fusion a step's
/// unitary may be the product of several adjacent source gates.
struct CompiledStep {
  std::vector<int> qubits;
  linalg::Matrix unitary;
  std::vector<CompiledNoiseOp> noise;
  linalg::Matrix unitary_adjoint;  // precomputed for density-matrix evolution
  linalg::KernelKind kernel = linalg::KernelKind::GenericK;  // dispatch class
  std::size_t source_count = 1;    // source gates folded into this step
};

/// Per-arity fused-block tally: index k in [1, 4] counts compiled steps on k
/// qubits whose unitary is the product of >= 2 source gates (index 0 unused).
using FusedBlocksByK = std::array<std::size_t, 5>;

/// A full shot-replayable program: self-contained (owns gate qubit lists and
/// matrices), safe to share across threads once built.
struct CompiledCircuit {
  int num_qubits = 0;
  std::vector<CompiledStep> steps;
  std::vector<noise::ReadoutError> readout;  // sliced to the circuit's width
  std::size_t source_gates = 0;  // unitary gates before fusion
  std::size_t fused_gates = 0;   // gates merged into a neighbouring step
  FusedBlocksByK fused_blocks_by_k{};  // fused steps by final arity
  linalg::KernelCounts kernel_counts;  // dispatch classes of the final steps
};

/// Gate-matrix provider hook: lets the execution engine serve matrices from
/// its session-level cache. Empty function -> Gate::matrix() directly.
using GateMatrixFn = std::function<linalg::Matrix(const ir::Gate&)>;

struct CompileOptions {
  /// Fuse a step into its successor when the step carries no noise, the two
  /// overlap on at least one qubit, and the union stays within
  /// `max_fuse_qubits` (so the fused matrix still hits a specialized
  /// kernel). Noise draws keep their order — only noise-free unitaries merge
  /// — so trajectory RNG streams are unchanged; amplitudes agree to rounding
  /// (~1e-15).
  bool fuse_steps = true;
  /// Largest qubit union a fused step may grow to, clamped to [1, 4] (the
  /// widest specialized kernel). Greedy growth keeps folding overlapping
  /// noise-free gates into the trailing step until the union would exceed
  /// this, turning noise-free regions into dense 8x8/16x16 blocks
  /// (qsim/Cirq's gate-fusion recipe, Isakov et al., arXiv:2111.02396).
  /// 2 reproduces the pre-k<=4 behaviour; 1 allows only same-qubit runs.
  int max_fuse_qubits = 4;
};

/// Compiles `circuit` against `model` once (phase 1 above). Noise ops that
/// touch device qubits outside the circuit's register (crosstalk spectators,
/// which start in |0> and trace out) are dropped, as in the seed backends.
CompiledCircuit compile_noisy_circuit(const ir::QuantumCircuit& circuit,
                                      const noise::NoiseModel& model,
                                      const GateMatrixFn& matrix_fn = {},
                                      const CompileOptions& options = {});

/// A compiled noise channel bound for shot replay.
struct BoundChannel {
  bool mixed_unitary = false;
  const std::vector<double>* probs = nullptr;  // mixed-unitary branch weights
  std::vector<linalg::Prepared> ops;           // one per branch
  /// Mixed-unitary only: branch i equals the identity to 1e-14 (the dominant
  /// depolarizing branch). It is still drawn, then skipped.
  std::vector<std::uint8_t> identity;
  /// General Kraus only: K_i†K_i, row-major 2^k x 2^k blocks (k <= 4) laid
  /// end to end, so the Born weight of branch i is Tr(K_i†K_i rho_red) over
  /// one reduced density matrix.
  std::vector<linalg::cplx> effects;
  std::size_t effect_dim = 0;  // 2^k
};

/// A compiled step bound for shot replay.
struct BoundStep {
  linalg::Prepared unitary;
  std::vector<BoundChannel> noise;
};

/// A CompiledCircuit bound to the state-vector kernels for one trajectory
/// run (phase 2 above). Borrows the compiled program's matrices and qubit
/// lists, so it must not outlive `compiled`; read-only once built, so one
/// program serves every thread of the run. The kernels are the ISA variants
/// active at bind time.
struct TrajectoryProgram {
  explicit TrajectoryProgram(const CompiledCircuit& compiled);
  const CompiledCircuit& compiled;
  std::vector<BoundStep> steps;
};

/// Per-task reusable buffers for trajectory evolution: one state vector that
/// is reset (not reallocated) every shot, Born weights, and the reduced
/// density matrix they are read from.
struct TrajectoryScratch {
  explicit TrajectoryScratch(int num_qubits) : state(num_qubits) {}
  StateVector state;
  std::vector<double> weights;
  std::array<linalg::cplx, 256> reduced{};  // 2^k x 2^k, k <= 4
};

/// Relative tolerance on |norm² - 1| after a shot's step loop. Unitary and
/// renormalized-Kraus applications preserve the norm to rounding, so drift
/// beyond this means the state is corrupt (NaN amplitudes, a broken kernel, an
/// injected fault) and the shot throws SimulationError instead of sampling
/// garbage.
inline constexpr double kNormDriftTolerance = 1e-6;

/// Evolves one shot: |0...0> through every bound step, measurement sample,
/// readout bit flips. All randomness is drawn from `rng` in a fixed order:
/// one draw per noise channel (identity branches included), then the
/// measurement, then the readout flips. General Kraus channels pick branch i
/// with Born weight Tr(K_i†K_i rho_red), then renormalize. Throws
/// SimulationError when the final state fails the norm-drift guard.
/// `fault_stream` keys deterministic NaN injection (faults::Site::StateNan);
/// callers with no stable stream id pass 0.
std::uint64_t run_trajectory_shot(const TrajectoryProgram& program,
                                  common::Rng& rng, TrajectoryScratch& scratch,
                                  std::uint64_t fault_stream = 0);

/// Convenience wrapper: binds `compiled` and allocates buffers for one shot.
std::uint64_t run_trajectory_shot(const CompiledCircuit& compiled, common::Rng& rng);

/// Serial shot loop over one shared RNG stream (the seed TrajectoryBackend
/// semantics — kept for the Backend API). Binds once per call.
std::vector<std::uint64_t> trajectory_counts(const CompiledCircuit& compiled,
                                             std::size_t shots, common::Rng& rng);

/// Shot range [shot_begin, shot_end) with one counter-derived RNG stream per
/// shot index (common::derive_stream_seed(seed, shot)). Disjoint ranges can
/// run on different threads and their counts summed; the totals are
/// bit-identical for every partition, hence every thread count. Binds once
/// per call.
std::vector<std::uint64_t> trajectory_counts_streamed(const CompiledCircuit& compiled,
                                                      std::size_t shot_begin,
                                                      std::size_t shot_end,
                                                      std::uint64_t seed);

/// Deadline-aware variant over an already-bound program (the execution
/// engine binds once per run and shares it across blocks): polls `deadline`
/// between shots and stops early on expiry, returning the counts accumulated
/// so far. `*completed` (if non-null) receives the number of shots actually
/// run from this range. The per-shot streams are unchanged, so completed
/// shots are bit-identical to an unbounded run's.
std::vector<std::uint64_t> trajectory_counts_streamed(const TrajectoryProgram& program,
                                                      std::size_t shot_begin,
                                                      std::size_t shot_end,
                                                      std::uint64_t seed,
                                                      const common::Deadline& deadline,
                                                      std::size_t* completed);

/// Exact noisy evolution of `circuit` under `model` (density matrix + exact
/// readout confusion), normalized. The DensityMatrixBackend delegates here;
/// compiles internally, then runs the compiled overload below.
std::vector<double> density_matrix_probabilities(const ir::QuantumCircuit& circuit,
                                                 const noise::NoiseModel& model);

/// Exact noisy evolution of an already-compiled program, using its hoisted
/// unitary/Kraus adjoints. The execution engine calls this with cached
/// CompiledCircuits so repeated DM runs skip compilation and adjoints.
/// Throws SimulationError when the evolved trace drifts (corrupt state).
std::vector<double> density_matrix_probabilities(const CompiledCircuit& compiled);

/// Deadline-aware variant: polls between steps; on expiry sets `*timed_out`
/// and returns the distribution of the partially evolved state (readout error
/// still applied) as a best-effort answer.
std::vector<double> density_matrix_probabilities(const CompiledCircuit& compiled,
                                                 const common::Deadline& deadline,
                                                 bool* timed_out);

/// Noise-free evolution of a compiled program (every step must carry no
/// noise, e.g. compiled against NoiseModel::ideal): one state-vector pass.
std::vector<double> statevector_probabilities(const CompiledCircuit& compiled);

/// Deadline-aware variant: polls between steps; on expiry sets `*timed_out`
/// and returns the partially evolved state's distribution.
std::vector<double> statevector_probabilities(const CompiledCircuit& compiled,
                                              const common::Deadline& deadline,
                                              bool* timed_out);

/// Samples `shots` outcomes from a (normalized) distribution via cumulative
/// sums + binary search — O(2^n + shots log 2^n), replacing the seed's
/// O(shots * 2^n) linear scan.
std::vector<std::uint64_t> sample_counts_from_probs(const std::vector<double>& probs,
                                                    std::size_t shots,
                                                    common::Rng& rng);

}  // namespace qc::sim
