// Pure-state simulator.
//
// The ideal-execution engine (noise-free references) and the per-shot engine
// inside the trajectory backend. Amplitudes are indexed with qubit 0 as the
// least-significant bit.
#pragma once

#include <cstdint>
#include <vector>

#include "common/rng.hpp"
#include "ir/circuit.hpp"
#include "linalg/kernels.hpp"
#include "linalg/matrix.hpp"

namespace qc::sim {

class StateVector {
 public:
  /// |0...0> on `num_qubits` qubits.
  explicit StateVector(int num_qubits);
  /// Adopts an explicit amplitude vector (must have 2^n entries, norm 1).
  StateVector(int num_qubits, std::vector<linalg::cplx> amplitudes);

  int num_qubits() const { return num_qubits_; }
  const std::vector<linalg::cplx>& amplitudes() const { return amps_; }

  /// Applies one unitary gate.
  void apply(const ir::Gate& gate);
  /// Applies every unitary gate of the circuit in order (skips barriers;
  /// throws on Measure — use sample()/probabilities() for output).
  void apply(const ir::QuantumCircuit& circuit);
  /// Applies an arbitrary operator matrix on the given qubits (also used for
  /// normalized Kraus operators during trajectory evolution). Dispatches to
  /// the specialized kernels in linalg/kernels.hpp by operator shape.
  void apply_matrix(const linalg::Matrix& op, const std::vector<int>& qubits);
  /// Applies an operator already bound to this state's size
  /// (linalg::prepare with dim 2^n): the bare kernel, nothing re-derived.
  void apply_prepared(const linalg::Prepared& op);

  /// Back to |0...0> without reallocating; lets trajectory loops reuse one
  /// amplitude buffer across shots.
  void reset();

  /// Exact outcome distribution |amp|^2 (size 2^n).
  std::vector<double> probabilities() const;
  /// Probability that qubit q reads 1.
  double probability_one(int q) const;
  /// <psi| Z_q |psi>.
  double expectation_z(int q) const;

  /// Squared norm (should stay 1 within rounding; trajectory code
  /// renormalizes after Kraus jumps).
  double norm_squared() const;
  void normalize();

  /// Samples one outcome index from the Born distribution.
  std::uint64_t sample(common::Rng& rng) const;
  /// Samples `shots` outcomes; returns counts indexed by outcome.
  std::vector<std::uint64_t> sample_counts(std::size_t shots, common::Rng& rng) const;

 private:
  int num_qubits_;
  std::vector<linalg::cplx> amps_;
};

}  // namespace qc::sim
