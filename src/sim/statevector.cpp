#include "sim/statevector.hpp"

#include <cmath>

#include "common/error.hpp"
#include "linalg/kernels.hpp"

namespace qc::sim {

using linalg::cplx;

StateVector::StateVector(int num_qubits)
    : num_qubits_(num_qubits), amps_(std::size_t{1} << num_qubits, cplx{0.0, 0.0}) {
  QC_CHECK(num_qubits > 0 && num_qubits <= 24);
  amps_[0] = cplx{1.0, 0.0};
}

StateVector::StateVector(int num_qubits, std::vector<cplx> amplitudes)
    : num_qubits_(num_qubits), amps_(std::move(amplitudes)) {
  QC_CHECK(num_qubits > 0 && num_qubits <= 24);
  QC_CHECK_MSG(amps_.size() == (std::size_t{1} << num_qubits),
               "amplitude vector must have 2^n entries");
  QC_CHECK_MSG(std::abs(norm_squared() - 1.0) < 1e-6, "state must be normalized");
}

void StateVector::apply(const ir::Gate& gate) {
  QC_CHECK_MSG(ir::gate_is_unitary(gate.kind) || gate.kind == ir::GateKind::Barrier,
               "cannot apply a measurement as a unitary");
  // Kind-based fast paths skip the gate-matrix construction entirely for the
  // permutation / diagonal gates; everything else classifies via dispatch.
  switch (gate.kind) {
    case ir::GateKind::Barrier:
      return;
    case ir::GateKind::CX:
      linalg::apply_cx(amps_, gate.qubits[0], gate.qubits[1]);
      return;
    case ir::GateKind::CZ:
      linalg::apply_cz(amps_, gate.qubits[0], gate.qubits[1]);
      return;
    case ir::GateKind::Z:
      linalg::apply_diag1(amps_, {1.0, 0.0}, {-1.0, 0.0}, gate.qubits[0]);
      return;
    case ir::GateKind::S:
      linalg::apply_diag1(amps_, {1.0, 0.0}, {0.0, 1.0}, gate.qubits[0]);
      return;
    case ir::GateKind::Sdg:
      linalg::apply_diag1(amps_, {1.0, 0.0}, {0.0, -1.0}, gate.qubits[0]);
      return;
    case ir::GateKind::P:
      linalg::apply_diag1(amps_, {1.0, 0.0}, std::polar(1.0, gate.params[0]),
                          gate.qubits[0]);
      return;
    case ir::GateKind::RZ:
      linalg::apply_diag1(amps_, std::polar(1.0, -gate.params[0] / 2.0),
                          std::polar(1.0, gate.params[0] / 2.0), gate.qubits[0]);
      return;
    default:
      linalg::apply_operator(amps_, gate.matrix(), gate.qubits);
  }
}

void StateVector::apply(const ir::QuantumCircuit& circuit) {
  QC_CHECK(circuit.num_qubits() <= num_qubits_);
  for (const ir::Gate& g : circuit.gates()) {
    if (g.kind == ir::GateKind::Measure) continue;  // terminal measurement: no-op here
    apply(g);
  }
}

void StateVector::apply_matrix(const linalg::Matrix& op, const std::vector<int>& qubits) {
  linalg::apply_operator(amps_, op, qubits);
}

void StateVector::apply_prepared(const linalg::Prepared& op) {
  linalg::apply_prepared(amps_, op);
}

void StateVector::reset() {
  std::fill(amps_.begin(), amps_.end(), cplx{0.0, 0.0});
  amps_[0] = cplx{1.0, 0.0};
}

std::vector<double> StateVector::probabilities() const {
  std::vector<double> p(amps_.size());
  for (std::size_t i = 0; i < amps_.size(); ++i) p[i] = std::norm(amps_[i]);
  return p;
}

double StateVector::probability_one(int q) const {
  QC_CHECK(q >= 0 && q < num_qubits_);
  const std::size_t bit = std::size_t{1} << q;
  double p = 0.0;
  for (std::size_t i = 0; i < amps_.size(); ++i)
    if (i & bit) p += std::norm(amps_[i]);
  return p;
}

double StateVector::expectation_z(int q) const { return 1.0 - 2.0 * probability_one(q); }

double StateVector::norm_squared() const {
  double s = 0.0;
  for (const auto& a : amps_) s += std::norm(a);
  return s;
}

void StateVector::normalize() {
  const double n = std::sqrt(norm_squared());
  QC_CHECK_MSG(n > 1e-150, "cannot normalize a zero state");
  for (auto& a : amps_) a /= n;
}

std::uint64_t StateVector::sample(common::Rng& rng) const {
  double x = rng.uniform();
  for (std::size_t i = 0; i < amps_.size(); ++i) {
    x -= std::norm(amps_[i]);
    if (x < 0.0) return i;
  }
  return amps_.size() - 1;
}

std::vector<std::uint64_t> StateVector::sample_counts(std::size_t shots,
                                                      common::Rng& rng) const {
  std::vector<std::uint64_t> counts(amps_.size(), 0);
  for (std::size_t s = 0; s < shots; ++s) ++counts[sample(rng)];
  return counts;
}

}  // namespace qc::sim
