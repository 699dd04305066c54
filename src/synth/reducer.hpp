// Perturbative circuit reducer: the third approximation generator.
//
// Takes a reference circuit, deletes subsets of its CNOTs, and re-optimizes
// single-qubit freedom against the reference unitary. Two regimes:
//
//  * "full"     — the kept CX skeleton is re-dressed with a fresh U3 layer
//                 everywhere (QSearch-shaped template) and fully optimized.
//                 Best quality; cost grows with the skeleton, so it is used
//                 for shallow results.
//  * "boundary" — the kept sub-circuit (original angles) is frozen and only
//                 a leading and trailing U3 layer are optimized. O(6n)
//                 parameters regardless of depth, so it populates the deep
//                 end (tens-hundreds of CNOTs) of the approximation clouds
//                 that the 4/5-qubit Toffoli and hardware figures show,
//                 where tree search cannot reach in bounded time (see
//                 DESIGN.md substitution notes).
#pragma once

#include "synth/qsearch.hpp"

namespace qc::synth {

struct ReducerOptions {
  /// CX-count targets as fractions of the reference CX count; each fraction
  /// produces `variants_per_size` different subsets.
  std::vector<double> keep_fractions = {0.0, 0.1, 0.2, 0.35, 0.5, 0.65, 0.8, 0.9, 1.0};
  int variants_per_size = 3;
  /// Skeletons at or below this CX count use the "full" regime.
  int full_reopt_max_cx = 7;
  /// Qubit widths above this always use "boundary" (cost control).
  int full_reopt_max_qubits = 3;
  OptimizeOptions optimizer;
  std::uint64_t seed = 0x52454455;
  IntermediateCallback callback;
  /// Polled before each variant's optimization and inside it; on expiry the
  /// variants finished so far are returned (and *timed_out is set, also when
  /// it expired during the last variant's fit).
  common::Deadline deadline;
  /// Memoize the whole reduction on (reference, options, seed); repeated
  /// calls replay the recorded callback stream and return the first run's
  /// result. Timed-out runs are never cached.
  bool use_cache = synth_cache_enabled();
};

/// Generates approximations of `reference` (any gate set; lowered
/// internally). Deterministic in (reference, options.seed). Results are
/// sorted by CNOT count, deduplicated by (cx count, variant). On deadline
/// expiry the variants completed so far are returned and `*timed_out` (when
/// non-null) is set. Throws SynthesisError when the synth fault-injection
/// site fires (keyed by options.seed).
std::vector<ApproxCircuit> reduce_circuit(const ir::QuantumCircuit& reference,
                                          const ReducerOptions& options = {},
                                          bool* timed_out = nullptr);

}  // namespace qc::synth
