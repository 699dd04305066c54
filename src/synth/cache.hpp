// Process-wide synthesis result cache.
//
// Synthesis is deterministic: a (target, structure space, options, seed)
// tuple always produces the same result, so studies that synthesize the same
// block repeatedly — the CX-error sweeps re-run every noise level against one
// circuit, the TFIM studies revisit identical timestep blocks, a server
// harvests the same reference circuit job after job — can reuse the first
// run's output. Four result kinds share it: QSearch, QFast, QFactor and the
// perturbative reducer. Keys follow the execution-engine idiom: a 64-bit
// content fingerprint of the target (for QFactor also the seed structure;
// for the reducer the reference circuit, before lowering) paired with *exact* structural discriminators (dimensions, edge lists,
// bit-patterns of every numeric option, the seed, and the gradient mode), so
// a fingerprint collision would still have to match every discriminator to
// alias. Deadlines and callbacks are deliberately not keyed: deadlines don't
// change what a completed search computes (timed-out results are never
// stored), and callbacks are observers — the full intermediate stream is
// recorded with each entry and replayed into the caller's callback on a hit.
//
// QAPPROX_SYNTH_CACHE=0 disables caching process-wide (the per-call
// `use_cache` options default from it).
#pragma once

#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "synth/qfactor.hpp"
#include "synth/qfast.hpp"
#include "synth/qsearch.hpp"
#include "synth/reducer.hpp"

namespace qc::synth {

/// Process default for the `use_cache` option fields: QAPPROX_SYNTH_CACHE
/// (default on).
bool synth_cache_enabled();

struct SynthCacheStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::size_t entries = 0;
};

/// Lifetime totals (also exported as synth.cache.{hits,misses} counters)
/// plus the current entry count across the QSearch, QFast, QFactor and
/// reducer maps.
SynthCacheStats synth_cache_stats();

/// Drops every cached entry (tests, benchmarks). Stats counters are kept.
void clear_synth_cache();

// ---------------------------------------------------------------------------
// Keys and entry types; used by the synthesizers themselves.

struct QSearchCacheKey {
  std::uint64_t target_fp = 0;
  std::uint64_t dim = 0;
  int num_qubits = 0;
  std::vector<std::pair<int, int>> edges;
  // Bit patterns of the double-valued options (exact, no epsilon aliasing).
  std::uint64_t success_threshold_bits = 0;
  std::uint64_t depth_weight_bits = 0;
  std::uint64_t opt_tolerance_bits = 0;
  int max_cnots = 0;
  int max_nodes = 0;
  int opt_max_iterations = 0;
  int opt_lbfgs_memory = 0;
  int restarts_per_node = 0;
  std::uint64_t seed = 0;
  int gradient_mode = 0;
  auto operator<=>(const QSearchCacheKey&) const = default;
};

struct QFastCacheKey {
  std::uint64_t target_fp = 0;
  std::uint64_t dim = 0;
  int num_qubits = 0;
  std::vector<std::pair<int, int>> edges;
  std::uint64_t success_threshold_bits = 0;
  std::uint64_t opt_tolerance_bits = 0;
  int max_blocks = 0;
  int opt_max_iterations = 0;
  int opt_lbfgs_memory = 0;
  int restarts_per_depth = 0;
  bool emit_coarse_passes = false;
  std::uint64_t seed = 0;
  int gradient_mode = 0;
  auto operator<=>(const QFastCacheKey&) const = default;
};

struct QFactorCacheKey {
  std::uint64_t target_fp = 0;
  std::uint64_t structure_fp = 0;  // circuit fingerprint: gates AND angles
  std::uint64_t dim = 0;
  int num_qubits = 0;
  std::uint64_t tolerance_bits = 0;
  std::uint64_t success_threshold_bits = 0;
  int max_sweeps = 0;
  // Incremental and dense sweeps differ in rounding, so they never alias.
  bool incremental = false;
  auto operator<=>(const QFactorCacheKey&) const = default;
};

struct ReducerCacheKey {
  std::uint64_t reference_fp = 0;  // circuit fingerprint: gates AND angles
  int num_qubits = 0;
  std::uint64_t num_gates = 0;
  std::vector<std::uint64_t> keep_fraction_bits;
  int variants_per_size = 0;
  int full_reopt_max_cx = 0;
  int full_reopt_max_qubits = 0;
  int opt_max_iterations = 0;
  std::uint64_t opt_tolerance_bits = 0;
  int opt_lbfgs_memory = 0;
  std::uint64_t seed = 0;
  int gradient_mode = 0;  // full mode optimizes through HsCost
  auto operator<=>(const ReducerCacheKey&) const = default;
};

/// A completed search plus the intermediate-callback stream it emitted.
struct CachedQSearch {
  QSearchResult result;
  std::vector<ApproxCircuit> stream;
};

struct CachedQFast {
  QFastResult result;
  std::vector<ApproxCircuit> stream;
};

std::optional<CachedQSearch> synth_cache_lookup(const QSearchCacheKey& key);
std::optional<CachedQFast> synth_cache_lookup(const QFastCacheKey& key);
std::optional<QFactorResult> synth_cache_lookup(const QFactorCacheKey& key);
/// A reducer entry is its callback stream (emission order); the sorted
/// result is that stream put through reduce_circuit's sort.
std::optional<std::vector<ApproxCircuit>> synth_cache_lookup(const ReducerCacheKey& key);

void synth_cache_store(const QSearchCacheKey& key, CachedQSearch entry);
void synth_cache_store(const QFastCacheKey& key, CachedQFast entry);
void synth_cache_store(const QFactorCacheKey& key, QFactorResult entry);
void synth_cache_store(const ReducerCacheKey& key, std::vector<ApproxCircuit> stream);

// Full-cache enumeration in FIFO (insertion) order, for the disk snapshots
// in synth/persist.hpp: re-storing a dump in order reproduces the same
// eviction state. Each call copies the entries out under the cache lock.
std::vector<std::pair<QSearchCacheKey, CachedQSearch>> synth_cache_dump_qsearch();
std::vector<std::pair<QFastCacheKey, CachedQFast>> synth_cache_dump_qfast();
std::vector<std::pair<QFactorCacheKey, QFactorResult>> synth_cache_dump_qfactor();
std::vector<std::pair<ReducerCacheKey, std::vector<ApproxCircuit>>> synth_cache_dump_reducer();

}  // namespace qc::synth
