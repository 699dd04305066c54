// Disk persistence for the process-wide synthesis result cache.
//
// Synthesis results are deterministic in their keys, so they are safe to
// reuse across process lifetimes — exactly what a restarted qapprox server
// needs to avoid cold-starting its most expensive cache. A snapshot is one
// JSON document (<dir>/synth_cache.json) holding every in-memory entry of
// all four result kinds (QSearch, QFast, QFactor, reducer) in FIFO order:
//
//   * 64-bit key fields (fingerprints, double bit patterns, seeds) are hex
//     strings — JSON numbers are doubles and silently lose bits past 2^53.
//   * Circuits serialize gate-by-gate with %.17g parameters, which
//     round-trip every finite double exactly, so a loaded entry is
//     bit-identical to the run that produced it.
//
// Writes are crash-safe (common::atomic_write_file: stage + rename); loads
// of a missing file are a clean no-op and a corrupt/mismatched file warns
// and loads nothing rather than failing the host. The server snapshots on
// shutdown and warm-starts on boot via QAPPROX_SYNTH_CACHE_DIR; run-to-
// completion drivers can do the same through the env hook.
#pragma once

#include <cstddef>
#include <string>

namespace qc::synth {

/// The snapshot filename inside a cache directory.
inline constexpr const char* kSynthCacheSnapshotFile = "synth_cache.json";

/// QAPPROX_SYNTH_CACHE_DIR, read once ("" when unset: persistence off).
const std::string& synth_cache_dir_env();

/// Serializes the whole in-memory cache to <dir>/synth_cache.json via an
/// atomic tmp+rename. Returns the number of entries written (also counted on
/// the synth.cache.disk_saved counter). Throws common::Error when the file
/// cannot be written. The directory must exist.
std::size_t synth_cache_save(const std::string& dir);

/// Loads a snapshot into the in-memory cache (entries merge through
/// synth_cache_store: first result wins, FIFO capacity applies). Returns the
/// number of entries loaded; a missing file returns 0, and a corrupt or
/// version-mismatched file warns and returns 0 instead of throwing. Counted
/// on synth.cache.disk_loaded.
std::size_t synth_cache_load(const std::string& dir);

/// Serialize/deserialize without touching the filesystem (tests, wire).
std::string synth_cache_serialize();
std::size_t synth_cache_deserialize(const std::string& text);

}  // namespace qc::synth
