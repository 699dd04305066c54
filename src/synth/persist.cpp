#include "synth/persist.hpp"

#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "common/io.hpp"
#include "common/json.hpp"
#include "ir/circuit.hpp"
#include "obs/log.hpp"
#include "obs/metrics.hpp"
#include "synth/cache.hpp"

namespace qc::synth {

namespace {

using common::json::Value;

constexpr int kSnapshotVersion = 1;

std::string u64_hex(std::uint64_t v) {
  char buf[20];
  std::snprintf(buf, sizeof(buf), "%" PRIx64, v);
  return buf;
}

/// A required member; a snapshot missing it is corrupt, not a crash.
const Value& field(const Value& v, const char* name) {
  const Value* found = v.find(name);
  QC_CHECK_MSG(found != nullptr, std::string("synth snapshot: missing ") + name);
  return *found;
}

std::uint64_t u64_from_hex(const Value& v) {
  const std::string& hex = v.as_string();
  QC_CHECK_MSG(!hex.empty() && hex.size() <= 16, "synth snapshot: bad u64 field");
  char* end = nullptr;
  const std::uint64_t out = std::strtoull(hex.c_str(), &end, 16);
  QC_CHECK_MSG(end != nullptr && *end == '\0', "synth snapshot: bad u64 field");
  return out;
}

Value edges_to_json(const std::vector<std::pair<int, int>>& edges) {
  Value arr = Value::array();
  for (const auto& [a, b] : edges) {
    Value e = Value::array();
    e.push_back(a).push_back(b);
    arr.push_back(std::move(e));
  }
  return arr;
}

std::vector<std::pair<int, int>> edges_from_json(const Value& v) {
  std::vector<std::pair<int, int>> edges;
  for (const Value& e : v.as_array()) {
    QC_CHECK_MSG(e.is_array() && e.size() == 2, "synth snapshot: bad edge");
    edges.emplace_back(static_cast<int>(e.as_array()[0].as_int()),
                       static_cast<int>(e.as_array()[1].as_int()));
  }
  return edges;
}

Value circuit_to_json(const ir::QuantumCircuit& circuit) {
  Value out = Value::object();
  out.set("n", circuit.num_qubits());
  if (!circuit.name().empty()) out.set("name", circuit.name());
  Value gates = Value::array();
  for (const ir::Gate& g : circuit.gates()) {
    Value entry = Value::array();
    entry.push_back(ir::gate_name(g.kind));
    Value qubits = Value::array();
    for (int q : g.qubits) qubits.push_back(q);
    entry.push_back(std::move(qubits));
    if (!g.params.empty()) {
      Value params = Value::array();
      for (double p : g.params) params.push_back(p);
      entry.push_back(std::move(params));
    }
    gates.push_back(std::move(entry));
  }
  out.set("gates", std::move(gates));
  return out;
}

ir::QuantumCircuit circuit_from_json(const Value& v) {
  ir::QuantumCircuit circuit(static_cast<int>(v.get_int("n", 0)),
                             v.get_string("name", ""));
  const Value* gates = v.find("gates");
  QC_CHECK_MSG(gates != nullptr && gates->is_array(),
               "synth snapshot: circuit lacks gates");
  for (const Value& entry : gates->as_array()) {
    const auto& fields = entry.as_array();
    QC_CHECK_MSG(fields.size() >= 2, "synth snapshot: bad gate entry");
    const ir::GateKind kind = ir::gate_kind_from_name(fields[0].as_string());
    std::vector<int> qubits;
    for (const Value& q : fields[1].as_array())
      qubits.push_back(static_cast<int>(q.as_int()));
    std::vector<double> params;
    if (fields.size() > 2)
      for (const Value& p : fields[2].as_array()) params.push_back(p.as_number());
    circuit.append(ir::Gate(kind, std::move(qubits), std::move(params)));
  }
  return circuit;
}

Value approx_to_json(const ApproxCircuit& a) {
  Value out = Value::object();
  out.set("circuit", circuit_to_json(a.circuit));
  out.set("hs", a.hs_distance);
  out.set("cnots", a.cnot_count);
  out.set("source", a.source);
  return out;
}

ApproxCircuit approx_from_json(const Value& v) {
  ApproxCircuit a;
  const Value* circuit = v.find("circuit");
  QC_CHECK_MSG(circuit != nullptr, "synth snapshot: entry lacks circuit");
  a.circuit = circuit_from_json(*circuit);
  a.hs_distance = v.get_number("hs", 1.0);
  a.cnot_count = static_cast<std::size_t>(v.get_int("cnots", 0));
  a.source = v.get_string("source", "");
  return a;
}

Value stream_to_json(const std::vector<ApproxCircuit>& stream) {
  Value arr = Value::array();
  for (const ApproxCircuit& a : stream) arr.push_back(approx_to_json(a));
  return arr;
}

std::vector<ApproxCircuit> stream_from_json(const Value& v) {
  std::vector<ApproxCircuit> stream;
  for (const Value& a : v.as_array()) stream.push_back(approx_from_json(a));
  return stream;
}

// ---- per-kind key/entry codecs ---------------------------------------------

Value qsearch_key_to_json(const QSearchCacheKey& k) {
  Value out = Value::object();
  out.set("target_fp", u64_hex(k.target_fp));
  out.set("dim", k.dim);
  out.set("qubits", k.num_qubits);
  out.set("edges", edges_to_json(k.edges));
  out.set("success_bits", u64_hex(k.success_threshold_bits));
  out.set("depth_weight_bits", u64_hex(k.depth_weight_bits));
  out.set("opt_tol_bits", u64_hex(k.opt_tolerance_bits));
  out.set("max_cnots", k.max_cnots);
  out.set("max_nodes", k.max_nodes);
  out.set("opt_max_iter", k.opt_max_iterations);
  out.set("opt_lbfgs", k.opt_lbfgs_memory);
  out.set("restarts", k.restarts_per_node);
  out.set("seed", u64_hex(k.seed));
  out.set("gradient_mode", k.gradient_mode);
  return out;
}

QSearchCacheKey qsearch_key_from_json(const Value& v) {
  QSearchCacheKey k;
  k.target_fp = u64_from_hex(field(v, "target_fp"));
  k.dim = static_cast<std::uint64_t>(v.get_int("dim", 0));
  k.num_qubits = static_cast<int>(v.get_int("qubits", 0));
  k.edges = edges_from_json(field(v, "edges"));
  k.success_threshold_bits = u64_from_hex(field(v, "success_bits"));
  k.depth_weight_bits = u64_from_hex(field(v, "depth_weight_bits"));
  k.opt_tolerance_bits = u64_from_hex(field(v, "opt_tol_bits"));
  k.max_cnots = static_cast<int>(v.get_int("max_cnots", 0));
  k.max_nodes = static_cast<int>(v.get_int("max_nodes", 0));
  k.opt_max_iterations = static_cast<int>(v.get_int("opt_max_iter", 0));
  k.opt_lbfgs_memory = static_cast<int>(v.get_int("opt_lbfgs", 0));
  k.restarts_per_node = static_cast<int>(v.get_int("restarts", 0));
  k.seed = u64_from_hex(field(v, "seed"));
  k.gradient_mode = static_cast<int>(v.get_int("gradient_mode", 0));
  return k;
}

Value qfast_key_to_json(const QFastCacheKey& k) {
  Value out = Value::object();
  out.set("target_fp", u64_hex(k.target_fp));
  out.set("dim", k.dim);
  out.set("qubits", k.num_qubits);
  out.set("edges", edges_to_json(k.edges));
  out.set("success_bits", u64_hex(k.success_threshold_bits));
  out.set("opt_tol_bits", u64_hex(k.opt_tolerance_bits));
  out.set("max_blocks", k.max_blocks);
  out.set("opt_max_iter", k.opt_max_iterations);
  out.set("opt_lbfgs", k.opt_lbfgs_memory);
  out.set("restarts", k.restarts_per_depth);
  out.set("coarse", k.emit_coarse_passes);
  out.set("seed", u64_hex(k.seed));
  out.set("gradient_mode", k.gradient_mode);
  return out;
}

QFastCacheKey qfast_key_from_json(const Value& v) {
  QFastCacheKey k;
  k.target_fp = u64_from_hex(field(v, "target_fp"));
  k.dim = static_cast<std::uint64_t>(v.get_int("dim", 0));
  k.num_qubits = static_cast<int>(v.get_int("qubits", 0));
  k.edges = edges_from_json(field(v, "edges"));
  k.success_threshold_bits = u64_from_hex(field(v, "success_bits"));
  k.opt_tolerance_bits = u64_from_hex(field(v, "opt_tol_bits"));
  k.max_blocks = static_cast<int>(v.get_int("max_blocks", 0));
  k.opt_max_iterations = static_cast<int>(v.get_int("opt_max_iter", 0));
  k.opt_lbfgs_memory = static_cast<int>(v.get_int("opt_lbfgs", 0));
  k.restarts_per_depth = static_cast<int>(v.get_int("restarts", 0));
  k.emit_coarse_passes = v.get_bool("coarse", false);
  k.seed = u64_from_hex(field(v, "seed"));
  k.gradient_mode = static_cast<int>(v.get_int("gradient_mode", 0));
  return k;
}

Value qfactor_key_to_json(const QFactorCacheKey& k) {
  Value out = Value::object();
  out.set("target_fp", u64_hex(k.target_fp));
  out.set("structure_fp", u64_hex(k.structure_fp));
  out.set("dim", k.dim);
  out.set("qubits", k.num_qubits);
  out.set("tol_bits", u64_hex(k.tolerance_bits));
  out.set("success_bits", u64_hex(k.success_threshold_bits));
  out.set("max_sweeps", k.max_sweeps);
  out.set("incremental", k.incremental);
  return out;
}

QFactorCacheKey qfactor_key_from_json(const Value& v) {
  QFactorCacheKey k;
  k.target_fp = u64_from_hex(field(v, "target_fp"));
  k.structure_fp = u64_from_hex(field(v, "structure_fp"));
  k.dim = static_cast<std::uint64_t>(v.get_int("dim", 0));
  k.num_qubits = static_cast<int>(v.get_int("qubits", 0));
  k.tolerance_bits = u64_from_hex(field(v, "tol_bits"));
  k.success_threshold_bits = u64_from_hex(field(v, "success_bits"));
  k.max_sweeps = static_cast<int>(v.get_int("max_sweeps", 0));
  k.incremental = v.get_bool("incremental", false);
  return k;
}

Value reducer_key_to_json(const ReducerCacheKey& k) {
  Value out = Value::object();
  out.set("reference_fp", u64_hex(k.reference_fp));
  out.set("qubits", k.num_qubits);
  out.set("gates", k.num_gates);
  Value fractions = Value::array();
  for (std::uint64_t bits : k.keep_fraction_bits) fractions.push_back(u64_hex(bits));
  out.set("keep_fraction_bits", std::move(fractions));
  out.set("variants", k.variants_per_size);
  out.set("full_max_cx", k.full_reopt_max_cx);
  out.set("full_max_qubits", k.full_reopt_max_qubits);
  out.set("opt_max_iter", k.opt_max_iterations);
  out.set("opt_tol_bits", u64_hex(k.opt_tolerance_bits));
  out.set("opt_lbfgs", k.opt_lbfgs_memory);
  out.set("seed", u64_hex(k.seed));
  out.set("gradient_mode", k.gradient_mode);
  return out;
}

ReducerCacheKey reducer_key_from_json(const Value& v) {
  ReducerCacheKey k;
  k.reference_fp = u64_from_hex(field(v, "reference_fp"));
  k.num_qubits = static_cast<int>(v.get_int("qubits", 0));
  k.num_gates = static_cast<std::uint64_t>(v.get_int("gates", 0));
  for (const Value& bits : field(v, "keep_fraction_bits").as_array())
    k.keep_fraction_bits.push_back(u64_from_hex(bits));
  k.variants_per_size = static_cast<int>(v.get_int("variants", 0));
  k.full_reopt_max_cx = static_cast<int>(v.get_int("full_max_cx", 0));
  k.full_reopt_max_qubits = static_cast<int>(v.get_int("full_max_qubits", 0));
  k.opt_max_iterations = static_cast<int>(v.get_int("opt_max_iter", 0));
  k.opt_tolerance_bits = u64_from_hex(field(v, "opt_tol_bits"));
  k.opt_lbfgs_memory = static_cast<int>(v.get_int("opt_lbfgs", 0));
  k.seed = u64_from_hex(field(v, "seed"));
  k.gradient_mode = static_cast<int>(v.get_int("gradient_mode", 0));
  return k;
}

std::string join_path(const std::string& dir, const char* file) {
  if (dir.empty() || dir.back() == '/') return dir + file;
  return dir + "/" + file;
}

}  // namespace

const std::string& synth_cache_dir_env() {
  static const std::string dir = [] {
    const char* v = std::getenv("QAPPROX_SYNTH_CACHE_DIR");
    return std::string(v == nullptr ? "" : v);
  }();
  return dir;
}

std::string synth_cache_serialize() {
  Value doc = Value::object();
  doc.set("version", kSnapshotVersion);

  Value qsearch = Value::array();
  for (const auto& [key, entry] : synth_cache_dump_qsearch()) {
    Value row = Value::object();
    row.set("key", qsearch_key_to_json(key));
    Value result = Value::object();
    result.set("best", approx_to_json(entry.result.best));
    result.set("converged", entry.result.converged);
    result.set("nodes_expanded", entry.result.nodes_expanded);
    result.set("nodes_optimized", entry.result.nodes_optimized);
    row.set("result", std::move(result));
    row.set("stream", stream_to_json(entry.stream));
    qsearch.push_back(std::move(row));
  }
  doc.set("qsearch", std::move(qsearch));

  Value qfast = Value::array();
  for (const auto& [key, entry] : synth_cache_dump_qfast()) {
    Value row = Value::object();
    row.set("key", qfast_key_to_json(key));
    Value result = Value::object();
    result.set("best", approx_to_json(entry.result.best));
    result.set("converged", entry.result.converged);
    result.set("depths_tried", entry.result.depths_tried);
    row.set("result", std::move(result));
    row.set("stream", stream_to_json(entry.stream));
    qfast.push_back(std::move(row));
  }
  doc.set("qfast", std::move(qfast));

  Value qfactor = Value::array();
  for (const auto& [key, entry] : synth_cache_dump_qfactor()) {
    Value row = Value::object();
    row.set("key", qfactor_key_to_json(key));
    Value result = Value::object();
    result.set("circuit", circuit_to_json(entry.circuit));
    result.set("hs", entry.hs_distance);
    result.set("sweeps", entry.sweeps);
    result.set("converged", entry.converged);
    row.set("result", std::move(result));
    qfactor.push_back(std::move(row));
  }
  doc.set("qfactor", std::move(qfactor));

  Value reducer = Value::array();
  for (const auto& [key, stream] : synth_cache_dump_reducer()) {
    Value row = Value::object();
    row.set("key", reducer_key_to_json(key));
    row.set("stream", stream_to_json(stream));
    reducer.push_back(std::move(row));
  }
  doc.set("reducer", std::move(reducer));

  return doc.dump();
}

std::size_t synth_cache_deserialize(const std::string& text) {
  const Value doc = common::json::parse(text);
  QC_CHECK_MSG(doc.get_int("version", -1) == kSnapshotVersion,
               "synth snapshot: unsupported version");
  std::size_t loaded = 0;

  if (const Value* rows = doc.find("qsearch")) {
    for (const Value& row : rows->as_array()) {
      const QSearchCacheKey key = qsearch_key_from_json(field(row, "key"));
      const Value* result = row.find("result");
      QC_CHECK_MSG(result != nullptr, "synth snapshot: row lacks result");
      CachedQSearch entry;
      entry.result.best = approx_from_json(field(*result, "best"));
      entry.result.converged = result->get_bool("converged", false);
      entry.result.nodes_expanded =
          static_cast<int>(result->get_int("nodes_expanded", 0));
      entry.result.nodes_optimized =
          static_cast<int>(result->get_int("nodes_optimized", 0));
      if (const Value* stream = row.find("stream"))
        entry.stream = stream_from_json(*stream);
      synth_cache_store(key, std::move(entry));
      ++loaded;
    }
  }

  if (const Value* rows = doc.find("qfast")) {
    for (const Value& row : rows->as_array()) {
      const QFastCacheKey key = qfast_key_from_json(field(row, "key"));
      const Value* result = row.find("result");
      QC_CHECK_MSG(result != nullptr, "synth snapshot: row lacks result");
      CachedQFast entry;
      entry.result.best = approx_from_json(field(*result, "best"));
      entry.result.converged = result->get_bool("converged", false);
      entry.result.depths_tried =
          static_cast<int>(result->get_int("depths_tried", 0));
      if (const Value* stream = row.find("stream"))
        entry.stream = stream_from_json(*stream);
      synth_cache_store(key, std::move(entry));
      ++loaded;
    }
  }

  if (const Value* rows = doc.find("qfactor")) {
    for (const Value& row : rows->as_array()) {
      const QFactorCacheKey key = qfactor_key_from_json(field(row, "key"));
      const Value* result = row.find("result");
      QC_CHECK_MSG(result != nullptr, "synth snapshot: row lacks result");
      QFactorResult entry;
      const Value* circuit = result->find("circuit");
      QC_CHECK_MSG(circuit != nullptr, "synth snapshot: qfactor row lacks circuit");
      entry.circuit = circuit_from_json(*circuit);
      entry.hs_distance = result->get_number("hs", 1.0);
      entry.sweeps = static_cast<int>(result->get_int("sweeps", 0));
      entry.converged = result->get_bool("converged", false);
      synth_cache_store(key, std::move(entry));
      ++loaded;
    }
  }

  // Absent from snapshots written before the reducer was cached: no rows.
  if (const Value* rows = doc.find("reducer")) {
    for (const Value& row : rows->as_array()) {
      const ReducerCacheKey key = reducer_key_from_json(field(row, "key"));
      synth_cache_store(key, stream_from_json(field(row, "stream")));
      ++loaded;
    }
  }

  return loaded;
}

std::size_t synth_cache_save(const std::string& dir) {
  QC_CHECK_MSG(!dir.empty(), "synth_cache_save: empty directory");
  const SynthCacheStats before = synth_cache_stats();
  const std::string path = join_path(dir, kSynthCacheSnapshotFile);
  common::atomic_write_file(path, synth_cache_serialize());
  static obs::Counter& saved = obs::counter("synth.cache.disk_saved");
  saved.add(before.entries);
  QC_LOG_INFO("synth", "snapshotted %zu synthesis-cache entries to %s",
              before.entries, path.c_str());
  return before.entries;
}

std::size_t synth_cache_load(const std::string& dir) {
  if (dir.empty()) return 0;
  const std::string path = join_path(dir, kSynthCacheSnapshotFile);
  std::ifstream in(path, std::ios::binary);
  if (!in.is_open()) return 0;  // no snapshot yet: clean cold start
  std::ostringstream buffer;
  buffer << in.rdbuf();
  try {
    const std::size_t loaded = synth_cache_deserialize(buffer.str());
    static obs::Counter& counter = obs::counter("synth.cache.disk_loaded");
    counter.add(loaded);
    QC_LOG_INFO("synth", "warm-started %zu synthesis-cache entries from %s",
                loaded, path.c_str());
    return loaded;
  } catch (const common::Error& e) {
    QC_LOG_WARN("synth", "ignoring unreadable synthesis-cache snapshot %s: %s",
                path.c_str(), e.what());
    return 0;
  }
}

}  // namespace qc::synth
