#include "exec/engine.hpp"

#include <bit>
#include <utility>

#include "common/error.hpp"
#include "common/faults.hpp"
#include "common/rng.hpp"
#include "common/stopwatch.hpp"
#include "metrics/distribution.hpp"
#include "obs/obs.hpp"
#include "sim/statevector.hpp"
#include "transpile/routing.hpp"

namespace qc::exec {

namespace {

/// Per-phase duration histograms (ns). Sampled only while
/// obs::timing_enabled(); name contract documented in DESIGN.md §obs.
struct EngineTimers {
  obs::Histogram& run{obs::histogram("exec.run_ns")};
  obs::Histogram& transpile{obs::histogram("exec.transpile_ns")};
  obs::Histogram& model{obs::histogram("exec.model_ns")};
  obs::Histogram& compile{obs::histogram("exec.compile_ns")};
  obs::Histogram& evolve{obs::histogram("exec.evolve_ns")};
};

EngineTimers& timers() {
  static EngineTimers t;
  return t;
}

/// Mirrors one run's kernel dispatch classes (RunRecord::kernel_counts) into
/// the process-wide sim.kernel.* counters, one name per KernelKind label.
void record_kernel_metrics(const linalg::KernelCounts& kc) {
  struct KernelCounters {
    obs::Counter& oneq_diag{obs::counter("sim.kernel.1q_diag")};
    obs::Counter& oneq_general{obs::counter("sim.kernel.1q_general")};
    obs::Counter& twoq_diag{obs::counter("sim.kernel.2q_diag")};
    obs::Counter& twoq_perm_phase{obs::counter("sim.kernel.2q_perm_phase")};
    obs::Counter& twoq_general{obs::counter("sim.kernel.2q_general")};
    obs::Counter& threeq_diag{obs::counter("sim.kernel.3q_diag")};
    obs::Counter& threeq_general{obs::counter("sim.kernel.3q_general")};
    obs::Counter& fourq_diag{obs::counter("sim.kernel.4q_diag")};
    obs::Counter& fourq_general{obs::counter("sim.kernel.4q_general")};
    obs::Counter& generic{obs::counter("sim.kernel.generic")};
  };
  static KernelCounters c;
  c.oneq_diag.add(kc.oneq_diag);
  c.oneq_general.add(kc.oneq_general);
  c.twoq_diag.add(kc.twoq_diag);
  c.twoq_perm_phase.add(kc.twoq_perm_phase);
  c.twoq_general.add(kc.twoq_general);
  c.threeq_diag.add(kc.threeq_diag);
  c.threeq_general.add(kc.threeq_general);
  c.fourq_diag.add(kc.fourq_diag);
  c.fourq_general.add(kc.fourq_general);
  c.generic.add(kc.generic);
}

}  // namespace

// ---- ExecutionConfig -------------------------------------------------------

ExecutionConfig ExecutionConfig::simulator(const noise::DeviceProperties& device) {
  ExecutionConfig cfg;
  cfg.device = device;
  cfg.optimization_level = 1;
  return cfg;
}

ExecutionConfig ExecutionConfig::hardware(const noise::DeviceProperties& device) {
  ExecutionConfig cfg;
  cfg.device = device;
  cfg.optimization_level = 3;
  cfg.use_trajectories = true;
  cfg.noise_options.coherent_cx_overrotation = true;
  cfg.noise_options.zz_crosstalk = true;
  cfg.noise_options.hardware_drift_scale = 4.5;
  cfg.noise_options.hardware_readout_scale = 2.0;
  return cfg;
}

ExecutionConfig ExecutionConfig::noise_free(const noise::DeviceProperties& device) {
  ExecutionConfig cfg;
  cfg.device = device;
  cfg.ideal = true;
  cfg.optimization_level = 1;
  return cfg;
}

transpile::TranspileOptions ExecutionConfig::transpile_options() const {
  transpile::TranspileOptions topts;
  topts.optimization_level = optimization_level;
  topts.initial_layout = initial_layout;
  topts.router = router;
  return topts;
}

// ---- cache plumbing --------------------------------------------------------

void ExecutionEngine::count_cache_event(CacheId id, bool hit) {
  // Process-wide counters (all engines); the per-engine CacheStats feeds
  // cache_stats() and the run-record hit flags.
  struct Pair {
    obs::Counter& hits;
    obs::Counter& misses;
  };
  static Pair global[] = {
      {obs::counter("exec.cache.transpile.hits"),
       obs::counter("exec.cache.transpile.misses")},
      {obs::counter("exec.cache.model.hits"),
       obs::counter("exec.cache.model.misses")},
      {obs::counter("exec.cache.compiled.hits"),
       obs::counter("exec.cache.compiled.misses")},
      {obs::counter("exec.cache.matrix.hits"),
       obs::counter("exec.cache.matrix.misses")},
  };
  Pair& pair = global[static_cast<int>(id)];
  (hit ? pair.hits : pair.misses).add(1);
  switch (id) {
    case CacheId::Transpile:
      ++(hit ? stats_.transpile_hits : stats_.transpile_misses);
      break;
    case CacheId::Model:
      ++(hit ? stats_.model_hits : stats_.model_misses);
      break;
    case CacheId::Compiled:
      ++(hit ? stats_.compiled_hits : stats_.compiled_misses);
      break;
    case CacheId::Matrix:
      ++(hit ? stats_.matrix_hits : stats_.matrix_misses);
      break;
  }
}

template <typename K, typename V, typename Make>
std::shared_ptr<const V> ExecutionEngine::get_or_compute(OnceCache<K, V>& cache,
                                                         CacheId id, const K& key,
                                                         bool* was_hit,
                                                         Make&& make) {
  std::shared_ptr<Slot<V>> slot;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    auto [it, inserted] = cache.entries.try_emplace(key);
    if (inserted) it->second = std::make_shared<Slot<V>>();
    count_cache_event(id, !inserted);
    if (was_hit) *was_hit = !inserted;
    slot = it->second;
  }
  // Compute outside the map lock: expensive work (transpilation, noise-model
  // construction) must not serialize unrelated cache lookups. call_once makes
  // concurrent requesters of the same key wait for one computation.
  std::call_once(slot->once,
                 [&] { slot->value = std::make_shared<const V>(make()); });
  return slot->value;
}

common::ThreadPool& ExecutionEngine::pool() {
  return owned_pool_ ? *owned_pool_ : common::ThreadPool::global();
}

ExecutionEngine::ExecutionEngine(EngineOptions options) : options_(options) {
  obs::init_from_env();
  QC_CHECK_MSG(options_.trajectory_block > 0,
               "EngineOptions::trajectory_block must be positive (it is the "
               "shots-per-work-block partition; use the default 128 if unsure)");
  if (options_.trajectory_block > kMaxTrajectoryBlock) {
    QC_LOG_WARN("exec",
                "EngineOptions::trajectory_block=%zu exceeds the ceiling %zu; "
                "clamping",
                options_.trajectory_block, kMaxTrajectoryBlock);
    options_.trajectory_block = kMaxTrajectoryBlock;
  }
  if (options_.num_threads > common::kMaxThreadPoolSize) {
    QC_LOG_WARN("exec",
                "EngineOptions::num_threads=%zu exceeds the ceiling %zu; "
                "clamping",
                options_.num_threads, common::kMaxThreadPoolSize);
    options_.num_threads = common::kMaxThreadPoolSize;
  }
  if (options_.num_threads > 0)
    owned_pool_ = std::make_unique<common::ThreadPool>(options_.num_threads);
}

ExecutionEngine::~ExecutionEngine() = default;

ExecutionEngine& ExecutionEngine::global() {
  static ExecutionEngine engine;
  return engine;
}

CacheStats ExecutionEngine::cache_stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return stats_;
}

CacheSnapshot ExecutionEngine::cache_stats_snapshot() const {
  CacheSnapshot snap;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    snap.stats = stats_;
    snap.transpile_entries = transpile_cache_.entries.size();
    snap.model_entries = model_cache_.entries.size();
    snap.compiled_entries = compiled_cache_.entries.size();
    snap.matrix_entries = matrix_cache_.entries.size();
  }
  struct Row {
    const char* name;
    std::size_t hits, misses, entries;
  };
  const Row rows[] = {
      {"transpile", snap.stats.transpile_hits, snap.stats.transpile_misses,
       snap.transpile_entries},
      {"model", snap.stats.model_hits, snap.stats.model_misses,
       snap.model_entries},
      {"compiled", snap.stats.compiled_hits, snap.stats.compiled_misses,
       snap.compiled_entries},
      {"matrix", snap.stats.matrix_hits, snap.stats.matrix_misses,
       snap.matrix_entries},
  };
  for (const Row& row : rows) {
    const std::string prefix = std::string("exec.engine.cache.") + row.name;
    obs::gauge(prefix + ".hits").set(static_cast<std::int64_t>(row.hits));
    obs::gauge(prefix + ".misses").set(static_cast<std::int64_t>(row.misses));
    obs::gauge(prefix + ".entries").set(static_cast<std::int64_t>(row.entries));
  }
  return snap;
}

void ExecutionEngine::clear_caches() {
  std::lock_guard<std::mutex> lock(mutex_);
  transpile_cache_ = {};
  model_cache_ = {};
  compiled_cache_ = {};
  matrix_cache_ = {};
  stats_ = {};
}

// ---- cache keys ------------------------------------------------------------

ExecutionEngine::TranspileKey ExecutionEngine::make_transpile_key(
    const RunRequest& request) const {
  TranspileKey key;
  key.circuit_fp = request.circuit.fingerprint();
  key.device_fp = request.config.device.fingerprint();
  if (request.config.initial_layout) {
    std::uint64_t h = 0xa1b2c3d4e5f60718ULL;
    for (int p : *request.config.initial_layout)
      h = common::hash_combine(h, static_cast<std::uint64_t>(p));
    key.layout_fp = h;
  }
  key.level = request.config.optimization_level;
  key.router = static_cast<int>(request.config.router);
  key.circuit_qubits = request.circuit.num_qubits();
  key.circuit_gates = request.circuit.size();
  key.device_qubits = request.config.device.num_qubits();
  key.device_edges = request.config.device.coupling.num_edges();
  return key;
}

ExecutionEngine::ModelKey ExecutionEngine::make_model_key(
    const RunRequest& request, const transpile::TranspileResult& tr) const {
  ModelKey key;
  key.device_fp = request.config.device.fingerprint();
  key.options_fp = request.config.noise_options.fingerprint();
  std::uint64_t h = 0x7c0ffee5deadbeefULL;
  for (int p : tr.active_physical)
    h = common::hash_combine(h, static_cast<std::uint64_t>(p));
  key.subset_fp = h;
  key.device_qubits = request.config.device.num_qubits();
  key.device_edges = request.config.device.coupling.num_edges();
  key.subset_size = tr.active_physical.size();
  return key;
}

// ---- cached pipeline stages ------------------------------------------------

std::shared_ptr<const transpile::TranspileResult> ExecutionEngine::transpile_cached(
    const RunRequest& request, bool* hit) {
  const TranspileKey key = make_transpile_key(request);
  return get_or_compute(transpile_cache_, CacheId::Transpile, key, hit, [&] {
    return transpile::transpile(request.circuit, request.config.device,
                                request.config.transpile_options());
  });
}

std::shared_ptr<const noise::NoiseModel> ExecutionEngine::model_cached(
    const RunRequest& request, const transpile::TranspileResult& tr, bool* hit) {
  const ModelKey key = make_model_key(request, tr);
  return get_or_compute(model_cache_, CacheId::Model, key, hit, [&] {
    const noise::DeviceProperties sub = tr.restricted_device(request.config.device);
    return noise::NoiseModel::from_device(sub, request.config.noise_options);
  });
}

linalg::Matrix ExecutionEngine::gate_matrix(const ir::Gate& gate) {
  MatrixKey key;
  key.kind = static_cast<int>(gate.kind);
  key.params.reserve(gate.params.size());
  for (double p : gate.params) key.params.push_back(std::bit_cast<std::uint64_t>(p));
  const auto m = get_or_compute(matrix_cache_, CacheId::Matrix, key, nullptr,
                                [&] { return gate.matrix(); });
  return *m;
}

std::shared_ptr<const sim::CompiledCircuit> ExecutionEngine::compiled_cached(
    const TranspileKey& tkey, const ModelKey& mkey,
    const transpile::TranspileResult& tr, const noise::NoiseModel& model,
    bool* hit) {
  const CompiledKey key{tkey, mkey};
  return get_or_compute(compiled_cache_, CacheId::Compiled, key, hit, [&] {
    sim::CompileOptions copts;
    copts.max_fuse_qubits = options_.max_fuse_qubits;
    return sim::compile_noisy_circuit(
        tr.circuit, model, [this](const ir::Gate& g) { return gate_matrix(g); },
        copts);
  });
}

std::shared_ptr<const sim::CompiledCircuit> ExecutionEngine::compiled_ideal_cached(
    const TranspileKey& tkey, const transpile::TranspileResult& tr, bool* hit) {
  const CompiledKey key{tkey, ModelKey{}, /*ideal=*/1};
  return get_or_compute(compiled_cache_, CacheId::Compiled, key, hit, [&] {
    const noise::NoiseModel model = noise::NoiseModel::ideal(tr.circuit.num_qubits());
    sim::CompileOptions copts;
    copts.max_fuse_qubits = options_.max_fuse_qubits;
    return sim::compile_noisy_circuit(
        tr.circuit, model, [this](const ir::Gate& g) { return gate_matrix(g); },
        copts);
  });
}

// ---- execution -------------------------------------------------------------

std::vector<double> ExecutionEngine::trajectory_probabilities(
    const sim::CompiledCircuit& compiled, std::size_t shots, std::uint64_t seed,
    const common::Deadline& deadline, const obs::TraceContext& parent,
    RunRecord& rec) {
  QC_CHECK(shots > 0);
  const std::size_t block = options_.trajectory_block;
  const std::size_t num_blocks = (shots + block - 1) / block;
  obs::Span span("exec.trajectories", parent);
  if (span.active()) {
    span.arg("shots", shots);
    span.arg("blocks", num_blocks);
  }
  static obs::Counter& shot_counter = obs::counter("sim.trajectory_shots");
  std::vector<std::uint64_t> counts(std::size_t{1} << compiled.num_qubits, 0);
  std::mutex merge_mutex;
  std::size_t completed_total = 0;
  // The block partition depends only on `trajectory_block`, and each shot
  // draws from its own counter-derived stream, so the merged integer counts
  // are bit-identical for every pool size and merge order. (A timed-out run
  // is the exception: which shots finish before expiry depends on thread
  // scheduling, so partial results are flagged, not reproducible.)
  const obs::TraceContext traj_ctx = span.context();  // pool threads parent here
  // Bound once per run, not per block or per shot, and not in the compiled
  // cache (DM runs share that cache and never run a shot). Every block reads
  // the same program.
  const sim::TrajectoryProgram program(compiled);
  pool().parallel_for(0, num_blocks, [&](std::size_t b) {
    obs::Span block_span("exec.traj_block", traj_ctx);
    const std::size_t begin = b * block;
    const std::size_t end = std::min(shots, begin + block);
    if (block_span.active()) block_span.arg("shots", end - begin);
    std::size_t completed = 0;
    const auto local = sim::trajectory_counts_streamed(program, begin, end, seed,
                                                       deadline, &completed);
    std::lock_guard<std::mutex> lock(merge_mutex);
    completed_total += completed;
    for (std::size_t i = 0; i < counts.size(); ++i) counts[i] += local[i];
  });
  shot_counter.add(completed_total);
  rec.completed_shots = completed_total;
  rec.timed_out = completed_total < shots;
  if (completed_total == 0) {
    // Nothing finished before expiry: uniform placeholder (flagged timed_out).
    return std::vector<double>(counts.size(), 1.0 / static_cast<double>(counts.size()));
  }
  return metrics::counts_to_distribution(counts);
}

RunResult ExecutionEngine::run(const RunRequest& request) {
  obs::Span run_span("exec.run", request.trace_parent, &timers().run);
  // Phase spans chain under exec.run; a request with a trace context (served
  // jobs) therefore exports transpile/model/compile/evolve as children of
  // the caller's trace rather than as disconnected top-level slices.
  const obs::TraceContext run_ctx = run_span.context();
  static obs::Counter& runs_counter = obs::counter("exec.runs");
  runs_counter.add(1);
  common::Stopwatch watch;
  // Per-request bound wins; otherwise the QAPPROX_DEADLINE_MS process default
  // (its countdown starts here, covering this run only).
  const common::Deadline deadline =
      request.deadline.bounded() ? request.deadline : common::Deadline::from_env();
  RunResult result;
  RunRecord& rec = result.record;
  rec.build_stamp = obs::build_info_summary();
  rec.trace_id = run_ctx.trace_id;

  std::shared_ptr<const transpile::TranspileResult> tr;
  {
    obs::Span span("exec.transpile", run_ctx, &timers().transpile);
    tr = transpile_cached(request, &rec.transpile_cache_hit);
    rec.transpiled_cx = tr->circuit.count(ir::GateKind::CX);
    rec.transpiled_depth = tr->circuit.depth();
    rec.added_swaps = tr->added_swaps;
    rec.initial_layout = tr->initial_layout;
    rec.active_physical = tr->active_physical;
    if (span.active()) {
      span.arg("cache_hit", rec.transpile_cache_hit);
      span.arg("cx", rec.transpiled_cx);
      span.arg("depth", rec.transpiled_depth);
      span.arg("swaps", rec.added_swaps);
    }
  }

  // Every engine runs the same cached, step-fused compiled program; they
  // differ only in how they evolve it.
  std::shared_ptr<const sim::CompiledCircuit> compiled;
  std::shared_ptr<const noise::NoiseModel> model;
  if (request.config.ideal) {
    rec.engine = "ideal";
    obs::Span span("exec.compile", run_ctx, &timers().compile);
    compiled = compiled_ideal_cached(make_transpile_key(request), *tr,
                                     &rec.compiled_cache_hit);
    if (span.active()) span.arg("cache_hit", rec.compiled_cache_hit);
  } else {
    {
      obs::Span span("exec.model", run_ctx, &timers().model);
      model = model_cached(request, *tr, &rec.noise_model_cache_hit);
      if (span.active()) span.arg("cache_hit", rec.noise_model_cache_hit);
    }
    obs::Span span("exec.compile", run_ctx, &timers().compile);
    compiled = compiled_cached(make_transpile_key(request),
                               make_model_key(request, *tr), *tr, *model,
                               &rec.compiled_cache_hit);
    if (span.active()) span.arg("cache_hit", rec.compiled_cache_hit);
  }
  rec.compiled_steps = compiled->steps.size();
  rec.source_gates = compiled->source_gates;
  rec.fused_gates = compiled->fused_gates;
  rec.fused_blocks_by_k = compiled->fused_blocks_by_k;
  rec.kernel_counts = compiled->kernel_counts;
  record_kernel_metrics(rec.kernel_counts);

  std::vector<double> probs;
  {
    obs::Span span("exec.evolve", run_ctx, &timers().evolve);
    if (request.config.ideal) {
      probs = sim::statevector_probabilities(*compiled, deadline, &rec.timed_out);
    } else if (request.config.use_trajectories) {
      rec.engine = "traj:" + model->device_name();
      rec.shots = request.config.shots;
      probs = trajectory_probabilities(*compiled, request.config.shots,
                                       request.config.seed, deadline,
                                       span.context(), rec);
    } else {
      rec.engine = "dm:" + model->device_name();
      probs = sim::density_matrix_probabilities(*compiled, deadline, &rec.timed_out);
    }
    if (span.active()) span.arg("engine", rec.engine);
  }
  result.probabilities = transpile::unpermute_distribution(probs, tr->wire_of_virtual);
  if (rec.timed_out) {
    result.status = RunStatus::TimedOut;
    static obs::Counter& timeouts = obs::counter("exec.runs_timed_out");
    timeouts.add(1);
  }
  rec.wall_ms = watch.millis();
  if (run_span.active()) {
    run_span.arg("engine", rec.engine);
    run_span.arg("compiled_steps", rec.compiled_steps);
    run_span.arg("status", run_status_name(result.status));
  }
  return result;
}

const char* run_status_name(RunStatus status) {
  switch (status) {
    case RunStatus::Ok: return "ok";
    case RunStatus::TimedOut: return "timed_out";
    case RunStatus::Failed: return "failed";
  }
  return "unknown";
}

namespace {

/// A RunStatus::Failed placeholder: uniform distribution over the request
/// circuit's outcome space (so downstream index math stays in bounds) plus
/// the error recorded for annotation.
RunResult failed_result(const RunRequest& request, const common::Error& e) {
  RunResult result;
  result.status = RunStatus::Failed;
  result.record.engine = "failed";
  result.record.error = std::string(e.kind()) + ": " + e.what();
  result.record.build_stamp = obs::build_info_summary();
  const std::size_t dim = std::size_t{1} << request.circuit.num_qubits();
  result.probabilities.assign(dim, 1.0 / static_cast<double>(dim));
  return result;
}

}  // namespace

std::vector<RunResult> ExecutionEngine::run_batch(
    const std::vector<RunRequest>& requests) {
  obs::Span span("exec.run_batch");
  if (span.active()) span.arg("requests", requests.size());
  static obs::Counter& failed_counter = obs::counter("exec.runs_failed");
  std::vector<RunResult> results(requests.size());
  // Each task owns exactly one result slot; a throwing task is captured in
  // place as a Failed result, so one bad request can never tear down the pool
  // or drop its siblings' outputs.
  pool().parallel_for(0, requests.size(), [&](std::size_t i) {
    try {
      if (common::faults::enabled()) {
        const std::uint64_t stream =
            requests[i].fault_stream == RunRequest::kFaultStreamFromBatchIndex
                ? i
                : requests[i].fault_stream;
        common::faults::maybe_delay(stream);
        if (common::faults::fires(common::faults::Site::WorkerThrow, stream))
          throw common::SimulationError("injected worker fault (stream " +
                                        std::to_string(stream) + ")");
      }
      results[i] = run(requests[i]);
    } catch (const common::Error& e) {
      results[i] = failed_result(requests[i], e);
      failed_counter.add(1);
      QC_LOG_ERROR("exec", "run_batch request %zu failed: %s", i, e.what());
    } catch (const std::exception& e) {
      results[i] = failed_result(requests[i], common::Error(e.what()));
      failed_counter.add(1);
      QC_LOG_ERROR("exec", "run_batch request %zu failed: %s", i, e.what());
    }
  });
  // Refresh the exec.engine.cache.* gauges once per batch, so metrics
  // exports from any batch-driving binary carry per-engine cache state
  // without an explicit snapshot call.
  (void)cache_stats_snapshot();
  return results;
}

}  // namespace qc::exec
