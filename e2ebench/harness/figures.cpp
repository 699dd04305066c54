// Figure workloads: the same approx:: study and scatter calls, bench_util
// presets (--fast) and SHAPE claims as the bench_fig* binaries, run back to
// back in one process so every figure starts from the caches the previous
// ones left (the first starts cold).
//
// Each figure records its SHAPE claims, the outputs the golden record is
// compared against, and a seeded sample of harvested circuits whose HS
// distance is recomputed here from the circuits' unitaries.
#include <algorithm>
#include <cmath>
#include <complex>
#include <functional>
#include <stdexcept>

#include "algos/grover.hpp"
#include "approx/selection.hpp"
#include "bench_util.hpp"
#include "common/driver.hpp"
#include "harness.hpp"
#include "noise/catalog.hpp"
#include "obs/obs.hpp"

namespace e2e {
namespace {

using namespace qc;

/// HS distance sqrt(1 - (|Tr(U^dagger V)| / d)^2), computed here rather than
/// through metrics::hs_distance so the check does not share code with the
/// synthesis tools it audits.
double recompute_hs(const ir::QuantumCircuit& a, const ir::QuantumCircuit& b) {
  const linalg::Matrix u = a.unitary_part().to_unitary();
  const linalg::Matrix v = b.unitary_part().to_unitary();
  std::complex<double> tr = 0.0;
  for (std::size_t r = 0; r < u.rows(); ++r)
    for (std::size_t c = 0; c < u.cols(); ++c) tr += std::conj(u(r, c)) * v(r, c);
  const double f = std::min(1.0, std::abs(tr) / static_cast<double>(u.rows()));
  return std::sqrt(std::max(0.0, 1.0 - f * f));
}

std::uint64_t mix(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

Value numbers(const std::vector<double>& xs) {
  Value a = Value::array();
  for (double x : xs) a.push_back(x);
  return a;
}

class Figure {
 public:
  Figure(const std::string& id, std::uint64_t seed, SpanLog& log, int parent)
      : id_(id), seed_(mix(seed ^ std::hash<std::string>{}(id))), log_(log),
        parent_(parent) {}

  SpanLog& log() { return log_; }
  int parent() const { return parent_; }
  const std::string& id() const { return id_; }

  void shape(const std::string& what, bool ok, double lhs, double rhs) {
    Value s = Value::object();
    s.set("what", what);
    s.set("ok", ok);
    s.set("lhs", lhs);
    s.set("rhs", rhs);
    shapes_.push_back(std::move(s));
  }

  /// One output series. kind: "exact" (deterministic: noise-free values,
  /// HS distances, CNOT counts) or the metric the study measured under noise
  /// ("magnetization", "success_probability", "js_distance").
  void series(const std::string& name, const std::string& kind,
              const std::vector<double>& values) {
    Value s = Value::object();
    s.set("kind", kind);
    s.set("values", numbers(values));
    series_.set(name, std::move(s));
  }

  /// Seeded index in [0, n), n > 0.
  std::size_t pick(std::size_t n) {
    seed_ = mix(seed_);
    return static_cast<std::size_t>(seed_ % n);
  }

  /// Recomputes the HS distance of `picks` seeded choices from `circuits`
  /// against `reference`.
  void check_hs(const ir::QuantumCircuit& reference,
                const std::vector<synth::ApproxCircuit>& circuits, int picks) {
    Scope span(log_, "check.hs", id_, parent_);
    for (int i = 0; i < picks && !circuits.empty(); ++i) {
      const std::size_t index = pick(circuits.size());
      const synth::ApproxCircuit& c = circuits[index];
      Value h = Value::object();
      h.set("index", static_cast<std::uint64_t>(index));
      h.set("reported", c.hs_distance);
      h.set("recomputed", recompute_hs(reference, c.circuit));
      hs_checks_.push_back(std::move(h));
    }
  }

  Value take() {
    Value rec = Value::object();
    rec.set("id", id_);
    rec.set("shapes", std::move(shapes_));
    rec.set("series", std::move(series_));
    rec.set("hs_checks", std::move(hs_checks_));
    return rec;
  }

 private:
  std::string id_;
  std::uint64_t seed_;
  SpanLog& log_;
  int parent_;
  Value shapes_ = Value::array();
  Value series_ = Value::object();
  Value hs_checks_ = Value::array();
};

// ---- shared study shapes ---------------------------------------------------

void record_tfim(Figure& fig, const approx::TfimStudyResult& result,
                 const algos::TfimModel& model, const std::string& metric_kind,
                 const std::string& prefix = "") {
  std::vector<double> nf, noisy, cx, hs, metric;
  for (const auto& ts : result.timesteps) {
    nf.push_back(ts.noise_free_reference);
    noisy.push_back(ts.noisy_reference);
    for (const auto& s : ts.scores) {
      cx.push_back(static_cast<double>(s.cnot_count));
      hs.push_back(s.hs_distance);
      metric.push_back(s.metric);
    }
  }
  fig.series(prefix + "noise_free_reference", "exact", nf);
  fig.series(prefix + "noisy_reference", metric_kind, noisy);
  fig.series(prefix + "cnots", "exact", cx);
  fig.series(prefix + "hs", "exact", hs);
  fig.series(prefix + "metric", metric_kind, metric);
  // Sample across the whole cloud: seeded timesteps, then circuits.
  for (int k = 0; k < 2 && !result.timesteps.empty(); ++k) {
    const auto& ts = result.timesteps[fig.pick(result.timesteps.size())];
    fig.check_hs(model.circuit_up_to(ts.step), ts.circuits, 1);
  }
}

void record_scatter(Figure& fig, const approx::ScatterStudy& study,
                    const std::string& metric_kind, const std::string& prefix = "") {
  std::vector<double> cx, hs, metric;
  for (const auto& s : study.scores) {
    cx.push_back(static_cast<double>(s.cnot_count));
    hs.push_back(s.hs_distance);
    metric.push_back(s.metric);
  }
  fig.series(prefix + "reference_metric", metric_kind, {study.reference_metric});
  fig.series(prefix + "reference_cnots", "exact",
             {static_cast<double>(study.reference_cnots)});
  fig.series(prefix + "cnots", "exact", cx);
  fig.series(prefix + "hs", "exact", hs);
  fig.series(prefix + "metric", metric_kind, metric);
}

/// Share of circuits whose |metric - noise-free| beats the noisy reference's.
double fraction_beating(const approx::TfimStudyResult& result, bool back_half_only) {
  const int back_half_from = result.timesteps.back().step / 2 + 1;
  std::size_t beats = 0, total = 0;
  for (const auto& ts : result.timesteps) {
    if (back_half_only && ts.step < back_half_from) continue;
    const double ref_err = std::abs(ts.noisy_reference - ts.noise_free_reference);
    for (const auto& s : ts.scores) {
      ++total;
      if (std::abs(s.metric - ts.noise_free_reference) < ref_err) ++beats;
    }
  }
  return total ? static_cast<double>(beats) / static_cast<double>(total) : 0.0;
}

/// Failed and timed-out runs count as failed checks; a failed timestep has
/// no scores to check, so it fails the repetition.
void check_runs(Figure& fig, const std::vector<approx::CircuitScore>& scores) {
  std::size_t bad = 0;
  for (const auto& s : scores) bad += (s.failed() || s.timed_out) ? 1 : 0;
  fig.shape("no failed or timed-out runs", bad == 0, static_cast<double>(bad), 0);
}

approx::TfimStudyResult tfim_study(Figure& fig, const approx::TfimStudyConfig& cfg) {
  approx::TfimStudyResult result;
  {
    Scope span(fig.log(), "approx.study", fig.id(), fig.parent());
    result = approx::run_tfim_study(cfg);
  }
  for (const auto& ts : result.timesteps) {
    if (!ts.ok())
      throw std::runtime_error(fig.id() + " timestep " + std::to_string(ts.step) +
                               " failed: " + ts.error);
    check_runs(fig, ts.scores);
  }
  return result;
}

std::vector<synth::ApproxCircuit> generate(Figure& fig,
                                           const ir::QuantumCircuit& reference,
                                           const approx::GeneratorConfig& gen) {
  Scope span(fig.log(), "approx.generate", fig.id(), fig.parent());
  const noise::CouplingMap line = noise::CouplingMap::line(reference.num_qubits());
  return approx::generate_from_reference(reference, gen, &line);
}

bench::ToffoliSetup toffoli_setup(Figure& fig, const bench::BenchContext& ctx, int n) {
  Scope span(fig.log(), "approx.generate", fig.id(), fig.parent());
  return bench::make_toffoli_setup(ctx, n);
}

approx::ScatterStudy scatter(Figure& fig, const ir::QuantumCircuit& reference,
                             const std::vector<synth::ApproxCircuit>& circuits,
                             const approx::ExecutionConfig& exec,
                             const approx::MetricSpec& metric) {
  approx::ScatterStudy study;
  {
    Scope span(fig.log(), "approx.scatter", fig.id(), fig.parent());
    study = approx::run_scatter_study(reference, circuits, exec, metric);
  }
  check_runs(fig, study.scores);
  return study;
}

// ---- figures (simulator mode) ----------------------------------------------

void fig02(Figure& fig, const bench::BenchContext& ctx) {
  const approx::TfimStudyConfig cfg = bench::tfim_config(ctx, "toronto", 3, false);
  const approx::TfimStudyResult result = tfim_study(fig, cfg);
  Scope check(fig.log(), "check.shape", fig.id(), fig.parent());
  double ref_err = 0, minhs_err = 0, best_err = 0;
  int counted = 0;
  const int back_half_from = result.timesteps.back().step / 2 + 1;
  for (const auto& ts : result.timesteps) {
    if (ts.step < back_half_from) continue;
    ref_err += std::abs(ts.noisy_reference - ts.noise_free_reference);
    minhs_err += std::abs(ts.scores[ts.minimal_hs].metric - ts.noise_free_reference);
    best_err += std::abs(ts.scores[ts.best_output].metric - ts.noise_free_reference);
    ++counted;
  }
  if (counted > 0) {
    ref_err /= counted;
    minhs_err /= counted;
    best_err /= counted;
  }
  fig.shape("minimal-HS tracks ideal better than noisy reference", minhs_err < ref_err,
            minhs_err, ref_err);
  fig.shape("best approximate tracks ideal best of all", best_err <= minhs_err,
            best_err, minhs_err);
  fig.shape("precision gain is substantial (>30%)", result.max_precision_gain > 0.30,
            result.max_precision_gain, 0.30);
  record_tfim(fig, result, cfg.model, "magnetization");
}

void fig04(Figure& fig, const bench::BenchContext& ctx) {
  const approx::TfimStudyConfig cfg = bench::tfim_config(ctx, "santiago", 4, false);
  const approx::TfimStudyResult result = tfim_study(fig, cfg);
  Scope check(fig.log(), "check.shape", fig.id(), fig.parent());
  std::size_t min_cx = 1000, max_cx = 0;
  for (const auto& ts : result.timesteps)
    for (const auto& s : ts.scores) {
      min_cx = std::min(min_cx, s.cnot_count);
      max_cx = std::max(max_cx, s.cnot_count);
    }
  const double frac = fraction_beating(result, true);
  fig.shape("many approximations beat the noisy reference", frac > 0.4, frac, 0.4);
  fig.shape("CNOT counts span the paper's 1..~48 range",
            min_cx <= 3 && max_cx >= (ctx.fast ? 10u : 30u),
            static_cast<double>(min_cx), static_cast<double>(max_cx));
  record_tfim(fig, result, cfg.model, "magnetization");
}

void grover_scatter(Figure& fig, const bench::BenchContext& ctx,
                    const approx::ExecutionConfig& exec, approx::ScatterStudy& study) {
  const ir::QuantumCircuit reference = algos::grover_circuit(3, 0b111);
  const auto circuits = generate(fig, reference, bench::grover_generator(ctx));
  approx::MetricSpec metric;
  metric.kind = approx::MetricSpec::Kind::SuccessProbability;
  metric.target_outcome = 0b111;
  study = scatter(fig, reference, circuits, exec, metric);
  fig.check_hs(reference, circuits, 2);
}

void fig05(Figure& fig, const bench::BenchContext& ctx) {
  approx::ScatterStudy study;
  grover_scatter(fig, ctx,
                 approx::ExecutionConfig::simulator(common::driver::device("toronto")),
                 study);
  Scope check(fig.log(), "check.shape", fig.id(), fig.parent());
  const double frac =
      approx::fraction_beating_reference(study.scores, study.reference_metric, true);
  fig.shape("majority of approximations beat the reference", frac > 0.5, frac, 0.5);
  const double best = study.scores[approx::best_by_max(study.scores)].metric;
  fig.shape("best approximation clearly beats reference",
            best > study.reference_metric + 0.05, best, study.reference_metric);
  record_scatter(fig, study, "success_probability");
}

void fig06(Figure& fig, const bench::BenchContext& ctx) {
  const bench::ToffoliSetup setup = toffoli_setup(fig, ctx, 4);
  const approx::ScatterStudy study =
      scatter(fig, setup.reference_battery, setup.battery,
              approx::ExecutionConfig::simulator(common::driver::device("manhattan")),
              setup.metric);
  fig.check_hs(setup.reference_battery, setup.battery, 2);
  Scope check(fig.log(), "check.shape", fig.id(), fig.parent());
  const double qiskit_js = study.reference_metric;
  const auto& winner = study.scores[approx::best_by_min(study.scores)];
  fig.shape("some approximation beats the Qiskit reference", winner.metric < qiskit_js,
            winner.metric, qiskit_js);
  fig.shape("the best-performing approximation is low-depth", winner.cnot_count <= 12,
            static_cast<double>(winner.cnot_count), 12);
  record_scatter(fig, study, "js_distance");
}

void fig07(Figure& fig, const bench::BenchContext& ctx) {
  const approx::ExecutionConfig exec =
      approx::ExecutionConfig::simulator(common::driver::device("manhattan"));
  const bench::ToffoliSetup setup5 = toffoli_setup(fig, ctx, 5);
  const approx::ScatterStudy study5 = scatter(fig, setup5.reference_battery,
                                              setup5.battery, exec, setup5.metric);
  const bench::ToffoliSetup setup4 = toffoli_setup(fig, ctx, 4);
  const approx::ScatterStudy study4 =
      scatter(fig, setup4.reference_battery, {}, exec, setup4.metric);
  fig.check_hs(setup5.reference_battery, setup5.battery, 2);
  Scope check(fig.log(), "check.shape", fig.id(), fig.parent());
  fig.shape("5q reference JS above 4q reference JS",
            study5.reference_metric > study4.reference_metric, study5.reference_metric,
            study4.reference_metric);
  std::size_t max_cx = 0;
  for (const auto& s : study5.scores) max_cx = std::max(max_cx, s.cnot_count);
  double deep_js = 0;
  int nd = 0;
  for (const auto& s : study5.scores)
    if (s.cnot_count >= (3 * max_cx) / 4) {
      deep_js += s.metric;
      ++nd;
    }
  if (nd) {
    deep_js /= nd;
    fig.shape("deep circuits sit near the 0.465 random-noise JS",
              std::abs(deep_js - setup5.random_noise_js) < 0.12, deep_js,
              setup5.random_noise_js);
  }
  const double best = study5.scores[approx::best_by_min(study5.scores)].metric;
  fig.shape("best 5q approximation beats the 5q reference",
            best < study5.reference_metric, best, study5.reference_metric);
  record_scatter(fig, study5, "js_distance");
  fig.series("q4.reference_metric", "js_distance", {study4.reference_metric});
}

void fig09(Figure& fig, const bench::BenchContext& ctx) {
  auto level = [&](double cx_error) {
    approx::TfimStudyConfig cfg = bench::tfim_config(ctx, "ourense", 3, false);
    cfg.execution.noise_options.uniform_cx_error = cx_error;
    return std::make_pair(tfim_study(fig, cfg), cfg.model);
  };
  const auto [at012, model] = level(0.12);
  const auto at0 = level(0.0).first;
  Scope check(fig.log(), "check.shape", fig.id(), fig.parent());
  auto mean_cloud_mag = [](const approx::TfimStudyResult& r) {
    double m = 0;
    std::size_t n = 0;
    for (const auto& ts : r.timesteps)
      for (const auto& s : ts.scores) {
        m += s.metric;
        ++n;
      }
    return n ? m / static_cast<double>(n) : 0.0;
  };
  const double mag012 = mean_cloud_mag(at012);
  const double mag0 = mean_cloud_mag(at0);
  fig.shape("CNOT error depresses the observed magnetization", mag012 < mag0, mag012,
            mag0);
  const double corr = bench::depth_error_correlation(at012);
  fig.shape("depth now predicts error (r > 0.3)", corr > 0.3, corr, 0.3);
  record_tfim(fig, at012, model, "magnetization", "err012.");
  record_tfim(fig, at0, model, "magnetization", "err0.");
}

// ---- figures (hardware mode: level-3 layout, trajectory engine) -------------

void fig12(Figure& fig, const bench::BenchContext& ctx) {
  approx::TfimStudyConfig cfg = bench::tfim_config(ctx, "manhattan", 3, true);
  const approx::TfimStudyResult result = tfim_study(fig, cfg);
  Scope check(fig.log(), "check.shape", fig.id(), fig.parent());
  const double frac = fraction_beating(result, false);
  fig.shape("almost all approximations beat the reference on hardware", frac > 0.7,
            frac, 0.7);
  record_tfim(fig, result, cfg.model, "magnetization");
}

void fig13(Figure& fig, const bench::BenchContext& ctx) {
  approx::TfimStudyConfig cfg = bench::tfim_config(ctx, "manhattan", 4, true);
  cfg.generator.hs_threshold = 0.35;
  cfg.generator.reducer.keep_fractions = {0.0, 0.05, 0.1, 0.15, 0.25, 0.35, 0.5};
  const approx::TfimStudyResult result = tfim_study(fig, cfg);
  Scope check(fig.log(), "check.shape", fig.id(), fig.parent());
  const double frac = fraction_beating(result, false);
  fig.shape("large majority of approximations beat the reference", frac > 0.55, frac,
            0.55);
  record_tfim(fig, result, cfg.model, "magnetization");
}

void fig14(Figure& fig, const bench::BenchContext& ctx) {
  approx::ExecutionConfig exec =
      approx::ExecutionConfig::hardware(common::driver::device("rome"));
  exec.shots = ctx.shots;
  approx::ScatterStudy study;
  grover_scatter(fig, ctx, exec, study);
  Scope check(fig.log(), "check.shape", fig.id(), fig.parent());
  const double frac =
      approx::fraction_beating_reference(study.scores, study.reference_metric, true);
  fig.shape("many approximations beat the reference", frac > 0.4, frac, 0.4);
  fig.shape("routed reference is much deeper than its logical 24 CX",
            study.reference_cnots >= 24, static_cast<double>(study.reference_cnots), 24);
  record_scatter(fig, study, "success_probability");
}

void fig15(Figure& fig, const bench::BenchContext& ctx) {
  const bench::ToffoliSetup setup = toffoli_setup(fig, ctx, 4);
  approx::ExecutionConfig exec =
      approx::ExecutionConfig::hardware(common::driver::device("manhattan"));
  exec.shots = ctx.shots;
  const approx::ScatterStudy study =
      scatter(fig, setup.reference_battery, setup.battery, exec, setup.metric);
  fig.check_hs(setup.reference_battery, setup.battery, 2);
  Scope check(fig.log(), "check.shape", fig.id(), fig.parent());
  const double best = study.scores[approx::best_by_min(study.scores)].metric;
  const double reduction = (study.reference_metric - best) / study.reference_metric;
  fig.shape("best approximation well below the reference (>25% JS cut)",
            reduction > 0.25, reduction, 0.25);
  fig.shape("hardware reference sits in the random-noise regime",
            study.reference_metric > setup.random_noise_js - 0.09,
            study.reference_metric, setup.random_noise_js);
  record_scatter(fig, study, "js_distance");
}

}  // namespace

int run_figures(const std::string& set, std::uint64_t seed, bool traced,
                std::int64_t start_ns, SpanLog& log, Value& out) {
  const bool hardware = set == "traj";
  if (!hardware && set != "dm") {
    std::fprintf(stderr, "qapprox_e2e figs: unknown --set %s (dm | traj)\n", set.c_str());
    return 2;
  }
  if (traced) obs::set_timing_enabled(true);

  // Set-up: runtime init, the figure presets' CLI surface, and the calibration
  // snapshots of every device the set touches.
  // Trajectory figures run 512 shots (the figures' smoke setting) so a run
  // holds enough repetitions for a steady median.
  char arg0[] = "qapprox_e2e";
  char fast[] = "--fast";
  char shots[] = "--shots=512";
  char* argv[] = {arg0, fast, shots, nullptr};
  bench::BenchContext ctx(hardware ? 3 : 2, argv, "e2e");
  const std::vector<std::string> devices =
      hardware ? std::vector<std::string>{"manhattan", "rome"}
               : std::vector<std::string>{"toronto", "santiago", "manhattan", "ourense"};
  for (const auto& d : devices) common::driver::device(d);
  const std::int64_t setup_end = now_ns();
  log.add({"setup", set, start_ns, setup_end, -1});

  // The workload seed picks the circuits whose HS distance is recomputed.
  // Execution keeps the figures' own seeds: fig15's fast-mode SHAPE claim
  // (>25% JS cut) is marginal under other trajectory seeds.
  Value figures = Value::array();
  auto run = [&](const std::string& id, const std::function<void(Figure&)>& body) {
    Scope span(log, "figure", id);
    Figure fig(id, seed, log, span.index());
    body(fig);
    figures.push_back(fig.take());
  };
  if (!hardware) {
    run("fig02", [&](Figure& f) { fig02(f, ctx); });
    run("fig04", [&](Figure& f) { fig04(f, ctx); });
    run("fig05", [&](Figure& f) { fig05(f, ctx); });
    run("fig06", [&](Figure& f) { fig06(f, ctx); });
    run("fig07", [&](Figure& f) { fig07(f, ctx); });
    run("fig09", [&](Figure& f) { fig09(f, ctx); });
  } else {
    run("fig12", [&](Figure& f) { fig12(f, ctx); });
    run("fig13", [&](Figure& f) { fig13(f, ctx); });
    run("fig14", [&](Figure& f) { fig14(f, ctx); });
    run("fig15", [&](Figure& f) { fig15(f, ctx); });
  }
  out.set("setup_end_ns", setup_end);
  out.set("shots", ctx.shots);
  out.set("figures", std::move(figures));
  return 0;
}

}  // namespace e2e
