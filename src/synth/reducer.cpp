#include "synth/reducer.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <optional>
#include <set>

#include "common/error.hpp"
#include "common/faults.hpp"
#include "metrics/process.hpp"
#include "obs/obs.hpp"
#include "synth/cache.hpp"
#include "synth/cost.hpp"
#include "transpile/decompose.hpp"

namespace qc::synth {

using ir::Gate;
using ir::GateKind;
using ir::QuantumCircuit;
using linalg::cplx;
using linalg::Matrix;

namespace {

/// Row/column U3 kernels for the boundary cost (V = B * M * A).
void u3_coeffs(const double* p, cplx& g00, cplx& g01, cplx& g10, cplx& g11) {
  const double c = std::cos(p[0] / 2.0), s = std::sin(p[0] / 2.0);
  g00 = cplx{c, 0.0};
  g01 = -std::polar(s, p[2]);
  g10 = std::polar(s, p[1]);
  g11 = std::polar(c, p[1] + p[2]);
}

void left_u3(Matrix& m, int q, const double* p) {
  cplx g00, g01, g10, g11;
  u3_coeffs(p, g00, g01, g10, g11);
  const std::size_t dim = m.rows();
  const std::size_t bit = std::size_t{1} << q;
  cplx* d = m.data();
  for (std::size_t r = 0; r < dim; ++r) {
    if (r & bit) continue;
    cplx* row0 = d + r * dim;
    cplx* row1 = d + (r | bit) * dim;
    for (std::size_t col = 0; col < dim; ++col) {
      const cplx v0 = row0[col], v1 = row1[col];
      row0[col] = g00 * v0 + g01 * v1;
      row1[col] = g10 * v0 + g11 * v1;
    }
  }
}

void right_u3(Matrix& m, int q, const double* p) {
  cplx g00, g01, g10, g11;
  u3_coeffs(p, g00, g01, g10, g11);
  const std::size_t dim = m.rows();
  const std::size_t bit = std::size_t{1} << q;
  cplx* d = m.data();
  for (std::size_t r = 0; r < dim; ++r) {
    cplx* row = d + r * dim;
    for (std::size_t c = 0; c < dim; ++c) {
      if (c & bit) continue;
      // (M G)(r, c) = M(r,c) g(c..) : columns mix with G's columns.
      const cplx v0 = row[c], v1 = row[c | bit];
      row[c] = v0 * g00 + v1 * g10;
      row[c | bit] = v0 * g01 + v1 * g11;
    }
  }
}

/// Cost of 1 - |Tr(T† (B M A))| / d over boundary-layer params
/// x = [A params (3n), B params (3n)].
class BoundaryCost {
 public:
  BoundaryCost(Matrix target, Matrix kept) : target_(std::move(target)), kept_(std::move(kept)) {}

  double operator()(const std::vector<double>& x) const {
    const int n = num_qubits();
    scratch_ = kept_;
    for (int q = 0; q < n; ++q) right_u3(scratch_, q, x.data() + 3 * q);
    for (int q = 0; q < n; ++q) left_u3(scratch_, q, x.data() + 3 * (n + q));
    const cplx* t = target_.data();
    const cplx* v = scratch_.data();
    cplx acc{0.0, 0.0};
    const std::size_t total = target_.rows() * target_.cols();
    for (std::size_t i = 0; i < total; ++i) acc += std::conj(t[i]) * v[i];
    return 1.0 - std::min(1.0, std::abs(acc) / static_cast<double>(target_.rows()));
  }

  void gradient(const std::vector<double>& x, std::vector<double>& grad) const {
    constexpr double h = 1e-6;
    grad.resize(x.size());
    std::vector<double> probe = x;
    for (std::size_t i = 0; i < x.size(); ++i) {
      probe[i] = x[i] + h;
      const double fp = (*this)(probe);
      probe[i] = x[i] - h;
      const double fm = (*this)(probe);
      probe[i] = x[i];
      grad[i] = (fp - fm) / (2.0 * h);
    }
  }

  int num_qubits() const {
    int n = 0;
    while ((std::size_t{1} << n) < target_.rows()) ++n;
    return n;
  }

 private:
  Matrix target_;
  Matrix kept_;
  mutable Matrix scratch_;
};

/// Deterministically chooses `k` of `total` CX indices. Variant 0 is evenly
/// spaced; others are seeded random subsets.
std::vector<std::size_t> choose_subset(std::size_t total, std::size_t k, int variant,
                                       common::Rng& rng) {
  std::vector<std::size_t> idx;
  if (k >= total) {
    idx.resize(total);
    for (std::size_t i = 0; i < total; ++i) idx[i] = i;
    return idx;
  }
  if (k == 0) return idx;
  if (variant == 0) {
    for (std::size_t i = 0; i < k; ++i)
      idx.push_back((i * total) / k + (total / (2 * k)));
    for (auto& v : idx) v = std::min(v, total - 1);
    std::sort(idx.begin(), idx.end());
    idx.erase(std::unique(idx.begin(), idx.end()), idx.end());
    return idx;
  }
  std::set<std::size_t> chosen;
  while (chosen.size() < k) chosen.insert(rng.uniform_int(total));
  return {chosen.begin(), chosen.end()};
}

ReducerCacheKey make_cache_key(const QuantumCircuit& reference,
                               const ReducerOptions& options) {
  ReducerCacheKey key;
  key.reference_fp = reference.fingerprint();
  key.num_qubits = reference.num_qubits();
  key.num_gates = reference.size();
  for (double frac : options.keep_fractions)
    key.keep_fraction_bits.push_back(std::bit_cast<std::uint64_t>(frac));
  key.variants_per_size = options.variants_per_size;
  key.full_reopt_max_cx = options.full_reopt_max_cx;
  key.full_reopt_max_qubits = options.full_reopt_max_qubits;
  key.opt_max_iterations = options.optimizer.max_iterations;
  key.opt_tolerance_bits = std::bit_cast<std::uint64_t>(options.optimizer.tolerance);
  key.opt_lbfgs_memory = options.optimizer.lbfgs_memory;
  key.seed = options.seed;
  key.gradient_mode = static_cast<int>(default_gradient_mode());
  return key;
}

/// The reduction proper: every variant in the order the callback sees it.
std::vector<ApproxCircuit> run_reducer(const QuantumCircuit& reference,
                                       const ReducerOptions& options, bool& timed_out) {
  const QuantumCircuit basis = transpile::decompose_to_cx_u3(reference).unitary_part();
  const Matrix target = basis.to_unitary();
  const int n = basis.num_qubits();

  // Positions of CX gates in the basis circuit.
  std::vector<std::size_t> cx_positions;
  for (std::size_t i = 0; i < basis.size(); ++i)
    if (basis.gate(i).kind == GateKind::CX) cx_positions.push_back(i);

  common::Rng rng(options.seed);
  std::vector<ApproxCircuit> out;
  std::set<std::pair<std::size_t, int>> seen;  // (cx count, variant) dedup

  for (double frac : options.keep_fractions) {
    QC_CHECK(frac >= 0.0 && frac <= 1.0);
    const auto k = static_cast<std::size_t>(
        std::llround(frac * static_cast<double>(cx_positions.size())));
    const int variants = (k == 0 || k == cx_positions.size()) ? 1 : options.variants_per_size;

    for (int variant = 0; variant < variants; ++variant) {
      if (options.deadline.expired()) {
        timed_out = true;
        break;
      }
      if (!seen.insert({k, variant}).second) continue;
      common::Rng subset_rng = rng.split((k << 8) + static_cast<std::uint64_t>(variant));
      const auto kept_cx = choose_subset(cx_positions.size(), k, variant, subset_rng);

      const bool full_mode = static_cast<int>(kept_cx.size()) <= options.full_reopt_max_cx &&
                             n <= options.full_reopt_max_qubits;

      ApproxCircuit record;
      record.source = "reducer";

      if (full_mode) {
        // QSearch-shaped template on the kept CX skeleton, fully optimized.
        TemplateCircuit tpl = TemplateCircuit::u3_layer(n);
        for (std::size_t ci : kept_cx) {
          const Gate& g = basis.gate(cx_positions[ci]);
          tpl.add_qsearch_block(g.qubits[0], g.qubits[1]);
        }
        const HsCost cost(tpl, target);
        const CostFn f = [&cost](const std::vector<double>& x) { return cost(x); };
        const GradFn grad = [&cost](const std::vector<double>& x,
                                    std::vector<double>& gr) { cost.gradient(x, gr); };
        MultistartOptions ms;
        ms.inner = options.optimizer;
        ms.inner.deadline = options.deadline;  // per-iteration polling inside
        ms.num_starts = 2;
        const OptimizeResult opt =
            multistart_minimize(f, grad, tpl.identity_params(), subset_rng, ms);
        record.circuit = tpl.instantiate(opt.params);
        record.hs_distance = cost_to_hs_distance(opt.value);
        record.cnot_count = tpl.cx_count();
      } else {
        // Frozen interior (original angles, surviving CX only) + optimized
        // boundary layers.
        std::set<std::size_t> kept_cx_pos;
        for (std::size_t ci : kept_cx) kept_cx_pos.insert(cx_positions[ci]);
        QuantumCircuit interior(n);
        for (std::size_t i = 0; i < basis.size(); ++i) {
          const Gate& g = basis.gate(i);
          if (g.kind == GateKind::CX && !kept_cx_pos.count(i)) continue;
          interior.append(g);
        }
        BoundaryCost cost(target, interior.to_unitary());
        const CostFn f = [&cost](const std::vector<double>& x) { return cost(x); };
        const GradFn grad = [&cost](const std::vector<double>& x,
                                    std::vector<double>& gr) { cost.gradient(x, gr); };
        std::vector<double> x0(static_cast<std::size_t>(6 * n), 0.0);
        OptimizeOptions inner = options.optimizer;
        inner.deadline = options.deadline;
        const OptimizeResult opt = lbfgs_minimize(f, grad, x0, inner);

        QuantumCircuit bound(n);
        for (int q = 0; q < n; ++q)
          bound.u3(opt.params[3 * q], opt.params[3 * q + 1], opt.params[3 * q + 2], q);
        bound.append(interior);
        for (int q = 0; q < n; ++q)
          bound.u3(opt.params[3 * (n + q)], opt.params[3 * (n + q) + 1],
                   opt.params[3 * (n + q) + 2], q);
        record.circuit = std::move(bound);
        record.hs_distance = cost_to_hs_distance(opt.value);
        record.cnot_count = record.circuit.count(GateKind::CX);
      }

      if (options.callback) options.callback(record);
      out.push_back(std::move(record));
    }
  }
  // The optimizers stop on the deadline too and return their best point so
  // far, so expiry after the last per-variant check may have truncated the
  // final fit.
  if (options.deadline.expired()) timed_out = true;
  return out;
}

}  // namespace

std::vector<ApproxCircuit> reduce_circuit(const QuantumCircuit& reference,
                                          const ReducerOptions& options,
                                          bool* timed_out) {
  static obs::Histogram& reducer_ns = obs::histogram("synth.reducer_ns");
  obs::Span span("synth.reducer", &reducer_ns);
  if (timed_out != nullptr) *timed_out = false;
  // Fault injection precedes the cache, as in qsearch.
  if (common::faults::enabled() &&
      common::faults::fires(common::faults::Site::SynthFail, options.seed)) {
    throw common::SynthesisError("injected synthesis fault (reducer, seed " +
                                 std::to_string(options.seed) + ")");
  }

  std::optional<ReducerCacheKey> key;
  std::vector<ApproxCircuit> out;
  bool hit = false;
  if (options.use_cache) {
    key = make_cache_key(reference, options);
    if (auto cached = synth_cache_lookup(*key)) {
      hit = true;
      out = std::move(*cached);
      if (options.callback)
        for (const ApproxCircuit& record : out) options.callback(record);
    }
  }
  if (!hit) {
    bool expired = false;
    out = run_reducer(reference, options, expired);
    if (timed_out != nullptr) *timed_out = expired;
    // A timed-out run is a truncated reduction, not *the* result for this key.
    if (key && !expired) synth_cache_store(*key, out);
  }
  span.arg("cache_hit", hit);

  // The stream is stored in emission order, so a hit sorts the same
  // sequence the miss did and ties land identically.
  std::sort(out.begin(), out.end(), [](const ApproxCircuit& a, const ApproxCircuit& b) {
    if (a.cnot_count != b.cnot_count) return a.cnot_count < b.cnot_count;
    return a.hs_distance < b.hs_distance;
  });
  return out;
}

}  // namespace qc::synth
