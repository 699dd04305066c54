// qapprox_e2e: the end-to-end benchmark's harness binary.
//
//   qapprox_e2e figs --set dm|traj --seed N --out FILE [--traced 1]
//   qapprox_e2e serve-load --socket PATH [--schedule FILE] --connections K
//                          [--shutdown 1] --out FILE
//   qapprox_e2e serve-check --jobs FILE --out FILE
//
// Each mode writes one JSON document to --out: the environment stamp, the
// benchmark's spans, the program's own metrics registry, and the mode's
// outputs. e2ebench/run.py spawns it, times it, and checks what it wrote.
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <string>
#include <thread>

#include "common/thread_pool.hpp"
#include "harness.hpp"
#include "linalg/kernels.hpp"
#include "obs/obs.hpp"

namespace e2e {

Value SpanLog::to_json() const {
  Value a = Value::array();
  for (const Span& s : spans_) {
    Value v = Value::object();
    v.set("name", s.name);
    v.set("id", s.id);
    v.set("start_ns", s.start_ns);
    v.set("end_ns", s.end_ns);
    v.set("parent", s.parent);
    a.push_back(std::move(v));
  }
  return a;
}

Value environment_stamp() {
  Value env = Value::object();
  env.set("nproc", static_cast<std::uint64_t>(std::thread::hardware_concurrency()));
  env.set("simd_isa", qc::linalg::simd_isa_name(qc::linalg::active_simd_isa()));
  env.set("threads", static_cast<std::uint64_t>(qc::common::ThreadPool::global().size()));
  env.set("build", qc::obs::build_info_summary());
  return env;
}

Value metrics_json() { return qc::common::json::parse(qc::obs::metrics_json()); }

}  // namespace e2e

int main(int argc, char** argv) {
  const std::int64_t start_ns = e2e::now_ns();
  if (argc < 2) {
    std::fprintf(stderr, "usage: qapprox_e2e figs|serve-load|serve-check --key value ...\n");
    return 2;
  }
  const std::string mode = argv[1];
  std::map<std::string, std::string> args;
  for (int i = 2; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    if (key.rfind("--", 0) != 0) {
      std::fprintf(stderr, "qapprox_e2e: expected --key value, got %s\n", key.c_str());
      return 2;
    }
    args[key.substr(2)] = argv[i + 1];
  }
  auto arg = [&](const std::string& key) -> std::string {
    const auto it = args.find(key);
    return it == args.end() ? std::string() : it->second;
  };
  const std::string out_path = arg("out");
  if (out_path.empty()) {
    std::fprintf(stderr, "qapprox_e2e: --out is required\n");
    return 2;
  }

  try {
    e2e::SpanLog log;
    e2e::Value out = e2e::Value::object();
    out.set("start_ns", start_ns);
    int rc = 2;
    if (mode == "figs") {
      rc = e2e::run_figures(arg("set"), std::stoull(arg("seed").empty() ? "0" : arg("seed")),
                            arg("traced") == "1", start_ns, log, out);
    } else if (mode == "serve-load") {
      rc = e2e::run_serve_load(arg("socket"), arg("schedule"),
                               std::stoi(arg("connections").empty() ? "1" : arg("connections")),
                               arg("shutdown") == "1", out);
    } else if (mode == "serve-check") {
      rc = e2e::run_serve_check(arg("jobs"), log, out);
    } else {
      std::fprintf(stderr, "qapprox_e2e: unknown mode %s\n", mode.c_str());
    }
    if (rc != 0) return rc;
    {
      e2e::Scope span(log, "output", mode);
      out.set("env", e2e::environment_stamp());
      if (qc::obs::timing_enabled()) out.set("metrics", e2e::metrics_json());
    }
    out.set("spans", log.to_json());
    std::ofstream file(out_path, std::ios::binary | std::ios::trunc);
    file << out.dump();
    if (!file.flush()) {
      std::fprintf(stderr, "qapprox_e2e: cannot write %s\n", out_path.c_str());
      return 1;
    }
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "qapprox_e2e %s: %s\n", mode.c_str(), e.what());
    return 1;
  }
}
