// The qapprox_e2e harness: drives the library's public entry points from
// outside and records the benchmark's own spans around each call into a
// layer. Results go to a JSON file that e2ebench/run.py aggregates.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "common/json.hpp"

namespace e2e {

using qc::common::json::Value;

/// CLOCK_MONOTONIC nanoseconds (the clock Python's time.monotonic_ns reads),
/// so spans line up with the parent process's spawn and exit times.
inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// One benchmark span: a call into a layer. `id` names the study or request
/// the span belongs to; `parent` indexes the enclosing span (-1: top level).
struct Span {
  std::string name;
  std::string id;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  int parent = -1;
};

/// In-memory span log, written out once at the end of a run.
class SpanLog {
 public:
  int open(const std::string& name, const std::string& id, int parent) {
    spans_.push_back({name, id, now_ns(), 0, parent});
    return static_cast<int>(spans_.size()) - 1;
  }
  void close(int index) { spans_[static_cast<std::size_t>(index)].end_ns = now_ns(); }
  void add(Span span) { spans_.push_back(std::move(span)); }
  Value to_json() const;

 private:
  std::vector<Span> spans_;
};

/// Opens a span on construction and closes it on destruction.
class Scope {
 public:
  Scope(SpanLog& log, const std::string& name, const std::string& id, int parent = -1)
      : log_(log), index_(log.open(name, id, parent)) {}
  ~Scope() { log_.close(index_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;
  int index() const { return index_; }

 private:
  SpanLog& log_;
  int index_;
};

/// Build, ISA and thread-pool stamp of this process.
Value environment_stamp();

/// The program's own counters and histograms (obs registry), as JSON.
Value metrics_json();

/// `figs --set dm|traj`: one repetition of a figure set in this process.
int run_figures(const std::string& set, std::uint64_t seed, bool traced,
                std::int64_t start_ns, SpanLog& log, Value& out);

/// `serve-load`: waits for the server's first answered ping, then sends a
/// schedule file (one JSON object per line: {"segment": k, "due": seconds
/// after the segment's start, "req": request}) open loop, each segment once
/// the previous one has drained, and records every reply; ends with a stats
/// request and, when `shutdown`, a wire shutdown.
int run_serve_load(const std::string& socket_path, const std::string& schedule_path,
                   int connections, bool shutdown, Value& out);

/// `serve-check`: runs sampled jobs in-process through the serve job runners,
/// one span per job.
int run_serve_check(const std::string& jobs_path, SpanLog& log, Value& out);

}  // namespace e2e
