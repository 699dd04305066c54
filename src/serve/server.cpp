#include "serve/server.hpp"

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <set>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include "common/deadline.hpp"

#include "common/driver.hpp"
#include "common/error.hpp"
#include "common/faults.hpp"
#include "common/io.hpp"
#include "linalg/kernels.hpp"
#include "obs/obs.hpp"
#include "obs/rolling.hpp"
#include "serve/jobs.hpp"
#include "synth/cache.hpp"
#include "synth/persist.hpp"

namespace qc::serve {

namespace json = common::json;
namespace driver = common::driver;

namespace {

std::size_t env_size(const char* name, std::size_t fallback) {
  const char* raw = std::getenv(name);
  if (raw == nullptr || *raw == '\0') return fallback;
  char* end = nullptr;
  const unsigned long long v = std::strtoull(raw, &end, 10);
  if (end == raw || *end != '\0' || v == 0) {
    QC_LOG_WARN("serve", "ignoring malformed %s='%s'", name, raw);
    return fallback;
  }
  return static_cast<std::size_t>(v);
}

double env_double(const char* name, double fallback) {
  const char* raw = std::getenv(name);
  if (raw == nullptr || *raw == '\0') return fallback;
  char* end = nullptr;
  const double v = std::strtod(raw, &end);
  if (end == raw || *end != '\0' || v < 0.0) {
    QC_LOG_WARN("serve", "ignoring malformed %s='%s'", name, raw);
    return fallback;
  }
  return v;
}

TailSamplerOptions tail_options(const ServerOptions& opts) {
  TailSamplerOptions t;
  t.dir = opts.trace_dir;
  t.top_k = opts.tail_top_k;
  t.window_ns = static_cast<std::uint64_t>(
      std::max(1.0, opts.metrics_window_ms) * 1e6);
  return t;
}

/// Metric-name-safe rendering of a caller-supplied label segment.
std::string sanitize_label(const std::string& raw) {
  std::string out;
  out.reserve(raw.size());
  for (const char c : raw)
    out += (std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '-' ||
            c == '_')
               ? c
               : '_';
  if (out.empty()) out = "anon";
  if (out.size() > 48) out.resize(48);
  return out;
}

/// Caps tenant-label cardinality: the first 32 distinct tenants get their own
/// rolling series, the rest fold into "other" — a hostile client choosing a
/// fresh tenant name per request must not mint unbounded instruments.
std::string tenant_label(const std::string& tenant) {
  static std::mutex mu;
  static std::set<std::string>* seen = new std::set<std::string>;
  const std::string s = sanitize_label(tenant);
  std::lock_guard<std::mutex> lock(mu);
  if (seen->count(s) != 0) return s;
  if (seen->size() >= 32) return "other";
  seen->insert(s);
  return s;
}

std::string trace_id_hex(std::uint64_t trace_id) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(trace_id));
  return buf;
}

}  // namespace

ServerOptions ServerOptions::from_env() {
  ServerOptions opts;
  if (const char* sock = std::getenv("QAPPROX_SERVE_SOCKET"))
    if (*sock != '\0') opts.socket_path = sock;
  opts.scheduler.workers = env_size("QAPPROX_SERVE_WORKERS", opts.scheduler.workers);
  opts.scheduler.queue_cap =
      env_size("QAPPROX_SERVE_QUEUE_CAP", opts.scheduler.queue_cap);
  opts.scheduler.per_tenant_cap =
      std::min(opts.scheduler.per_tenant_cap, opts.scheduler.queue_cap);
  opts.synth_cache_dir = synth::synth_cache_dir_env();
  if (const char* dir = std::getenv("QAPPROX_TRACE_DIR"))
    if (*dir != '\0') opts.trace_dir = dir;
  opts.tail_top_k = env_size("QAPPROX_TAIL_K", opts.tail_top_k);
  opts.metrics_period_ms =
      env_double("QAPPROX_METRICS_PERIOD_MS", opts.metrics_period_ms);
  opts.metrics_window_ms =
      env_double("QAPPROX_METRICS_WINDOW_MS", opts.metrics_window_ms);
  if (opts.metrics_window_ms <= 0.0) opts.metrics_window_ms = 1000.0;
  if (const char* dir = std::getenv("QAPPROX_JOURNAL_DIR"))
    if (*dir != '\0') opts.journal_dir = dir;
  opts.replay_cache_cap =
      env_size("QAPPROX_REPLAY_CACHE", opts.replay_cache_cap);
  opts.write_budget_bytes =
      env_size("QAPPROX_WRITE_BUDGET", opts.write_budget_bytes);
  opts.watchdog = Watchdog::options_from_env();
  return opts;
}

/// Per-connection shared state. Reader thread, writer thread, and every
/// queued job hold a shared_ptr; the last owner's destructor closes the fd,
/// so replies for a disconnected client degrade to counted write failures,
/// never a write to a reused descriptor. Replies are staged in a bounded
/// byte-budget queue drained by the connection's writer thread; a client
/// slower than its replies accumulate is disconnected at the budget (slow-
/// loris back-pressure) instead of wedging a worker or growing the queue.
struct QapproxServer::ConnState {
  int fd = -1;
  std::atomic<bool> write_ok{true};

  std::mutex q_mu;
  std::condition_variable q_cv;
  std::deque<std::string> queue;  // encoded frames, FIFO
  std::size_t queued_bytes = 0;
  std::size_t pending_jobs = 0;   // dispatched jobs not yet replied
  bool reader_done = false;       // reader thread exited
  bool stop = false;              // server stopping: flush queue and exit

  ~ConnState() {
    if (fd >= 0) ::close(fd);
  }

  /// Pending-job accounting: a connection's writer thread stays alive until
  /// the reader is gone AND every dispatched job has enqueued its reply.
  /// Null-safe (journal-recovered jobs have no connection).
  static void job_begin(const std::shared_ptr<ConnState>& conn) {
    if (conn == nullptr) return;
    std::lock_guard<std::mutex> lock(conn->q_mu);
    ++conn->pending_jobs;
  }

  static void job_end(const std::shared_ptr<ConnState>& conn) {
    if (conn == nullptr) return;
    {
      std::lock_guard<std::mutex> lock(conn->q_mu);
      if (conn->pending_jobs > 0) --conn->pending_jobs;
    }
    conn->q_cv.notify_all();
  }
};

QapproxServer::QapproxServer(ServerOptions options)
    : options_(std::move(options)),
      scheduler_(options_.scheduler),
      tail_(tail_options(options_)),
      replay_(options_.replay_cache_cap) {
  // Exec ids are "<boot>-<seq>": unique per actual execution across
  // restarts, which is what lets the chaos harness prove a request id never
  // executed twice.
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%012llx",
                static_cast<unsigned long long>(
                    (obs::now_ns() ^ (static_cast<std::uint64_t>(::getpid())
                                      << 32)) &
                    0xFFFFFFFFFFFFull));
  boot_id_ = buf;
}

QapproxServer::~QapproxServer() { stop(); }

void QapproxServer::start() {
  QC_CHECK_MSG(!running_.load(), "server already started");
  driver::init_runtime();
  started_at_ = std::chrono::steady_clock::now();

  if (tail_.enabled()) {
    // Tail sampling extracts traces from the live span buffers, so tracing
    // must be on even without QAPPROX_TRACE — with bounded per-thread rings:
    // a daemon traces forever in constant memory, and 32k events per thread
    // comfortably covers several sampling windows of job spans.
    obs::enable_tracing();
    obs::set_timing_enabled(true);
    obs::set_trace_capacity(32768);
    QC_LOG_INFO("serve", "tail sampling to %s (top %zu per %.0f ms window)",
                tail_.options().dir.c_str(), tail_.options().top_k,
                static_cast<double>(tail_.options().window_ns) / 1e6);
  }

  if (!options_.synth_cache_dir.empty()) {
    warm_loaded_ = synth::synth_cache_load(options_.synth_cache_dir);
    if (warm_loaded_ > 0)
      QC_LOG_INFO("serve", "warm-started %llu synthesis-cache entries from %s",
                  static_cast<unsigned long long>(warm_loaded_),
                  options_.synth_cache_dir.c_str());
  }

  // Crash durability: recover the journal (rebuilding the replay cache),
  // arm the watchdog, and re-enqueue accepted-but-unfinished jobs — all
  // before the listener exists, so no connection observes a half-recovered
  // server and no job runs unwatched.
  journal_ = std::make_unique<JobJournal>(options_.journal_dir, &replay_);
  if (journal_->enabled()) {
    const JournalStats js = journal_->stats();
    QC_LOG_INFO("serve",
                "journal %s: %llu replies replayed, %llu jobs to re-enqueue, "
                "%llu torn bytes discarded (%.1f ms)",
                js.path.c_str(),
                static_cast<unsigned long long>(js.recovered_replies),
                static_cast<unsigned long long>(js.recovered_incomplete),
                static_cast<unsigned long long>(js.torn_bytes), js.recovery_ms);
  }
  watchdog_ = std::make_unique<Watchdog>(
      options_.watchdog,
      [this](const std::shared_ptr<JobTicket>& ticket) { reap_job(ticket); });
  replay_recovered_jobs();

  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  QC_CHECK_MSG(options_.socket_path.size() < sizeof(addr.sun_path),
               "socket path too long: " + options_.socket_path);
  std::strncpy(addr.sun_path, options_.socket_path.c_str(),
               sizeof(addr.sun_path) - 1);

  listen_fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (listen_fd_ < 0)
    throw common::Error(std::string("serve: socket() failed: ") +
                        std::strerror(errno));
  ::unlink(options_.socket_path.c_str());  // stale socket from a dead server
  if (::bind(listen_fd_, reinterpret_cast<const sockaddr*>(&addr),
             sizeof(addr)) != 0) {
    const int err = errno;
    ::close(listen_fd_);
    listen_fd_ = -1;
    throw common::Error("serve: bind(" + options_.socket_path +
                        ") failed: " + std::strerror(err));
  }
  if (::listen(listen_fd_, 64) != 0) {
    const int err = errno;
    ::close(listen_fd_);
    listen_fd_ = -1;
    throw common::Error(std::string("serve: listen() failed: ") +
                        std::strerror(err));
  }

  running_.store(true);
  accept_thread_ = std::thread([this] { accept_loop(); });
  if (options_.metrics_period_ms > 0.0) {
    if (obs::metrics_export_path().empty()) {
      QC_LOG_WARN("serve",
                  "QAPPROX_METRICS_PERIOD_MS is set but QAPPROX_METRICS is "
                  "not; periodic snapshots have nowhere to go");
    } else {
      {
        std::lock_guard<std::mutex> lock(exporter_mu_);
        exporter_stop_ = false;
      }
      exporter_thread_ = std::thread([this] { exporter_loop(); });
      QC_LOG_INFO("serve", "metrics snapshots every %.0f ms -> %s{,.prom}",
                  options_.metrics_period_ms,
                  obs::metrics_export_path().c_str());
    }
  }
  QC_LOG_INFO("serve", "listening on %s (%zu workers, queue cap %zu)",
              options_.socket_path.c_str(), options_.scheduler.workers,
              options_.scheduler.queue_cap);
}

void QapproxServer::exporter_loop() {
  std::unique_lock<std::mutex> lock(exporter_mu_);
  while (!exporter_stop_) {
    exporter_cv_.wait_for(
        lock,
        std::chrono::duration<double, std::milli>(options_.metrics_period_ms),
        [this] { return exporter_stop_; });
    if (exporter_stop_) return;  // stop() writes the final snapshot itself
    lock.unlock();
    write_metric_snapshots();
    lock.lock();
  }
}

void QapproxServer::write_metric_snapshots() const {
  const std::string& path = obs::metrics_export_path();
  if (path.empty()) return;
  try {
    // Same shape as the at-exit QAPPROX_METRICS file, but atomic: a scraper
    // reading mid-rename sees the previous complete snapshot, never a
    // truncated one. The Prometheus exposition rides next to it.
    common::atomic_write_file(path, "{\"build\":" + obs::build_info_json() +
                                        ",\"metrics\":" + obs::metrics_json() +
                                        "}");
    common::atomic_write_file(path + ".prom", obs::metrics_prometheus());
  } catch (const common::Error& e) {
    QC_LOG_WARN("serve", "metrics snapshot failed: %s", e.what());
  }
}

void QapproxServer::accept_loop() {
  while (!stopping_.load()) {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      return;  // listener shut down (stop()) or fatal: accept loop ends
    }
    counters_.connections.fetch_add(1, std::memory_order_relaxed);
    // Bound every blocking send: a peer that stops reading mid-frame stalls
    // its writer thread for at most this long before counting as dead, so
    // stop() can always flush and join.
    timeval send_timeout{};
    send_timeout.tv_sec = 5;
    ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &send_timeout,
                 sizeof(send_timeout));
    auto conn = std::make_shared<ConnState>();
    conn->fd = fd;
    std::lock_guard<std::mutex> lock(conns_mu_);
    if (stopping_.load()) return;  // raced with stop(): conn closes via dtor
    conns_.push_back(conn);
    readers_.emplace_back([this, conn]() mutable {
      handle_connection(std::move(conn));
    });
    writers_.emplace_back([this, conn = std::move(conn)]() mutable {
      writer_loop(std::move(conn));
    });
  }
}

void QapproxServer::handle_connection(std::shared_ptr<ConnState> conn) {
  FrameDecoder decoder(options_.max_frame_bytes);
  while (!decoder.poisoned()) {
    while (auto frame = decoder.next()) {
      if (frame->oversized) {
        counters_.oversized_frames.fetch_add(1, std::memory_order_relaxed);
        send_reply(conn, make_error_reply(
                             json::Value(), "bad_request",
                             "frame of " + std::to_string(frame->declared_size) +
                                 " bytes exceeds the " +
                                 std::to_string(options_.max_frame_bytes) +
                                 "-byte limit"));
        continue;
      }
      handle_frame(conn, frame->payload);
    }
    if (decoder.poisoned()) break;
    if (!read_into_decoder(conn->fd, decoder)) break;  // EOF / error / stop()
  }
  {
    std::lock_guard<std::mutex> lock(conn->q_mu);
    conn->reader_done = true;
  }
  conn->q_cv.notify_all();  // writer may now exit once pending jobs drain
}

void QapproxServer::handle_frame(const std::shared_ptr<ConnState>& conn,
                                 const std::string& payload) {
  counters_.requests.fetch_add(1, std::memory_order_relaxed);
  std::string error;
  json::Value salvage_id;
  std::optional<RequestEnvelope> env = parse_request(payload, &error, &salvage_id);
  if (!env) {
    counters_.bad_requests.fetch_add(1, std::memory_order_relaxed);
    send_reply(conn, make_error_reply(salvage_id, "bad_request", error));
    return;
  }
  switch (env->type) {
    case RequestType::Ping: {
      counters_.ping.fetch_add(1, std::memory_order_relaxed);
      json::Value result = json::Value::object();
      result.set("pong", true);
      result.set("build", obs::build_info_summary());
      send_reply(conn, make_ok_reply(env->id, std::move(result)));
      return;
    }
    case RequestType::Stats: {
      counters_.stats.fetch_add(1, std::memory_order_relaxed);
      send_reply(conn, make_ok_reply(env->id, build_stats()));
      return;
    }
    case RequestType::Metrics: {
      counters_.metrics.fetch_add(1, std::memory_order_relaxed);
      std::string format = "json";
      if (env->params.is_object())
        format = env->params.get_string("format", "json");
      if (format != "json" && format != "prometheus") {
        send_reply(conn,
                   make_error_reply(env->id, "bad_request",
                                    "\"format\" must be \"json\" or "
                                    "\"prometheus\", got \"" + format + "\""));
        return;
      }
      send_reply(conn, make_ok_reply(env->id, build_metrics(format)));
      return;
    }
    case RequestType::Shutdown: {
      counters_.shutdown.fetch_add(1, std::memory_order_relaxed);
      json::Value result = json::Value::object();
      result.set("stopping", true);
      send_reply(conn, make_ok_reply(env->id, std::move(result)));
      request_shutdown();
      return;
    }
    case RequestType::Simulate:
    case RequestType::Synthesize:
      dispatch_job(conn, std::move(*env));
      return;
  }
}

void QapproxServer::dispatch_job(const std::shared_ptr<ConnState>& conn,
                                 RequestEnvelope env, bool recovered) {
  const bool is_simulate = env.type == RequestType::Simulate;
  (is_simulate ? counters_.simulate : counters_.synthesize)
      .fetch_add(1, std::memory_order_relaxed);
  const char* kind = is_simulate ? "simulate" : "synthesize";
  const std::string tenant = env.tenant;

  // Idempotency key, tenant-scoped so tenants cannot collide or probe each
  // other's replies. "" = keyless: not journaled, not deduplicated.
  const std::string key =
      env.idem.empty() ? std::string() : tenant + '\x1f' + env.idem;

  // Replay fast path: a completed key's retry gets the cached reply —
  // re-stamped with this request's id — never a second execution.
  if (!key.empty()) {
    if (std::optional<json::Value> cached = replay_.get(key)) {
      counters_.replayed.fetch_add(1, std::memory_order_relaxed);
      obs::counter("serve.replay.hits").add(1);
      json::Value reply = std::move(*cached);
      reply.set("id", env.id);
      reply.set("replayed", true);
      send_reply(conn, reply);
      return;
    }
  }

  auto ticket = std::make_shared<JobTicket>();
  ticket->id = ticket_seq_.fetch_add(1, std::memory_order_relaxed) + 1;
  ticket->kind = kind;
  ticket->tenant = tenant;
  ticket->key = key;
  ticket->request_id = env.id;
  ticket->wait_key = key.empty() ? std::string(1, '\0') + "#" +
                                       std::to_string(ticket->id)
                                 : key;
  if (env.deadline_ms > 0) {
    ticket->budget_ms = env.deadline_ms;
  } else {
    const double rem = common::Deadline::from_env().remaining_ms();
    if (std::isfinite(rem)) ticket->budget_ms = rem;
  }

  // Register the waiter. For keyed jobs this is also the dedup point: a
  // retry of an in-flight key attaches to the one execution instead of
  // re-executing, and the replay cache is re-checked under inflight_mu_ to
  // close the race with a concurrent completion (record_done puts the reply
  // into the cache *before* deliver_keyed_reply pops the waiter list under
  // this same mutex, so "not in flight" implies "visible in the cache").
  ConnState::job_begin(conn);
  bool primary = true;
  std::optional<json::Value> completed_racing;
  {
    std::lock_guard<std::mutex> lock(inflight_mu_);
    auto it = inflight_.find(ticket->wait_key);
    if (it != inflight_.end()) {
      it->second.push_back(Waiter{conn, env.id});
      primary = false;
    } else if (!key.empty() && (completed_racing = replay_.get(key))) {
      primary = false;
    } else {
      inflight_.emplace(ticket->wait_key,
                        std::vector<Waiter>{Waiter{conn, env.id}});
    }
  }
  if (completed_racing) {
    ConnState::job_end(conn);
    counters_.replayed.fetch_add(1, std::memory_order_relaxed);
    obs::counter("serve.replay.hits").add(1);
    json::Value reply = std::move(*completed_racing);
    reply.set("id", env.id);
    reply.set("replayed", true);
    send_reply(conn, reply);
    return;
  }
  if (!primary) {
    counters_.attached.fetch_add(1, std::memory_order_relaxed);
    obs::counter("serve.replay.attached").add(1);
    return;  // reply arrives via deliver_keyed_reply
  }

  // Journal ACCEPTED before submitting — durable, so a crash from here on
  // re-enqueues the job. The order matters: an ACCEPTED appended after the
  // job's own DONE would resurrect a completed job at recovery and execute
  // it a second time. Recovered jobs are already in the journal's
  // incomplete set and must not be re-accepted.
  if (!key.empty() && !recovered) {
    json::Value request = json::Value::object();
    request.set("type", kind);
    request.set("id", env.id);
    request.set("tenant", env.tenant);
    request.set("idem", env.idem);
    if (env.deadline_ms > 0) request.set("deadline_ms", env.deadline_ms);
    request.set("params", env.params);
    journal_->record_accepted(key, request);
  }

  // Admission: mint the job's trace root and stamp the clock here, on the
  // reader thread — queue wait starts now, not when a worker first sees the
  // job. The queued/exec phase identities are pre-minted children of the
  // root: both phases are committed after the fact (ManualSpan), and the
  // engine needs the exec identity as its parent *before* that span exists.
  // Ids are minted even with tracing off, so every reply can echo a trace id.
  const obs::TraceContext root = obs::mint_trace();
  const obs::TraceContext queued_ctx = obs::mint_child(root);
  const obs::TraceContext exec_ctx = obs::mint_child(root);
  const std::uint64_t admitted_ns = obs::now_ns();

  // The job owns the envelope; the reply goes out from the worker thread via
  // the waiter table (deliver_keyed_reply), streaming in completion order.
  auto body = [this, env = std::move(env), is_simulate, kind, tenant, key,
               ticket, root, queued_ctx, exec_ctx,
               admitted_ns](const common::CancelToken& cancel) {
    const std::uint64_t start_ns = obs::now_ns();
    // Exec ids are unique per actual execution, across restarts (boot-id
    // prefixed): the chaos harness proves exactly-once execution by checking
    // every reply for one request id carries the same exec id.
    const std::string exec_id =
        boot_id_ + "-" +
        std::to_string(exec_seq_.fetch_add(1, std::memory_order_relaxed) + 1);
    if (!key.empty()) journal_->record_started(key, exec_id);

    // Arm the watchdog: a per-job token linked to the scheduler's stop token
    // (strike 1 cancels this job alone), a progress beacon bumped by every
    // deadline poll (strike 2 requires the beacon frozen — the job is wedged
    // in non-polling code, not merely slow).
    ticket->cancel = common::CancelToken::linked(cancel);
    ticket->started_at = std::chrono::steady_clock::now();
    common::Deadline deadline = env.deadline_ms > 0
                                    ? common::Deadline::after_ms(env.deadline_ms)
                                    : common::Deadline::from_env();
    deadline = deadline.with_token(ticket->cancel)
                   .with_progress(ticket->beacon);
    watchdog_->watch(ticket);

    json::Value reply;
    const char* status = "ok";
    try {
      const JobOutcome outcome =
          is_simulate ? run_simulate_job(env.params, deadline, exec_ctx)
                      : run_synthesize_job(env.params, deadline, exec_ctx);
      status = outcome.degraded ? "degraded" : "ok";
      reply = outcome.degraded
                  ? make_degraded_reply(env.id, outcome.result, outcome.why)
                  : make_ok_reply(env.id, outcome.result);
    } catch (const common::TimeoutError& e) {
      status = "error";
      reply = make_error_reply(env.id, "timeout", e.what());
    } catch (const common::ContractError& e) {
      status = "error";
      reply = make_error_reply(env.id, "contract", e.what());
    } catch (const common::SynthesisError& e) {
      status = "error";
      reply = make_error_reply(env.id, "synthesis", e.what());
    } catch (const common::SimulationError& e) {
      status = "error";
      reply = make_error_reply(env.id, "simulation", e.what());
    } catch (const std::exception& e) {
      status = "error";
      reply = make_error_reply(env.id, "internal", e.what());
    }
    const std::uint64_t exec_end_ns = obs::now_ns();
    watchdog_->release(ticket);

    // Every job reply carries its server-side timeline, so clients can split
    // their measured latency into queue wait vs execution without a second
    // request. reply_ns covers reply *construction* (the frame write itself
    // is only measurable afterwards; its true cost goes to the
    // serve.job.reply span and the serve.job.reply_ns rolling histogram).
    json::Value timeline = json::Value::object();
    timeline.set("trace_id", trace_id_hex(root.trace_id));
    timeline.set("queued_ns", start_ns - admitted_ns);
    timeline.set("exec_ns", exec_end_ns - start_ns);
    const std::uint64_t reply_start_ns = obs::now_ns();
    timeline.set("reply_ns", reply_start_ns - exec_end_ns);
    reply.set("timeline", std::move(timeline));
    reply.set("exec", exec_id);

    // Exactly-one-reply arbitration with the reaper: whoever flips the flag
    // first owns the reply. Losing means the watchdog already answered (and
    // journaled) for this job while this thread was wedged — suppress
    // everything and hand the slot accounting back to the scheduler.
    if (ticket->replied->exchange(true)) {
      scheduler_.note_wedged_worker_returned();
      return;
    }

    if (reply.find("error") != nullptr)
      counters_.job_errors.fetch_add(1, std::memory_order_relaxed);
    if (!key.empty()) {
      // A key completing twice is the invariant the whole journal exists to
      // uphold; the counter is the chaos gate (must stay 0).
      if (replay_.contains(key))
        counters_.duplicate_exec.fetch_add(1, std::memory_order_relaxed);
      journal_->record_done(key, reply);  // durable BEFORE any send
      replay_.put(key, reply);
    }
    deliver_keyed_reply(ticket->wait_key, reply);
    const std::uint64_t end_ns = obs::now_ns();

    // Commit the phase spans now that every interval is known: one connected
    // trace per job — serve.job{queued,exec,reply} under the root, with the
    // engine's exec.run tree already parented at exec_ctx.
    {
      obs::ManualSpan queued("serve.job.queued", queued_ctx, root.span_id);
      queued.commit(admitted_ns, start_ns);
      obs::ManualSpan exec_span("serve.job.exec", exec_ctx, root.span_id);
      exec_span.commit(start_ns, exec_end_ns);
      obs::ManualSpan reply_span("serve.job.reply", obs::mint_child(root),
                                 root.span_id);
      reply_span.commit(reply_start_ns, end_ns);
      obs::ManualSpan job("serve.job", root, 0);
      job.arg("kind", std::string(kind));
      job.arg("tenant", tenant);
      job.arg("status", std::string(status));
      job.commit(admitted_ns, end_ns);
    }

    record_job_metrics(kind, tenant, end_ns - admitted_ns,
                       start_ns - admitted_ns, exec_end_ns - start_ns);
    obs::rolling_histogram("serve.job.reply_ns").record(end_ns - reply_start_ns);
    // Degraded/error traces always survive; healthy ones only if they are
    // among the window's slowest.
    tail_.observe(root.trace_id, end_ns - admitted_ns, end_ns, status,
                  std::strcmp(status, "ok") != 0);
  };
  std::string reject_reason;
  if (!scheduler_.submit(tenant, std::move(body), &reject_reason)) {
    counters_.overloaded.fetch_add(1, std::memory_order_relaxed);
    // Close the key in the journal (nothing ran; recovery must not
    // re-enqueue it) and bounce every waiter — retries may have attached
    // between registration and this rejection.
    if (!key.empty()) journal_->record_rejected(key);
    std::vector<Waiter> waiters;
    {
      std::lock_guard<std::mutex> lock(inflight_mu_);
      auto it = inflight_.find(ticket->wait_key);
      if (it != inflight_.end()) {
        waiters = std::move(it->second);
        inflight_.erase(it);
      }
    }
    for (const Waiter& w : waiters) {
      send_reply(w.conn,
                 make_error_reply(w.request_id, "overloaded", reject_reason));
      ConnState::job_end(w.conn);
    }
  }
}

void QapproxServer::record_job_metrics(const char* kind,
                                       const std::string& tenant,
                                       std::uint64_t latency_ns,
                                       std::uint64_t queue_wait_ns,
                                       std::uint64_t exec_ns) {
  const std::uint64_t window_ns = static_cast<std::uint64_t>(
      std::max(1.0, options_.metrics_window_ms) * 1e6);
  const auto rec = [&](const std::string& name, std::uint64_t v) {
    obs::rolling_histogram(name, window_ns).record(v);
  };
  rec("serve.job.latency_ns", latency_ns);
  rec("serve.job.queue_wait_ns", queue_wait_ns);
  rec("serve.job.exec_ns", exec_ns);
  const std::string by_kind = std::string(".kind.") + kind;
  rec("serve.job.latency_ns" + by_kind, latency_ns);
  rec("serve.job.queue_wait_ns" + by_kind, queue_wait_ns);
  rec("serve.job.exec_ns" + by_kind, exec_ns);
  const std::string by_tenant = ".tenant." + tenant_label(tenant);
  rec("serve.job.latency_ns" + by_tenant, latency_ns);
  rec("serve.job.queue_wait_ns" + by_tenant, queue_wait_ns);
  rec("serve.job.exec_ns" + by_tenant, exec_ns);
}

void QapproxServer::send_reply(const std::shared_ptr<ConnState>& conn,
                               const json::Value& reply) {
  // Journal-recovered jobs have no connection: their reply lives in the
  // replay cache, waiting for the client's retry.
  if (conn == nullptr) return;
  if (!conn->write_ok.load(std::memory_order_relaxed)) return;
  std::string payload = reply.dump();
  bool overflow = false;
  {
    std::lock_guard<std::mutex> lock(conn->q_mu);
    if (conn->queued_bytes + payload.size() > options_.write_budget_bytes) {
      overflow = true;
      conn->queue.clear();
      conn->queued_bytes = 0;
    } else {
      conn->queued_bytes += payload.size();
      conn->queue.push_back(std::move(payload));
    }
  }
  if (overflow) {
    // Slow reader: the client cannot keep up with its own replies. Cut it
    // off at the budget — buffering without bound would let one stalled
    // client hold reply memory for the whole server hostage.
    conn->write_ok.store(false, std::memory_order_relaxed);
    counters_.slow_disconnects.fetch_add(1, std::memory_order_relaxed);
    obs::counter("serve.conn.slow_disconnects").add(1);
    ::shutdown(conn->fd, SHUT_RDWR);
  }
  conn->q_cv.notify_all();
}

void QapproxServer::writer_loop(std::shared_ptr<ConnState> conn) {
  std::unique_lock<std::mutex> lock(conn->q_mu);
  while (true) {
    conn->q_cv.wait(lock, [&] {
      return !conn->queue.empty() || conn->stop ||
             !conn->write_ok.load(std::memory_order_relaxed) ||
             (conn->reader_done && conn->pending_jobs == 0);
    });
    if (!conn->write_ok.load(std::memory_order_relaxed)) return;
    if (!conn->queue.empty()) {
      std::string payload = std::move(conn->queue.front());
      conn->queue.pop_front();
      conn->queued_bytes -= payload.size();
      lock.unlock();
      try {
        write_frame_fd(conn->fd, payload);
        counters_.replies.fetch_add(1, std::memory_order_relaxed);
      } catch (const common::Error&) {
        // Client went away (or SO_SNDTIMEO fired on a wedged peer);
        // remaining replies for this connection are dropped and counted,
        // never retried against a dead socket.
        conn->write_ok.store(false, std::memory_order_relaxed);
        counters_.write_failures.fetch_add(1, std::memory_order_relaxed);
      }
      lock.lock();
      continue;
    }
    // Queue drained: exit once no more replies can arrive (stop() drains the
    // scheduler before flagging, so pending replies are already queued) or
    // once this connection's reader is gone and its last job has replied.
    if (conn->stop || (conn->reader_done && conn->pending_jobs == 0)) return;
  }
}

void QapproxServer::deliver_keyed_reply(const std::string& key,
                                        const json::Value& reply) {
  std::vector<Waiter> waiters;
  {
    std::lock_guard<std::mutex> lock(inflight_mu_);
    auto it = inflight_.find(key);
    if (it != inflight_.end()) {
      waiters = std::move(it->second);
      inflight_.erase(it);
    }
  }
  // The first waiter started the execution; the rest are retries that
  // attached mid-flight and get the same reply marked as replayed.
  for (std::size_t i = 0; i < waiters.size(); ++i) {
    json::Value copy = reply;
    copy.set("id", waiters[i].request_id);
    if (i > 0) copy.set("replayed", true);
    send_reply(waiters[i].conn, copy);
    ConnState::job_end(waiters[i].conn);
  }
}

void QapproxServer::reap_job(const std::shared_ptr<JobTicket>& ticket) {
  // Arbitrate with the worker: if it replied between the scan and this
  // callback, there is nothing to reap.
  if (ticket->replied->exchange(true)) return;
  counters_.reaped.fetch_add(1, std::memory_order_relaxed);
  const double elapsed_ms = std::chrono::duration<double, std::milli>(
                                std::chrono::steady_clock::now() -
                                ticket->started_at)
                                .count();
  char msg[160];
  std::snprintf(msg, sizeof(msg),
                "%s job ran %.0f ms against a %.0f ms budget without polling "
                "its deadline; slot reaped",
                ticket->kind.c_str(), elapsed_ms, ticket->budget_ms);
  json::Value reply = make_error_reply(ticket->request_id, "reaped", msg);
  reply.set("timed_out", true);
  if (!ticket->key.empty()) {
    // The key is burnt: the wedged thread may yet complete its side effects,
    // so a retry must replay this error, never re-execute. A fresh attempt
    // needs a fresh idempotency key.
    journal_->record_done(ticket->key, reply);
    replay_.put(ticket->key, reply);
  }
  deliver_keyed_reply(ticket->wait_key, reply);
  // Replace the wedged slot so throughput survives the loss; the surplus
  // worker retires once the stuck thread finally returns.
  scheduler_.spawn_surplus_worker();
}

void QapproxServer::replay_recovered_jobs() {
  if (journal_ == nullptr || !journal_->enabled()) return;
  std::vector<RecoveredJob> jobs = std::move(journal_->recovered());
  for (RecoveredJob& job : jobs) {
    std::string error;
    json::Value salvage_id;
    std::optional<RequestEnvelope> env =
        parse_request(job.request.dump(), &error, &salvage_id);
    if (!env || (env->type != RequestType::Simulate &&
                 env->type != RequestType::Synthesize)) {
      QC_LOG_WARN("serve", "journal: dropping unusable recovered job %s: %s",
                  job.key.c_str(), error.c_str());
      continue;
    }
    counters_.recovered_jobs.fetch_add(1, std::memory_order_relaxed);
    obs::counter("serve.journal.replayed_jobs").add(1);
    // No connection: the reply lands in the replay cache for the client's
    // retry. recovered=true keeps the journal's incomplete entry as-is.
    dispatch_job(nullptr, std::move(*env), /*recovered=*/true);
  }
}

void QapproxServer::wait() {
  std::unique_lock<std::mutex> lock(shutdown_mu_);
  shutdown_cv_.wait(lock, [this] { return shutdown_requested_; });
}

void QapproxServer::request_shutdown() {
  {
    std::lock_guard<std::mutex> lock(shutdown_mu_);
    shutdown_requested_ = true;
  }
  shutdown_cv_.notify_all();
}

void QapproxServer::stop() {
  if (!running_.exchange(false)) {
    request_shutdown();
    return;
  }
  stopping_.store(true);
  request_shutdown();

  // 1. Stop accepting: shutdown() wakes a blocked accept() (and refuses new
  // connects) without releasing the descriptor. Only after the accept thread
  // is joined is the fd closed, so accept_loop never reads listen_fd_ while
  // it is written and never calls accept() on a recycled fd number.
  if (listen_fd_ >= 0) ::shutdown(listen_fd_, SHUT_RDWR);
  if (accept_thread_.joinable()) accept_thread_.join();
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }

  // 2. Stop the watchdog before draining: a reap callback racing teardown
  // would touch the journal and scheduler mid-destruction.
  if (watchdog_) watchdog_->stop();

  // 3. Drain the scheduler: every accepted job runs under a cancelled token
  // and queues its reply while the connections are still alive.
  scheduler_.stop();

  // 4. Flush and join the writers (before the readers: every drained job's
  // reply is queued by now, and the writers must send them before the fd
  // shutdown below can race the last frames onto a closing socket).
  {
    std::lock_guard<std::mutex> lock(conns_mu_);
    for (auto& weak : conns_)
      if (auto conn = weak.lock()) {
        {
          std::lock_guard<std::mutex> ql(conn->q_mu);
          conn->stop = true;
        }
        conn->q_cv.notify_all();
      }
  }
  for (std::thread& t : writers_)
    if (t.joinable()) t.join();
  writers_.clear();

  // 5. Unblock readers (shutdown, not close — ConnState owns the fd) and
  // join them.
  {
    std::lock_guard<std::mutex> lock(conns_mu_);
    for (auto& weak : conns_)
      if (auto conn = weak.lock()) ::shutdown(conn->fd, SHUT_RDWR);
  }
  for (std::thread& t : readers_)
    if (t.joinable()) t.join();
  readers_.clear();
  conns_.clear();

  // 6. Stop the metrics exporter and leave final observability artifacts:
  // the pending tail-sample window, one last metrics snapshot, and the
  // armed QAPPROX_TRACE / QAPPROX_METRICS exports — a SIGTERM'd daemon must
  // not rely on atexit ordering to preserve its soak evidence.
  {
    std::lock_guard<std::mutex> lock(exporter_mu_);
    exporter_stop_ = true;
  }
  exporter_cv_.notify_all();
  if (exporter_thread_.joinable()) exporter_thread_.join();
  tail_.flush();
  if (options_.metrics_period_ms > 0.0) write_metric_snapshots();
  obs::flush_exports();

  // 7. Compact the journal: appends are quiesced, so a clean drain leaves a
  // DONE-only log (the CI chaos gate walks the frames and asserts exactly
  // that).
  if (journal_) {
    try {
      journal_->compact();
    } catch (const common::Error& e) {
      QC_LOG_WARN("serve", "journal compaction failed: %s", e.what());
    }
  }

  // 8. Snapshot the synthesis cache for the next warm start.
  if (!options_.synth_cache_dir.empty()) {
    try {
      const std::size_t n = synth::synth_cache_save(options_.synth_cache_dir);
      QC_LOG_INFO("serve", "saved %zu synthesis-cache entries to %s", n,
                  options_.synth_cache_dir.c_str());
    } catch (const common::Error& e) {
      QC_LOG_WARN("serve", "synthesis-cache snapshot failed: %s", e.what());
    }
  }
  ::unlink(options_.socket_path.c_str());
}

json::Value QapproxServer::build_stats() const {
  json::Value stats = json::Value::object();
  const double uptime_ms =
      std::chrono::duration<double, std::milli>(
          std::chrono::steady_clock::now() - started_at_)
          .count();
  stats.set("uptime_ms", uptime_ms);
  stats.set("build", obs::build_info_summary());
  stats.set("socket", options_.socket_path);

  json::Value requests = json::Value::object();
  requests.set("connections", counters_.connections.load());
  requests.set("total", counters_.requests.load());
  requests.set("ping", counters_.ping.load());
  requests.set("simulate", counters_.simulate.load());
  requests.set("synthesize", counters_.synthesize.load());
  requests.set("stats", counters_.stats.load());
  requests.set("metrics", counters_.metrics.load());
  requests.set("shutdown", counters_.shutdown.load());
  requests.set("bad_requests", counters_.bad_requests.load());
  requests.set("oversized_frames", counters_.oversized_frames.load());
  requests.set("overloaded", counters_.overloaded.load());
  requests.set("replies", counters_.replies.load());
  requests.set("write_failures", counters_.write_failures.load());
  requests.set("job_errors", counters_.job_errors.load());
  stats.set("requests", std::move(requests));

  const SchedulerStats sched = scheduler_.stats();
  json::Value scheduler = json::Value::object();
  scheduler.set("workers", options_.scheduler.workers);
  scheduler.set("queue_cap", options_.scheduler.queue_cap);
  scheduler.set("per_tenant_cap", options_.scheduler.per_tenant_cap);
  scheduler.set("queued", sched.queued);
  scheduler.set("running", sched.running);
  scheduler.set("tenants", sched.tenants);
  scheduler.set("submitted", sched.submitted);
  scheduler.set("rejected", sched.rejected);
  scheduler.set("completed", sched.completed);
  scheduler.set("peak_queued", sched.peak_queued);
  scheduler.set("live_workers", sched.live_workers);
  scheduler.set("surplus_spawned", sched.surplus_spawned);
  stats.set("scheduler", std::move(scheduler));

  const DurabilityStats dur = durability_stats();
  json::Value durability = json::Value::object();
  durability.set("replayed", dur.replayed);
  durability.set("attached", dur.attached);
  durability.set("recovered_jobs", dur.recovered_jobs);
  durability.set("reaped", dur.reaped);
  durability.set("duplicate_exec", dur.duplicate_exec);  // chaos gate: == 0
  durability.set("slow_disconnects", dur.slow_disconnects);
  stats.set("durability", std::move(durability));

  const JournalStats js = journal_stats();
  json::Value journal = json::Value::object();
  journal.set("enabled", js.enabled);
  journal.set("path", js.path);
  journal.set("accepted", js.accepted);
  journal.set("started", js.started);
  journal.set("done", js.done);
  journal.set("appended_bytes", js.appended_bytes);
  journal.set("sync_calls", js.sync_calls);
  journal.set("recovered_replies", js.recovered_replies);
  journal.set("recovered_incomplete", js.recovered_incomplete);
  journal.set("torn_bytes", js.torn_bytes);
  journal.set("compactions", js.compactions);
  journal.set("recovery_ms", js.recovery_ms);
  stats.set("journal", std::move(journal));

  json::Value replay = json::Value::object();
  replay.set("entries", replay_.size());
  replay.set("cap", replay_.cap());
  replay.set("hits", replay_.hits());
  replay.set("misses", replay_.misses());
  replay.set("evictions", replay_.evictions());
  stats.set("replay_cache", std::move(replay));

  const WatchdogStats ws = watchdog_stats();
  json::Value watchdog = json::Value::object();
  watchdog.set("enabled", ws.enabled);
  watchdog.set("scans", ws.scans);
  watchdog.set("strikes", ws.strikes);
  watchdog.set("reaped", ws.reaped);
  watchdog.set("watched", ws.watched);
  stats.set("watchdog", std::move(watchdog));

  const exec::CacheSnapshot engine = driver::engine().cache_stats_snapshot();
  json::Value engine_cache = json::Value::object();
  auto cache_entry = [](std::size_t hits, std::size_t misses,
                        std::size_t entries) {
    json::Value v = json::Value::object();
    v.set("hits", hits);
    v.set("misses", misses);
    v.set("entries", entries);
    return v;
  };
  engine_cache.set("transpile",
                   cache_entry(engine.stats.transpile_hits,
                               engine.stats.transpile_misses,
                               engine.transpile_entries));
  engine_cache.set("model", cache_entry(engine.stats.model_hits,
                                        engine.stats.model_misses,
                                        engine.model_entries));
  engine_cache.set("compiled", cache_entry(engine.stats.compiled_hits,
                                           engine.stats.compiled_misses,
                                           engine.compiled_entries));
  engine_cache.set("matrix", cache_entry(engine.stats.matrix_hits,
                                         engine.stats.matrix_misses,
                                         engine.matrix_entries));
  stats.set("engine_cache", std::move(engine_cache));

  const synth::SynthCacheStats synth_stats = synth::synth_cache_stats();
  json::Value synth_cache = json::Value::object();
  synth_cache.set("hits", synth_stats.hits);
  synth_cache.set("misses", synth_stats.misses);
  synth_cache.set("entries", synth_stats.entries);
  synth_cache.set("dir", options_.synth_cache_dir);
  synth_cache.set("warm_loaded", warm_loaded_);
  stats.set("synth_cache", std::move(synth_cache));

  // Partitioned-resynthesis traffic across every partition-preset job this
  // process has served (the same synth.partition.* counters QAPPROX_METRICS
  // exports): how well intra-call dedupe + the synthesis cache collapse
  // recurring blocks, and whether any per-block searches failed.
  json::Value partition = json::Value::object();
  partition.set("calls", obs::counter("synth.partition.calls").value());
  partition.set("blocks_total",
                obs::counter("synth.partition.blocks_total").value());
  partition.set("blocks_resynthesized",
                obs::counter("synth.partition.blocks_resynthesized").value());
  partition.set("unique_blocks",
                obs::counter("synth.partition.unique_blocks").value());
  partition.set("dedupe_hits",
                obs::counter("synth.partition.dedupe_hits").value());
  partition.set("cache_hits",
                obs::counter("synth.partition.cache_hits").value());
  partition.set("cache_misses",
                obs::counter("synth.partition.cache_misses").value());
  partition.set("block_failures",
                obs::counter("synth.partition.block_failures").value());
  stats.set("partition", std::move(partition));

  // Gate-fusion effectiveness across every compile this process has run
  // (the same sim.compile.* counters QAPPROX_METRICS exports), so operators
  // can see how much the k<=4 fusion pass is collapsing job circuits.
  json::Value compile = json::Value::object();
  compile.set("circuits", obs::counter("sim.compile.circuits").value());
  compile.set("source_gates", obs::counter("sim.compile.source_gates").value());
  compile.set("fused_gates", obs::counter("sim.compile.fused_gates").value());
  compile.set("steps", obs::counter("sim.compile.steps").value());
  json::Value fused_blocks = json::Value::object();
  fused_blocks.set("k1", obs::counter("sim.compile.fused_blocks.k1").value());
  fused_blocks.set("k2", obs::counter("sim.compile.fused_blocks.k2").value());
  fused_blocks.set("k3", obs::counter("sim.compile.fused_blocks.k3").value());
  fused_blocks.set("k4", obs::counter("sim.compile.fused_blocks.k4").value());
  compile.set("fused_blocks", std::move(fused_blocks));
  compile.set("simd_isa",
              linalg::simd_isa_name(linalg::active_simd_isa()));
  stats.set("compile", std::move(compile));

  const TailSamplerStats tail = tail_.stats();
  json::Value tail_json = json::Value::object();
  tail_json.set("dir", options_.trace_dir);
  tail_json.set("observed", tail.observed);
  tail_json.set("captured", tail.captured);
  tail_json.set("evicted", tail.evicted);
  tail_json.set("write_failures", tail.write_failures);
  stats.set("tail_sampler", std::move(tail_json));

  stats.set("faults", common::faults::enabled() ? common::faults::active_spec()
                                                : std::string());

  // The whole PR3 metrics registry rides along, parsed back into the tree
  // (obs emits valid JSON; if that ever regresses, ship it as a string).
  json::Value metrics;
  std::string parse_error;
  if (json::try_parse(obs::metrics_json(), &metrics, &parse_error)) {
    stats.set("metrics", std::move(metrics));
  } else {
    stats.set("metrics", obs::metrics_json());
  }
  return stats;
}

QapproxServer::DurabilityStats QapproxServer::durability_stats() const {
  DurabilityStats d;
  d.replayed = counters_.replayed.load();
  d.attached = counters_.attached.load();
  d.recovered_jobs = counters_.recovered_jobs.load();
  d.reaped = counters_.reaped.load();
  d.duplicate_exec = counters_.duplicate_exec.load();
  d.slow_disconnects = counters_.slow_disconnects.load();
  return d;
}

WatchdogStats QapproxServer::watchdog_stats() const {
  return watchdog_ ? watchdog_->stats() : WatchdogStats{};
}

JournalStats QapproxServer::journal_stats() const {
  return journal_ ? journal_->stats() : JournalStats{};
}

json::Value QapproxServer::build_metrics(const std::string& format) const {
  json::Value result = json::Value::object();
  const double uptime_ms =
      std::chrono::duration<double, std::milli>(
          std::chrono::steady_clock::now() - started_at_)
          .count();
  result.set("uptime_ms", uptime_ms);
  if (format == "prometheus") {
    result.set("content_type", "text/plain; version=0.0.4");
    result.set("body", obs::metrics_prometheus());
    return result;
  }
  // Live scheduler depths ride along so one poll paints the whole dashboard.
  const SchedulerStats sched = scheduler_.stats();
  json::Value queue = json::Value::object();
  queue.set("queued", sched.queued);
  queue.set("running", sched.running);
  queue.set("tenants", sched.tenants);
  result.set("queue", std::move(queue));
  json::Value metrics;
  std::string parse_error;
  if (json::try_parse(obs::metrics_json(), &metrics, &parse_error))
    result.set("metrics", std::move(metrics));
  else
    result.set("metrics", obs::metrics_json());
  return result;
}

}  // namespace qc::serve
