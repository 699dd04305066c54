// Serving workload: an open-loop sender that talks to qapprox_serve over the
// wire through serve::Client, and the in-process replay that checks a sample
// of its replies against serve::run_simulate_job / run_synthesize_job.
//
// Open loop: one sender thread sends every request at its scheduled time,
// whatever the server's progress, round-robin over `connections` sockets;
// one receiver thread per connection records each reply as it lands. Each
// request is timed from its scheduled send time, so a stall shows up in the
// latency of every request it delays, and the sender's own lateness
// (sent - due) is reported so a run whose generator fell behind can be
// discarded. The schedule is split into segments (one offered rate each):
// a segment starts once every reply of the previous one is in, so the
// backlog an overloaded segment builds is not carried into the next.
#include <sys/socket.h>

#include <atomic>
#include <condition_variable>
#include <fstream>
#include <mutex>
#include <thread>

#include "common/deadline.hpp"
#include "harness.hpp"
#include "serve/client.hpp"
#include "serve/jobs.hpp"

namespace e2e {
namespace {

using qc::common::json::parse;

std::vector<Value> read_lines(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot read " + path);
  std::vector<Value> lines;
  std::string line;
  while (std::getline(in, line))
    if (!line.empty()) lines.push_back(parse(line));
  return lines;
}

struct Outcome {
  std::int64_t due_ns = 0;
  std::int64_t sent_ns = 0;
  std::int64_t recv_ns = 0;
  Value reply;
};

Value inline_request(const char* type) {
  Value req = Value::object();
  req.set("id", type);
  req.set("type", type);
  return req;
}

}  // namespace

int run_serve_load(const std::string& socket_path, const std::string& schedule_path,
                   int connections, bool shutdown, Value& out) {
  const std::vector<Value> schedule =
      schedule_path.empty() ? std::vector<Value>{} : read_lines(schedule_path);
  const std::size_t n = schedule.size();
  const std::size_t k = static_cast<std::size_t>(std::max(1, connections));

  // The server is ready when it answers a ping; the set-up time the benchmark
  // reports ends here (it includes the server's journal recovery).
  std::vector<qc::serve::Client> clients;
  clients.push_back(qc::serve::Client::connect_with_retry(socket_path, 20000.0));
  const Value pong = clients[0].call(inline_request("ping"));
  out.set("ready_ns", now_ns());
  if (pong.get_string("status", "") != "ok")
    throw std::runtime_error("ping answered " + pong.dump());
  for (std::size_t c = 1; c < k; ++c)
    clients.push_back(qc::serve::Client::connect(socket_path));

  // Requests on connection c are i = c, c + k, c + 2k, ...; ids are schedule
  // indices, so a receiver files each reply under its request.
  std::vector<Outcome> outcomes(n);
  std::atomic<std::size_t> received{0};
  std::mutex done_mu;
  std::condition_variable done_cv;
  std::vector<std::thread> receivers;
  for (std::size_t c = 0; c < k; ++c) {
    const std::size_t expected = n / k + (c < n % k ? 1 : 0);
    receivers.emplace_back([&, c, expected] {
      for (std::size_t got = 0; got < expected; ++got) {
        std::optional<Value> reply;
        try {
          reply = clients[c].recv();
        } catch (const std::exception&) {
        }
        if (!reply) break;  // EOF or shut down by the watchdog below
        const std::int64_t t = now_ns();
        const Value* id = reply->find("id");
        if (id != nullptr && id->is_number() && id->as_uint64() < n) {
          Outcome& o = outcomes[id->as_uint64()];
          o.recv_ns = t;
          o.reply = std::move(*reply);
        }
        {
          std::lock_guard<std::mutex> lock(done_mu);
          received.fetch_add(1);
        }
        done_cv.notify_all();
      }
      std::lock_guard<std::mutex> lock(done_mu);
      done_cv.notify_all();
    });
  }

  // Waits until `count` replies are in, or gives up 60 s after `from_ns`.
  auto wait_for = [&](std::size_t count, std::int64_t from_ns) {
    std::unique_lock<std::mutex> lock(done_mu);
    const auto give_up = std::chrono::steady_clock::time_point(
        std::chrono::nanoseconds(from_ns + 60'000'000'000LL));
    return done_cv.wait_until(lock, give_up, [&] { return received.load() >= count; });
  };

  // Every segment starts after a 50 ms lead-in; dues are relative to it.
  std::int64_t t0 = now_ns() + 50'000'000;
  std::int64_t last_due = t0;
  std::int64_t segment = n ? schedule[0].get_int("segment", 0) : 0;
  bool send_failed = false;
  for (std::size_t i = 0; i < n && !send_failed; ++i) {
    const std::int64_t seg = schedule[i].get_int("segment", 0);
    if (seg != segment) {
      segment = seg;
      if (!wait_for(i, last_due)) {
        send_failed = true;  // the unsent rest count as missing replies
        break;
      }
      t0 = now_ns() + 50'000'000;
    }
    const std::int64_t due =
        t0 + static_cast<std::int64_t>(schedule[i].get_number("due", 0.0) * 1e9);
    last_due = due;
    std::this_thread::sleep_until(std::chrono::steady_clock::time_point(
        std::chrono::nanoseconds(due)));
    Value req = *schedule[i].find("req");
    req.set("id", static_cast<std::uint64_t>(i));
    outcomes[i].due_ns = due;
    outcomes[i].sent_ns = now_ns();
    try {
      clients[i % k].send(req);
    } catch (const std::exception&) {
      send_failed = true;  // the unsent rest count as missing replies
    }
  }

  // Drain: every reply, or give up 60 s after the last scheduled send and
  // unblock the receivers; the missing replies count as failures.
  if (!send_failed) wait_for(n, last_due);
  const bool drained = received.load() >= n;
  if (!drained)
    for (auto& c : clients) ::shutdown(c.fd(), SHUT_RDWR);
  for (auto& r : receivers) r.join();
  if (drained) {
    out.set("stats", clients[0].call(inline_request("stats")));
    if (shutdown) clients[0].call(inline_request("shutdown"));
  }

  Value reqs = Value::array();
  for (std::size_t i = 0; i < n; ++i) {
    Value o = Value::object();
    o.set("due_ns", outcomes[i].due_ns);
    o.set("sent_ns", outcomes[i].sent_ns);
    o.set("recv_ns", outcomes[i].recv_ns);
    o.set("reply", std::move(outcomes[i].reply));
    reqs.push_back(std::move(o));
  }
  out.set("requests", std::move(reqs));
  return 0;
}

int run_serve_check(const std::string& jobs_path, SpanLog& log, Value& out) {
  Value results = Value::array();
  const std::vector<Value> jobs = read_lines(jobs_path);
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    const std::string type = jobs[i].get_string("type", "");
    const Value* params = jobs[i].find("params");
    if (params == nullptr) throw std::runtime_error("serve-check job without params");
    Scope span(log, "serve-check." + type, std::to_string(i));
    const qc::serve::JobOutcome o =
        type == "simulate"
            ? qc::serve::run_simulate_job(*params, qc::common::Deadline::never())
            : qc::serve::run_synthesize_job(*params, qc::common::Deadline::never());
    Value r = Value::object();
    r.set("result", o.result);
    r.set("degraded", o.degraded);
    results.push_back(std::move(r));
  }
  out.set("results", std::move(results));
  return 0;
}

}  // namespace e2e
