// qapprox server tests: wire framing edge cases, request parsing, fair
// scheduling and admission control, synthesis-cache persistence,
// socket-level integration (garbage input, oversized frames, overload
// backpressure, clean shutdown with in-flight jobs, warm restarts), and the
// crash-durability machinery — idempotent replay, in-flight retry attach,
// watchdog reaping, journal recovery across restart, write-budget
// disconnects, and client reconnect backoff.
#include <gtest/gtest.h>

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include <atomic>
#include <bit>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <future>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/deadline.hpp"
#include "common/error.hpp"
#include "common/json.hpp"
#include "serve/client.hpp"
#include "serve/jobs.hpp"
#include "serve/protocol.hpp"
#include "serve/scheduler.hpp"
#include "serve/server.hpp"
#include "serve/wire.hpp"
#include "synth/cache.hpp"
#include "synth/persist.hpp"

namespace qc::serve {
namespace {

namespace json = common::json;
using json::Value;

// gtest_discover_tests runs each case as its own process, so pid-unique
// socket paths keep parallel ctest invocations from colliding (sun_path is
// ~108 bytes; stay in /tmp, not the build tree).
std::string test_socket(const char* tag) {
  return "/tmp/qx_" + std::string(tag) + "_" + std::to_string(::getpid()) +
         ".sock";
}

std::string make_temp_dir() {
  std::string tmpl = "/tmp/qapprox_test_XXXXXX";
  const char* dir = ::mkdtemp(tmpl.data());
  EXPECT_NE(dir, nullptr);
  return tmpl;
}

// ---- wire framing -----------------------------------------------------------

TEST(FrameDecoder, EncodeDecodeRoundTrip) {
  FrameDecoder dec;
  const std::string frame = encode_frame("{\"a\":1}");
  EXPECT_EQ(frame.size(), 4u + 7u);
  dec.feed(frame.data(), frame.size());
  auto got = dec.next();
  ASSERT_TRUE(got.has_value());
  EXPECT_FALSE(got->oversized);
  EXPECT_EQ(got->payload, "{\"a\":1}");
  EXPECT_FALSE(dec.next().has_value());
  EXPECT_EQ(dec.buffered_bytes(), 0u);
}

TEST(FrameDecoder, ByteByByteFeedIncludingSplitPrefix) {
  FrameDecoder dec;
  const std::string frame = encode_frame("hello wire");
  for (std::size_t i = 0; i + 1 < frame.size(); ++i) {
    dec.feed(frame.data() + i, 1);
    EXPECT_FALSE(dec.next().has_value()) << "frame completed early at byte " << i;
  }
  dec.feed(frame.data() + frame.size() - 1, 1);
  auto got = dec.next();
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->payload, "hello wire");
}

TEST(FrameDecoder, MultipleFramesInOneFeed) {
  FrameDecoder dec;
  const std::string bytes =
      encode_frame("one") + encode_frame("") + encode_frame("three");
  dec.feed(bytes.data(), bytes.size());
  ASSERT_TRUE(dec.next().has_value());
  auto second = dec.next();
  ASSERT_TRUE(second.has_value());
  EXPECT_EQ(second->payload, "");
  auto third = dec.next();
  ASSERT_TRUE(third.has_value());
  EXPECT_EQ(third->payload, "three");
  EXPECT_FALSE(dec.next().has_value());
}

TEST(FrameDecoder, OversizedFrameIsSkippedExactlyAndStreamResyncs) {
  FrameDecoder dec(/*max_frame_bytes=*/8);
  const std::string big(100, 'x');
  const std::string bytes = encode_frame(big) + encode_frame("ok");
  // Feed in awkward chunks so the skip path crosses feed() boundaries.
  for (std::size_t off = 0; off < bytes.size(); off += 7)
    dec.feed(bytes.data() + off, std::min<std::size_t>(7, bytes.size() - off));
  auto first = dec.next();
  ASSERT_TRUE(first.has_value());
  EXPECT_TRUE(first->oversized);
  EXPECT_EQ(first->declared_size, 100u);
  EXPECT_TRUE(first->payload.empty());
  auto second = dec.next();
  ASSERT_TRUE(second.has_value());
  EXPECT_FALSE(second->oversized);
  EXPECT_EQ(second->payload, "ok");
  EXPECT_FALSE(dec.poisoned());
}

TEST(FrameDecoder, InsaneDeclaredLengthPoisonsTheStream) {
  FrameDecoder dec;
  const char bogus[4] = {'\xff', '\xff', '\xff', '\xff'};  // ~4 GiB "frame"
  dec.feed(bogus, 4);
  EXPECT_FALSE(dec.next().has_value());
  EXPECT_TRUE(dec.poisoned());
}

// ---- request parsing --------------------------------------------------------

TEST(Protocol, ParsesFullRequestEnvelope) {
  std::string error;
  Value id;
  auto env = parse_request(
      R"({"id":"r-1","type":"simulate","tenant":"team-a","deadline_ms":250,)"
      R"("params":{"workload":"tfim"}})",
      &error, &id);
  ASSERT_TRUE(env.has_value()) << error;
  EXPECT_EQ(env->id.as_string(), "r-1");
  EXPECT_EQ(env->type, RequestType::Simulate);
  EXPECT_EQ(env->tenant, "team-a");
  EXPECT_DOUBLE_EQ(env->deadline_ms, 250.0);
  EXPECT_EQ(env->params.get_string("workload", ""), "tfim");
}

TEST(Protocol, DefaultsTenantAndDeadline) {
  std::string error;
  auto env = parse_request(R"({"id":7,"type":"ping"})", &error, nullptr);
  ASSERT_TRUE(env.has_value()) << error;
  EXPECT_EQ(env->tenant, "anon");
  EXPECT_DOUBLE_EQ(env->deadline_ms, 0.0);
  EXPECT_TRUE(env->params.is_null());
}

TEST(Protocol, RejectsMalformedRequestsButSalvagesTheId) {
  std::string error;
  Value id;
  EXPECT_FALSE(parse_request("not json at all", &error, &id).has_value());
  EXPECT_FALSE(error.empty());

  EXPECT_FALSE(parse_request(R"([1,2,3])", &error, &id).has_value());
  EXPECT_FALSE(parse_request(R"({"type":"no-such-type"})", &error, &id)
                   .has_value());
  EXPECT_NE(error.find("no-such-type"), std::string::npos);

  // An invalid request that still carried an id: the id must survive so the
  // error reply can correlate.
  EXPECT_FALSE(
      parse_request(R"({"id":42,"type":"simulate","tenant":7})", &error, &id)
          .has_value());
  EXPECT_TRUE(id.is_number());
  EXPECT_EQ(id.as_int(), 42);
}

TEST(Protocol, ReplyBuildersShapeTheEnvelope) {
  Value id;
  id = Value(std::uint64_t{9});
  const Value ok = make_ok_reply(id, Value::object());
  EXPECT_EQ(ok.get_string("status", ""), "ok");
  const Value degraded = make_degraded_reply(id, Value::object(), "partial");
  EXPECT_EQ(degraded.get_string("status", ""), "degraded");
  EXPECT_EQ(degraded.get_string("degraded", ""), "partial");
  const Value err = make_error_reply(id, "overloaded", "queue full");
  EXPECT_EQ(err.get_string("status", ""), "error");
  const Value* detail = err.find("error");
  ASSERT_NE(detail, nullptr);
  EXPECT_EQ(detail->get_string("kind", ""), "overloaded");
  EXPECT_EQ(detail->get_string("message", ""), "queue full");
}

// ---- scheduler --------------------------------------------------------------

TEST(Scheduler, RoundRobinInterleavesTenants) {
  SchedulerOptions opts;
  opts.workers = 1;  // serialize so completion order == scheduling order
  JobScheduler sched(opts);

  std::promise<void> gate;
  std::shared_future<void> open = gate.get_future().share();
  ASSERT_TRUE(sched.submit("warmup", [open](const common::CancelToken&) {
    open.wait();  // hold the only worker so submissions below queue up
  }));

  std::mutex mu;
  std::vector<std::string> order;
  auto record = [&](const std::string& tenant) {
    return [&mu, &order, tenant](const common::CancelToken&) {
      std::lock_guard<std::mutex> lock(mu);
      order.push_back(tenant);
    };
  };
  // Tenant "a" floods four jobs before "b" submits one.
  for (int i = 0; i < 4; ++i) ASSERT_TRUE(sched.submit("a", record("a")));
  ASSERT_TRUE(sched.submit("b", record("b")));

  gate.set_value();
  sched.wait_idle();
  // Fair draining alternates while both tenants have work: a b a a a, never
  // the submission order a a a a b.
  ASSERT_EQ(order.size(), 5u);
  EXPECT_EQ(order[0], "a");
  EXPECT_EQ(order[1], "b");
  EXPECT_EQ(order[2], "a");

  const SchedulerStats stats = sched.stats();
  EXPECT_EQ(stats.submitted, 6u);
  EXPECT_EQ(stats.completed, 6u);
  EXPECT_EQ(stats.rejected, 0u);
  EXPECT_GE(stats.peak_queued, 5u);
}

TEST(Scheduler, CapsRejectWithReasons) {
  SchedulerOptions opts;
  opts.workers = 1;
  opts.queue_cap = 2;
  opts.per_tenant_cap = 1;
  JobScheduler sched(opts);

  std::promise<void> gate;
  std::shared_future<void> open = gate.get_future().share();
  ASSERT_TRUE(sched.submit("warmup", [open](const common::CancelToken&) {
    open.wait();
  }));
  // Give the worker a moment to take the warmup job off the queue.
  while (sched.stats().running == 0)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));

  auto noop = [](const common::CancelToken&) {};
  std::string reason;
  ASSERT_TRUE(sched.submit("a", noop));
  EXPECT_FALSE(sched.submit("a", noop, &reason));  // per-tenant cap
  EXPECT_NE(reason.find("tenant"), std::string::npos) << reason;

  ASSERT_TRUE(sched.submit("b", noop));  // fills the total cap (2 queued)
  reason.clear();
  EXPECT_FALSE(sched.submit("c", noop, &reason));  // total queue cap
  EXPECT_FALSE(reason.empty());

  EXPECT_EQ(sched.stats().rejected, 2u);
  gate.set_value();
  sched.wait_idle();
  sched.stop();
}

TEST(Scheduler, StopDrainsEveryAcceptedJobExactlyOnce) {
  SchedulerOptions opts;
  opts.workers = 3;
  JobScheduler sched(opts);

  std::atomic<int> runs{0};
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(sched.submit("t" + std::to_string(i % 4),
                             [&runs](const common::CancelToken&) {
                               runs.fetch_add(1);
                               std::this_thread::sleep_for(
                                   std::chrono::microseconds(200));
                             }));
  }
  sched.stop();  // drain semantics: queued jobs still run, exactly once
  EXPECT_EQ(runs.load(), 50);

  const SchedulerStats stats = sched.stats();
  EXPECT_EQ(stats.completed, 50u);
  EXPECT_EQ(stats.queued, 0u);
  EXPECT_EQ(stats.running, 0u);

  std::string reason;
  EXPECT_FALSE(sched.submit("late", [](const common::CancelToken&) {}, &reason));
  EXPECT_NE(reason.find("shut"), std::string::npos) << reason;
}

TEST(Scheduler, StopCancelsTheSharedToken) {
  SchedulerOptions opts;
  opts.workers = 1;
  JobScheduler sched(opts);

  std::promise<void> gate;
  std::shared_future<void> open = gate.get_future().share();
  ASSERT_TRUE(sched.submit("blocker", [open](const common::CancelToken&) {
    open.wait();
  }));
  std::atomic<bool> saw_cancel{false};
  ASSERT_TRUE(sched.submit("probe",
                           [&saw_cancel](const common::CancelToken& token) {
                             saw_cancel.store(token.cancelled());
                           }));

  std::thread stopper([&sched] { sched.stop(); });
  // stop() cancels the token first, then waits for the drain; release the
  // blocker so the queued probe can observe the cancelled token.
  while (!sched.cancel_token().cancelled())
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  gate.set_value();
  stopper.join();
  EXPECT_TRUE(saw_cancel.load());
}

// ---- synthesis-cache persistence -------------------------------------------

synth::QSearchCacheKey sample_qsearch_key() {
  synth::QSearchCacheKey key;
  key.target_fp = 0xDEADBEEFCAFEF00Dull;
  key.dim = 4;
  key.num_qubits = 2;
  key.edges = {{0, 1}};
  key.success_threshold_bits = 0x3FB999999999999Aull;  // bits of 0.1
  key.depth_weight_bits = 1;
  key.opt_tolerance_bits = 2;
  key.max_cnots = 5;
  key.max_nodes = 40;
  key.opt_max_iterations = 100;
  key.opt_lbfgs_memory = 6;
  key.restarts_per_node = 2;
  key.seed = 0xFFFFFFFFFFFFFFF7ull;  // beyond 2^53: must survive as hex
  key.gradient_mode = 1;
  return key;
}

synth::CachedQSearch sample_qsearch_entry() {
  ir::QuantumCircuit circuit(2, "approx");
  circuit.u3(0.1234567890123456789, -2.718281828459045, 3.141592653589793, 0);
  circuit.cx(0, 1);
  circuit.rz(1e-300, 1);

  synth::CachedQSearch entry;
  entry.result.best.circuit = circuit;
  entry.result.best.hs_distance = 0.123456789012345678;
  entry.result.best.cnot_count = 1;
  entry.result.best.source = "qsearch";
  entry.result.converged = true;
  entry.result.nodes_expanded = 17;
  entry.result.nodes_optimized = 9;
  entry.stream.push_back(entry.result.best);
  return entry;
}

TEST(SynthPersist, SerializeDeserializeRoundTripsBitExactly) {
  synth::clear_synth_cache();
  const synth::QSearchCacheKey key = sample_qsearch_key();
  const synth::CachedQSearch entry = sample_qsearch_entry();
  synth::synth_cache_store(key, entry);

  synth::QFactorCacheKey fkey;
  fkey.target_fp = 1;
  fkey.structure_fp = 2;
  fkey.dim = 4;
  fkey.num_qubits = 2;
  fkey.max_sweeps = 12;
  fkey.incremental = true;
  synth::QFactorResult fres;
  fres.circuit = entry.result.best.circuit;
  fres.hs_distance = 0.25;
  fres.sweeps = 7;
  fres.converged = false;
  synth::synth_cache_store(fkey, fres);

  synth::ReducerCacheKey rkey;
  rkey.reference_fp = 0xFEDCBA9876543210ull;
  rkey.num_qubits = 2;
  rkey.num_gates = 5;
  rkey.keep_fraction_bits = {std::bit_cast<std::uint64_t>(0.0),
                             std::bit_cast<std::uint64_t>(0.35),
                             std::bit_cast<std::uint64_t>(1.0)};
  rkey.variants_per_size = 3;
  rkey.full_reopt_max_cx = 7;
  rkey.full_reopt_max_qubits = 3;
  rkey.opt_max_iterations = 60;
  rkey.opt_tolerance_bits = std::bit_cast<std::uint64_t>(1e-12);
  rkey.opt_lbfgs_memory = 8;
  rkey.seed = 0xFFFFFFFFFFFFFFF1ull;
  rkey.gradient_mode = 1;
  std::vector<synth::ApproxCircuit> rstream(2, entry.result.best);
  rstream[0].source = rstream[1].source = "reducer";
  rstream[1].hs_distance = 0.987654321098765432;
  synth::synth_cache_store(rkey, rstream);

  const std::string snapshot = synth::synth_cache_serialize();
  synth::clear_synth_cache();
  EXPECT_FALSE(synth::synth_cache_lookup(key).has_value());

  EXPECT_EQ(synth::synth_cache_deserialize(snapshot), 3u);
  const auto loaded = synth::synth_cache_lookup(key);
  ASSERT_TRUE(loaded.has_value());
  // %.17g parameters + hex bit patterns: the reload is bit-identical, so the
  // content fingerprint (which hashes parameter bits) must match.
  EXPECT_EQ(loaded->result.best.circuit.fingerprint(),
            entry.result.best.circuit.fingerprint());
  EXPECT_EQ(loaded->result.best.hs_distance, entry.result.best.hs_distance);
  EXPECT_EQ(loaded->result.best.cnot_count, 1u);
  EXPECT_EQ(loaded->result.best.source, "qsearch");
  EXPECT_TRUE(loaded->result.converged);
  EXPECT_EQ(loaded->result.nodes_expanded, 17);
  ASSERT_EQ(loaded->stream.size(), 1u);

  const auto floaded = synth::synth_cache_lookup(fkey);
  ASSERT_TRUE(floaded.has_value());
  EXPECT_EQ(floaded->sweeps, 7);
  EXPECT_FALSE(floaded->converged);

  const auto rloaded = synth::synth_cache_lookup(rkey);
  ASSERT_TRUE(rloaded.has_value());
  ASSERT_EQ(rloaded->size(), rstream.size());
  for (std::size_t i = 0; i < rstream.size(); ++i) {
    EXPECT_EQ((*rloaded)[i].circuit.fingerprint(), rstream[i].circuit.fingerprint());
    EXPECT_EQ((*rloaded)[i].hs_distance, rstream[i].hs_distance);
    EXPECT_EQ((*rloaded)[i].cnot_count, rstream[i].cnot_count);
    EXPECT_EQ((*rloaded)[i].source, "reducer");
  }

  // Snapshots written before the reducer was cached carry no "reducer"
  // array; they still load, with no reducer rows.
  json::Value legacy = json::parse(snapshot);
  json::Value trimmed = json::Value::object();
  for (const char* kind : {"version", "qsearch", "qfast", "qfactor"})
    trimmed.set(kind, *legacy.find(kind));
  synth::clear_synth_cache();
  EXPECT_EQ(synth::synth_cache_deserialize(trimmed.dump()), 2u);
  EXPECT_FALSE(synth::synth_cache_lookup(rkey).has_value());
  synth::clear_synth_cache();
}

TEST(SynthPersist, DiskRoundTripAndHostileFilesAreSafe) {
  const std::string dir = make_temp_dir();
  synth::clear_synth_cache();
  synth::synth_cache_store(sample_qsearch_key(), sample_qsearch_entry());
  EXPECT_EQ(synth::synth_cache_save(dir), 1u);

  synth::clear_synth_cache();
  EXPECT_EQ(synth::synth_cache_load(dir), 1u);
  EXPECT_TRUE(synth::synth_cache_lookup(sample_qsearch_key()).has_value());

  // A corrupt snapshot must warn-and-skip, never throw or half-load.
  {
    std::ofstream out(dir + "/" + synth::kSynthCacheSnapshotFile,
                      std::ios::trunc);
    out << "{this is not a snapshot";
  }
  synth::clear_synth_cache();
  EXPECT_EQ(synth::synth_cache_load(dir), 0u);

  // Well-formed JSON with a row missing a required member is corrupt too.
  for (const char* doc : {R"({"version": 1, "qsearch": [{"result": {}}]})",
                          R"({"version": 1, "reducer": [{"stream": []}]})",
                          R"({"version": 1, "reducer": [{"key": {}}]})"}) {
    {
      std::ofstream out(dir + "/" + synth::kSynthCacheSnapshotFile, std::ios::trunc);
      out << doc;
    }
    EXPECT_EQ(synth::synth_cache_load(dir), 0u) << doc;
    EXPECT_EQ(synth::synth_cache_stats().entries, 0u) << doc;
  }

  // Missing snapshot: clean cold start.
  const std::string empty_dir = make_temp_dir();
  EXPECT_EQ(synth::synth_cache_load(empty_dir), 0u);
  synth::clear_synth_cache();
}

// ---- server over a real socket ---------------------------------------------

ServerOptions test_options(const char* tag) {
  ServerOptions opts;
  opts.socket_path = test_socket(tag);
  opts.scheduler.workers = 2;
  opts.synth_cache_dir = "";  // persistence covered by its own test
  return opts;
}

Value ping_request(std::uint64_t id) {
  Value req = Value::object();
  req.set("id", id);
  req.set("type", "ping");
  return req;
}

TEST(Server, PingStatsAndIdEcho) {
  QapproxServer server(test_options("ping"));
  server.start();
  Client client = Client::connect(server.options().socket_path);

  Value req = Value::object();
  req.set("id", "req-abc");
  req.set("type", "ping");
  const Value reply = client.call(req);
  EXPECT_EQ(reply.get_string("status", ""), "ok");
  const Value* id = reply.find("id");
  ASSERT_NE(id, nullptr);
  EXPECT_EQ(id->as_string(), "req-abc");  // echoed verbatim, string id intact
  ASSERT_NE(reply.find("result"), nullptr);
  EXPECT_TRUE(reply.find("result")->get_bool("pong", false));

  Value stats_req = Value::object();
  stats_req.set("id", 2);
  stats_req.set("type", "stats");
  const Value stats = client.call(stats_req);
  EXPECT_EQ(stats.get_string("status", ""), "ok");
  const Value* result = stats.find("result");
  ASSERT_NE(result, nullptr);
  ASSERT_NE(result->find("requests"), nullptr);
  EXPECT_GE(result->find("requests")->get_int("ping", 0), 1);
  ASSERT_NE(result->find("scheduler"), nullptr);
  ASSERT_NE(result->find("engine_cache"), nullptr);
  ASSERT_NE(result->find("synth_cache"), nullptr);
  server.stop();
}

TEST(Server, GarbageAndOversizedFramesGetStructuredErrorsNotDisconnects) {
  ServerOptions opts = test_options("garbage");
  opts.max_frame_bytes = 512;
  QapproxServer server(opts);
  server.start();
  Client client = Client::connect(opts.socket_path);

  // Garbage JSON: a structured bad_request reply, and the connection lives.
  client.send_raw(encode_frame("{\"id\": 1, \"type\": "));
  auto reply = client.recv();
  ASSERT_TRUE(reply.has_value());
  EXPECT_EQ(reply->get_string("status", ""), "error");
  ASSERT_NE(reply->find("error"), nullptr);
  EXPECT_EQ(reply->find("error")->get_string("kind", ""), "bad_request");

  // Oversized frame: skipped exactly, answered, stream resyncs.
  client.send_raw(encode_frame(std::string(4096, 'z')));
  reply = client.recv();
  ASSERT_TRUE(reply.has_value());
  EXPECT_EQ(reply->get_string("status", ""), "error");
  EXPECT_EQ(reply->find("error")->get_string("kind", ""), "bad_request");

  // Split delivery of a valid frame across many writes still parses.
  const std::string frame = encode_frame(ping_request(77).dump());
  for (std::size_t i = 0; i < frame.size(); ++i)
    client.send_raw(frame.substr(i, 1));
  reply = client.recv();
  ASSERT_TRUE(reply.has_value());
  EXPECT_EQ(reply->get_string("status", ""), "ok");
  EXPECT_EQ(reply->find("id")->as_uint64(), 77u);
  server.stop();
}

TEST(Server, SimulateJobRunsEndToEndAndBadParamsAreContractErrors) {
  QapproxServer server(test_options("sim"));
  server.start();
  Client client = Client::connect(server.options().socket_path);

  Value req = Value::object();
  req.set("id", 1);
  req.set("type", "simulate");
  Value params = Value::object();
  params.set("workload", "grover");
  params.set("qubits", 3);
  params.set("iterations", 2);
  params.set("shots", 512);
  params.set("mode", "ideal");
  req.set("params", std::move(params));
  const Value reply = client.call(req);
  ASSERT_EQ(reply.get_string("status", ""), "ok") << reply.dump();
  const Value* result = reply.find("result");
  ASSERT_NE(result, nullptr);
  EXPECT_EQ(result->get_string("workload", ""), "grover");
  EXPECT_EQ(result->get_int("qubits", 0), 3);
  // Two Grover iterations on 3 qubits amplify the marked state well above
  // uniform — the job really simulated, not just echoed.
  EXPECT_GT(result->get_number("success_probability", 0.0), 0.5);
  const Value* outcomes = result->find("top_outcomes");
  ASSERT_NE(outcomes, nullptr);
  EXPECT_GT(outcomes->as_array().size(), 0u);

  Value bad = Value::object();
  bad.set("id", 2);
  bad.set("type", "simulate");
  Value bad_params = Value::object();
  bad_params.set("workload", "no-such-workload");
  bad.set("params", std::move(bad_params));
  const Value error_reply = client.call(bad);
  EXPECT_EQ(error_reply.get_string("status", ""), "error");
  EXPECT_EQ(error_reply.find("error")->get_string("kind", ""), "contract");
  server.stop();
}

TEST(Server, OverloadRejectsWithBackpressureAndStillRepliesToEveryRequest) {
  ServerOptions opts = test_options("overload");
  opts.scheduler.workers = 1;
  opts.scheduler.queue_cap = 2;
  opts.scheduler.per_tenant_cap = 2;
  QapproxServer server(opts);
  server.start();
  Client client = Client::connect(opts.socket_path);

  // One slow job to pin the worker, then a burst that must overflow the
  // 2-deep queue. Every request still gets exactly one correlated reply.
  const int burst = 12;
  for (int i = 0; i < burst; ++i) {
    Value req = Value::object();
    req.set("id", i);
    req.set("type", "simulate");
    Value params = Value::object();
    params.set("workload", "tfim");
    params.set("qubits", 3);
    params.set("steps", 6);
    params.set("shots", i == 0 ? (1 << 17) : 256);
    req.set("params", std::move(params));
    client.send(req);
  }

  std::map<std::uint64_t, int> seen;
  std::map<std::string, int> by_status;
  int overloaded = 0;
  for (int i = 0; i < burst; ++i) {
    auto reply = client.recv();
    ASSERT_TRUE(reply.has_value()) << "connection died after " << i << " replies";
    ++seen[reply->find("id")->as_uint64()];
    ++by_status[reply->get_string("status", "?")];
    const Value* error = reply->find("error");
    if (error != nullptr && error->get_string("kind", "") == "overloaded")
      ++overloaded;
  }
  EXPECT_EQ(seen.size(), static_cast<std::size_t>(burst));
  for (const auto& [id, count] : seen) EXPECT_EQ(count, 1) << "id " << id;
  EXPECT_GT(overloaded, 0) << "queue_cap=2 never tripped under a 12-job burst";

  const Value stats = server.build_stats();
  EXPECT_GT(stats.find("requests")->get_int("overloaded", 0), 0);
  EXPECT_LE(stats.find("scheduler")->get_int("peak_queued", 99), 2);
  server.stop();
}

TEST(Server, CleanShutdownDrainsInflightJobsBeforeClosingConnections) {
  QapproxServer server(test_options("shutdown"));
  server.start();
  Client jobs_conn = Client::connect(server.options().socket_path);
  Client control = Client::connect(server.options().socket_path);

  const int inflight = 8;
  for (int i = 0; i < inflight; ++i) {
    Value req = Value::object();
    req.set("id", i);
    req.set("type", "simulate");
    Value params = Value::object();
    params.set("workload", "tfim");
    params.set("qubits", 3);
    params.set("steps", 4);
    params.set("shots", 4096);
    req.set("params", std::move(params));
    jobs_conn.send(req);
  }

  Value shutdown_req = Value::object();
  shutdown_req.set("id", "ctl");
  shutdown_req.set("type", "shutdown");
  const Value ack = control.call(shutdown_req);
  EXPECT_EQ(ack.get_string("status", ""), "ok");

  server.wait();  // returns once the wire shutdown request lands
  server.stop();  // drains the scheduler before closing connections

  // Every in-flight job replied (ok or degraded-under-cancellation — never
  // dropped), and only then did the connection reach EOF.
  std::map<std::uint64_t, int> seen;
  for (int i = 0; i < inflight; ++i) {
    auto reply = jobs_conn.recv();
    ASSERT_TRUE(reply.has_value()) << "reply " << i << " lost in shutdown";
    ++seen[reply->find("id")->as_uint64()];
    const std::string status = reply->get_string("status", "");
    EXPECT_TRUE(status == "ok" || status == "degraded" || status == "error")
        << reply->dump();
  }
  EXPECT_EQ(seen.size(), static_cast<std::size_t>(inflight));
  EXPECT_FALSE(jobs_conn.recv().has_value());  // clean EOF, no stray frames
}

TEST(Server, WarmStartReloadsTheSynthesisCacheAcrossRestart) {
  const std::string dir = make_temp_dir();
  synth::clear_synth_cache();

  Value req = Value::object();
  req.set("id", 1);
  req.set("type", "synthesize");
  req.set("deadline_ms", 60000);
  Value params = Value::object();
  params.set("preset", "grover");
  params.set("qubits", 3);
  params.set("fast", true);
  params.set("max_circuits", 8);
  req.set("params", std::move(params));

  ServerOptions opts = test_options("warm1");
  opts.synth_cache_dir = dir;
  Value first_reply;
  {
    QapproxServer server(opts);
    server.start();
    Client client = Client::connect(opts.socket_path);
    first_reply = client.call(req);
    const std::string status = first_reply.get_string("status", "?");
    ASSERT_TRUE(status == "ok" || status == "degraded") << first_reply.dump();
    server.stop();  // snapshots the cache to `dir`
  }
  {
    std::ifstream snapshot(dir + "/" + synth::kSynthCacheSnapshotFile);
    ASSERT_TRUE(snapshot.is_open()) << "stop() did not write a snapshot";
  }

  // "Restart": drop the in-memory cache, boot a second server on the same
  // directory, and re-run the identical job.
  synth::clear_synth_cache();
  const synth::SynthCacheStats before = synth::synth_cache_stats();
  ServerOptions opts2 = test_options("warm2");
  opts2.synth_cache_dir = dir;
  QapproxServer server(opts2);
  server.start();
  Client client = Client::connect(opts2.socket_path);

  const Value stats_reply = [&client] {
    Value stats_req = Value::object();
    stats_req.set("id", 2);
    stats_req.set("type", "stats");
    return client.call(stats_req);
  }();
  const Value* synth_cache = stats_reply.find("result")->find("synth_cache");
  ASSERT_NE(synth_cache, nullptr);
  EXPECT_GT(synth_cache->get_int("warm_loaded", 0), 0);
  EXPECT_FALSE(synth::synth_cache_dump_reducer().empty());

  const Value reply = client.call(req);
  const std::string status = reply.get_string("status", "?");
  ASSERT_TRUE(status == "ok" || status == "degraded") << reply.dump();
  // Every tool the grover preset runs, the reducer included, replays from
  // the snapshot, and the replay reproduces the first server's cloud.
  const Value* result = reply.find("result");
  ASSERT_NE(result, nullptr);
  EXPECT_EQ(result->find("report")->get_int("synth_cache_misses", -1), 0);
  EXPECT_EQ(result->find("circuits")->dump(),
            first_reply.find("result")->find("circuits")->dump());
  const synth::SynthCacheStats after = synth::synth_cache_stats();
  const double hits = static_cast<double>(after.hits - before.hits);
  const double misses = static_cast<double>(after.misses - before.misses);
  ASSERT_GT(hits + misses, 0.0);
  // The acceptance bar: a warm restart re-running the same job mix serves
  // >= 80% of synthesis lookups from the reloaded cache.
  EXPECT_GE(hits / (hits + misses), 0.8)
      << "hits " << hits << ", misses " << misses;
  server.stop();
  synth::clear_synth_cache();
}

// ---- live metrics and request-scoped tracing --------------------------------

Value simulate_request(std::uint64_t id, int shots, double deadline_ms = 0.0) {
  Value req = Value::object();
  req.set("id", id);
  req.set("type", "simulate");
  if (deadline_ms > 0.0) req.set("deadline_ms", deadline_ms);
  Value params = Value::object();
  params.set("workload", "tfim");
  params.set("qubits", 3);
  params.set("steps", 4);
  params.set("shots", shots);
  req.set("params", std::move(params));
  return req;
}

TEST(Server, MetricsRequestServesJsonAndPrometheusInline) {
  QapproxServer server(test_options("metrics"));
  server.start();
  Client client = Client::connect(server.options().socket_path);

  // One completed job so the rolling SLO histograms have something to show.
  const Value job_reply = client.call(simulate_request(1, 256));
  ASSERT_EQ(job_reply.get_string("status", ""), "ok") << job_reply.dump();

  // The reply is written before the worker records the job's SLO samples;
  // poll until the histogram shows up rather than racing it.
  Value reply;
  for (int attempt = 0; attempt < 100; ++attempt) {
    Value req = Value::object();
    req.set("id", 2);
    req.set("type", "metrics");
    reply = client.call(req);
    ASSERT_EQ(reply.get_string("status", ""), "ok") << reply.dump();
    const Value* m = reply.find("result")->find("metrics");
    if (m != nullptr && m->find("rolling") != nullptr &&
        m->find("rolling")->find("serve.job.latency_ns") != nullptr)
      break;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  const Value* result = reply.find("result");
  ASSERT_NE(result, nullptr);
  EXPECT_GT(result->get_number("uptime_ms", -1.0), 0.0);
  const Value* queue = result->find("queue");
  ASSERT_NE(queue, nullptr);
  EXPECT_GE(queue->get_number("queued", -1.0), 0.0);
  EXPECT_GE(queue->get_number("running", -1.0), 0.0);
  const Value* metrics = result->find("metrics");
  ASSERT_NE(metrics, nullptr);
  const Value* rolling = metrics->find("rolling");
  ASSERT_NE(rolling, nullptr);
  const Value* latency = rolling->find("serve.job.latency_ns");
  ASSERT_NE(latency, nullptr) << "job latency histogram missing";
  EXPECT_GE(latency->get_number("count", 0.0), 1.0);
  EXPECT_GT(latency->get_number("p50", 0.0), 0.0);
  // Per-kind and per-tenant breakdowns ride in the same flat namespace.
  EXPECT_NE(rolling->find("serve.job.latency_ns.kind.simulate"), nullptr);
  EXPECT_NE(rolling->find("serve.job.queue_wait_ns"), nullptr);
  EXPECT_NE(rolling->find("serve.job.exec_ns"), nullptr);

  Value prom_req = Value::object();
  prom_req.set("id", 3);
  prom_req.set("type", "metrics");
  Value prom_params = Value::object();
  prom_params.set("format", "prometheus");
  prom_req.set("params", std::move(prom_params));
  const Value prom_reply = client.call(prom_req);
  ASSERT_EQ(prom_reply.get_string("status", ""), "ok");
  const Value* prom = prom_reply.find("result");
  ASSERT_NE(prom, nullptr);
  EXPECT_EQ(prom->get_string("content_type", ""), "text/plain; version=0.0.4");
  const std::string body = prom->get_string("body", "");
  EXPECT_NE(body.find("qapprox_build_info"), std::string::npos);
  EXPECT_NE(body.find("# TYPE qapprox_serve_job_latency_ns summary"),
            std::string::npos);
  EXPECT_NE(body.find("kind=\"simulate\""), std::string::npos);
  EXPECT_NE(body.find("quantile=\"0.99\""), std::string::npos);
  EXPECT_NE(body.find("qapprox_serve_job_latency_ns_count"), std::string::npos);

  Value bad = Value::object();
  bad.set("id", 4);
  bad.set("type", "metrics");
  Value bad_params = Value::object();
  bad_params.set("format", "xml");
  bad.set("params", std::move(bad_params));
  const Value bad_reply = client.call(bad);
  EXPECT_EQ(bad_reply.get_string("status", ""), "error");
  EXPECT_EQ(bad_reply.find("error")->get_string("kind", ""), "bad_request");
  server.stop();
}

TEST(Server, JobRepliesCarryTimelineWithFreshTraceIds) {
  QapproxServer server(test_options("timeline"));
  server.start();
  Client client = Client::connect(server.options().socket_path);

  std::vector<std::string> trace_ids;
  for (std::uint64_t id = 1; id <= 2; ++id) {
    const Value reply = client.call(simulate_request(id, 256));
    ASSERT_EQ(reply.get_string("status", ""), "ok") << reply.dump();
    const Value* timeline = reply.find("timeline");
    ASSERT_NE(timeline, nullptr) << "job reply lost its timeline";
    const std::string trace_id = timeline->get_string("trace_id", "");
    EXPECT_EQ(trace_id.size(), 16u) << trace_id;  // zero-padded hex64
    EXPECT_NE(trace_id, "0000000000000000");
    trace_ids.push_back(trace_id);
    EXPECT_GE(timeline->get_number("queued_ns", -1.0), 0.0);
    EXPECT_GT(timeline->get_number("exec_ns", 0.0), 0.0);
    EXPECT_GE(timeline->get_number("reply_ns", -1.0), 0.0);
  }
  EXPECT_NE(trace_ids[0], trace_ids[1]);  // one trace per admission

  // Inline requests (ping/stats/metrics) are not jobs and carry no timeline.
  const Value pong = client.call(ping_request(9));
  EXPECT_EQ(pong.find("timeline"), nullptr);
  server.stop();
}

TEST(Server, TailSamplerCapturesDegradedAndSlowestButNotEveryJob) {
  ServerOptions opts = test_options("tail");
  opts.trace_dir = make_temp_dir();
  opts.tail_top_k = 1;
  QapproxServer server(opts);
  server.start();
  Client client = Client::connect(opts.socket_path);

  // Four healthy jobs contest the single top-K slot; the expired-deadline
  // job degrades and must be captured unconditionally.
  for (std::uint64_t id = 1; id <= 4; ++id) {
    const Value reply = client.call(simulate_request(id, 256));
    ASSERT_EQ(reply.get_string("status", ""), "ok") << reply.dump();
  }
  const Value degraded = client.call(simulate_request(5, 1 << 18, 0.001));
  ASSERT_EQ(degraded.get_string("status", ""), "degraded") << degraded.dump();

  // Post-reply bookkeeping (tail observe) races the client's return; wait
  // for the worker to log all five jobs.
  for (int attempt = 0; attempt < 200 && server.tail_stats().observed < 5;
       ++attempt)
    std::this_thread::sleep_for(std::chrono::milliseconds(5));

  const Value stats = server.build_stats();
  const Value* tail = stats.find("tail_sampler");
  ASSERT_NE(tail, nullptr);
  EXPECT_EQ(tail->get_string("dir", ""), opts.trace_dir);
  EXPECT_EQ(tail->get_int("observed", 0), 5);

  server.stop();  // flushes the open window's top-K survivors

  std::vector<std::string> files;
  bool saw_degraded = false;
  for (const auto& entry :
       std::filesystem::directory_iterator(opts.trace_dir)) {
    const std::string name = entry.path().filename().string();
    files.push_back(name);
    if (name.find("degraded") != std::string::npos) saw_degraded = true;
    std::ifstream in(entry.path());
    std::string body((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
    EXPECT_NE(body.find("traceEvents"), std::string::npos) << name;
    EXPECT_NE(body.find("serve.job"), std::string::npos) << name;
  }
  EXPECT_TRUE(saw_degraded) << "degraded job not tail-sampled";
  // Tail sampling, not full capture: with top_k=1 the four fast-ok jobs
  // cannot all appear — only the degraded capture plus the window's slowest.
  EXPECT_GE(files.size(), 2u);
  EXPECT_LT(files.size(), 5u);

  const TailSamplerStats after = server.tail_stats();
  EXPECT_EQ(after.observed, 5u);
  EXPECT_EQ(after.captured, files.size());
  EXPECT_EQ(after.write_failures, 0u);
}

// ---- job builders (no socket) ----------------------------------------------

TEST(Jobs, BuildWorkloadValidatesShapes) {
  Value params = Value::object();
  params.set("workload", "tfim");
  params.set("qubits", 3);
  params.set("steps", 2);
  const Workload w = build_workload(params);
  EXPECT_EQ(w.name, "tfim");
  EXPECT_EQ(w.circuit.num_qubits(), 3);
  EXPECT_EQ(w.metric, "magnetization");

  params.set("steps", 0);
  EXPECT_THROW(build_workload(params), common::Error);
  params.set("steps", 2);
  params.set("qubits", 99);
  EXPECT_THROW(build_workload(params), common::Error);
  params.set("qubits", 3);
  params.set("workload", "qasm");
  EXPECT_THROW(build_workload(params), common::Error);  // missing qasm text
}

TEST(Jobs, SimulateJobHonorsItsDeadlineWithAPartialResult) {
  Value params = Value::object();
  params.set("workload", "tfim");
  params.set("qubits", 3);
  params.set("steps", 8);
  params.set("shots", 1 << 18);
  params.set("mode", "simulator");
  // An already-expired deadline: the run must come back degraded with a
  // flagged partial distribution, not throw.
  const JobOutcome out =
      run_simulate_job(params, common::Deadline::after_ms(0.0));
  EXPECT_TRUE(out.degraded);
  EXPECT_FALSE(out.why.empty());
  EXPECT_TRUE(out.result.get_bool("timed_out", false));
}

// ---- crash durability: replay, attach, watchdog, journal recovery ----------

TEST(FrameDecoder, CorpusSplitAtEveryOffsetAlwaysResynchronizes) {
  const std::string corpus = encode_frame("alpha") +
                             encode_frame(std::string(300, 'x')) +
                             encode_frame("") + encode_frame("omega");
  for (std::size_t split = 0; split <= corpus.size(); ++split) {
    FrameDecoder dec;
    dec.feed(corpus.data(), split);
    std::vector<std::string> got;
    while (auto frame = dec.next()) got.push_back(frame->payload);
    dec.feed(corpus.data() + split, corpus.size() - split);
    while (auto frame = dec.next()) got.push_back(frame->payload);
    ASSERT_EQ(got.size(), 4u) << "split at " << split;
    EXPECT_EQ(got[0], "alpha");
    EXPECT_EQ(got[1].size(), 300u);
    EXPECT_EQ(got[2], "");
    EXPECT_EQ(got[3], "omega");
    EXPECT_FALSE(dec.poisoned());
  }
}

Value keyed_simulate(std::uint64_t id, const std::string& idem,
                     int sleep_ms = 0, int hang_ms = 0,
                     double deadline_ms = 0.0) {
  Value req = Value::object();
  req.set("id", id);
  req.set("type", "simulate");
  req.set("tenant", "t0");
  if (!idem.empty()) req.set("idem", idem);
  if (deadline_ms > 0.0) req.set("deadline_ms", deadline_ms);
  Value params = Value::object();
  params.set("workload", "tfim");
  params.set("qubits", 3);
  params.set("steps", 2);
  params.set("shots", 128);
  if (sleep_ms > 0) params.set("sleep_ms", sleep_ms);
  if (hang_ms > 0) params.set("hang_ms", hang_ms);
  req.set("params", std::move(params));
  return req;
}

TEST(Server, IdempotentRetryReplaysTheCachedReplyWithoutReExecuting) {
  QapproxServer server(test_options("idem"));
  server.start();
  Client client = Client::connect(server.options().socket_path);

  const Value first = client.call(keyed_simulate(1, "idem-a"));
  ASSERT_EQ(first.get_string("status", ""), "ok") << first.dump();
  const std::string exec = first.get_string("exec", "");
  ASSERT_FALSE(exec.empty()) << "job replies must carry their exec id";
  EXPECT_FALSE(first.get_bool("replayed", false));

  // Same key, new request id: the retry is answered from the replay cache,
  // re-stamped with its own id, flagged, and carrying the ORIGINAL exec id —
  // proof nothing ran twice.
  const Value retry = client.call(keyed_simulate(2, "idem-a"));
  EXPECT_EQ(retry.get_string("status", ""), "ok");
  EXPECT_EQ(retry.find("id")->as_uint64(), 2u);
  EXPECT_TRUE(retry.get_bool("replayed", false));
  EXPECT_EQ(retry.get_string("exec", ""), exec);

  // A different key under the same tenant is its own execution.
  const Value other = client.call(keyed_simulate(3, "idem-b"));
  EXPECT_FALSE(other.get_bool("replayed", false));
  EXPECT_NE(other.get_string("exec", ""), exec);

  const QapproxServer::DurabilityStats dur = server.durability_stats();
  EXPECT_EQ(dur.replayed, 1u);
  EXPECT_EQ(dur.duplicate_exec, 0u);
  server.stop();
}

TEST(Server, ConcurrentRetryAttachesToTheInflightExecution) {
  ServerOptions opts = test_options("attach");
  opts.scheduler.workers = 1;
  QapproxServer server(opts);
  server.start();
  Client client = Client::connect(opts.socket_path);

  // The first request holds the worker for ~300 ms (cooperative stall); the
  // pipelined retry lands while it is in flight and must attach, not queue a
  // second execution.
  client.send(keyed_simulate(1, "shared", /*sleep_ms=*/300));
  client.send(keyed_simulate(2, "shared"));

  std::map<std::uint64_t, Value> replies;
  for (int i = 0; i < 2; ++i) {
    auto reply = client.recv();
    ASSERT_TRUE(reply.has_value());
    replies.emplace(reply->find("id")->as_uint64(), *reply);
  }
  ASSERT_EQ(replies.size(), 2u);
  EXPECT_FALSE(replies.at(1).get_bool("replayed", false));
  EXPECT_TRUE(replies.at(2).get_bool("replayed", false));
  EXPECT_EQ(replies.at(1).get_string("exec", "?"),
            replies.at(2).get_string("exec", "??"))
      << "attached retry must share the one execution";

  const QapproxServer::DurabilityStats dur = server.durability_stats();
  EXPECT_EQ(dur.attached, 1u);
  EXPECT_EQ(dur.duplicate_exec, 0u);
  server.stop();
}

TEST(Server, WatchdogReapsAWedgedJobAndTheServerKeepsServing) {
  ServerOptions opts = test_options("reap");
  opts.scheduler.workers = 1;
  opts.watchdog.scan_period_ms = 20.0;
  opts.watchdog.grace = 1.0;
  QapproxServer server(opts);
  server.start();
  Client client = Client::connect(opts.socket_path);

  // hang_ms ignores the deadline entirely — a stand-in for a job wedged in
  // non-polling code. Budget 50 ms, so it goes overdue almost immediately,
  // never bumps its beacon, and strike 2 reaps the slot.
  const Value reaped = client.call(
      keyed_simulate(1, "wedged", /*sleep_ms=*/0, /*hang_ms=*/1500,
                     /*deadline_ms=*/50.0));
  EXPECT_EQ(reaped.get_string("status", ""), "error") << reaped.dump();
  ASSERT_NE(reaped.find("error"), nullptr);
  EXPECT_EQ(reaped.find("error")->get_string("kind", ""), "reaped");
  EXPECT_TRUE(reaped.get_bool("timed_out", false));

  // The wedged thread still holds the original worker, but the reap spawned
  // a surplus one: the server must keep serving immediately.
  const Value next = client.call(keyed_simulate(2, "after-reap"));
  EXPECT_EQ(next.get_string("status", ""), "ok") << next.dump();

  // A retry of the reaped key replays the reaped error — the key is burnt,
  // not silently re-executed.
  const Value retry = client.call(keyed_simulate(3, "wedged"));
  EXPECT_EQ(retry.get_string("status", ""), "error");
  EXPECT_TRUE(retry.get_bool("replayed", false));

  EXPECT_EQ(server.durability_stats().reaped, 1u);
  EXPECT_GE(server.watchdog_stats().reaped, 1u);
  EXPECT_EQ(server.durability_stats().duplicate_exec, 0u);
  server.stop();  // blocks until the wedged sleep returns; bounded at 1.5 s
}

TEST(Server, CooperativelySlowJobIsCancelledNotReaped) {
  ServerOptions opts = test_options("coop");
  opts.watchdog.scan_period_ms = 20.0;
  opts.watchdog.grace = 1.0;
  QapproxServer server(opts);
  server.start();
  Client client = Client::connect(opts.socket_path);

  // sleep_ms polls the deadline every 5 ms: the job blows its 60 ms budget
  // but keeps bumping its beacon, so strike 1 cancels it and it winds down
  // with a degraded partial — the watchdog must never reap it.
  const Value reply = client.call(
      keyed_simulate(1, "slow", /*sleep_ms=*/400, /*hang_ms=*/0,
                     /*deadline_ms=*/60.0));
  const std::string status = reply.get_string("status", "");
  EXPECT_TRUE(status == "ok" || status == "degraded") << reply.dump();
  EXPECT_EQ(server.watchdog_stats().reaped, 0u);
  EXPECT_EQ(server.durability_stats().reaped, 0u);
  server.stop();
}

TEST(Server, JournalRecoveryServesCachedRepliesAcrossRestart) {
  const std::string dir = make_temp_dir();
  std::string exec;
  {
    ServerOptions opts = test_options("jrn1");
    opts.journal_dir = dir;
    QapproxServer server(opts);
    server.start();
    Client client = Client::connect(opts.socket_path);
    const Value reply = client.call(keyed_simulate(1, "stable"));
    ASSERT_EQ(reply.get_string("status", ""), "ok") << reply.dump();
    exec = reply.get_string("exec", "");
    ASSERT_FALSE(exec.empty());
    server.stop();  // clean drain: compacts the journal to DONE records
  }

  ServerOptions opts = test_options("jrn2");
  opts.journal_dir = dir;
  QapproxServer server(opts);
  server.start();
  EXPECT_GE(server.journal_stats().recovered_replies, 1u);
  EXPECT_EQ(server.durability_stats().recovered_jobs, 0u)
      << "a completed job must not re-enqueue";
  EXPECT_GT(server.journal_stats().recovery_ms, 0.0);

  // The retry after the "crash" replays boot 1's reply — same exec id, which
  // this boot could not have minted (exec ids are boot-prefixed).
  Client client = Client::connect(opts.socket_path);
  const Value retry = client.call(keyed_simulate(2, "stable"));
  EXPECT_EQ(retry.get_string("status", ""), "ok");
  EXPECT_TRUE(retry.get_bool("replayed", false));
  EXPECT_EQ(retry.get_string("exec", ""), exec);
  server.stop();
}

TEST(Server, RecoveredIncompleteJobExecutesOnceAndAnswersItsRetry) {
  const std::string dir = make_temp_dir();
  // Forge the crash signature directly: an ACCEPTED record with no DONE, as
  // a SIGKILL between admission and completion leaves behind.
  const std::string key = std::string("t0") + '\x1f' + "recover-1";
  {
    ReplayCache scratch(8);
    JobJournal journal(dir, &scratch);
    journal.record_accepted(key, keyed_simulate(1, "recover-1"));
  }

  ServerOptions opts = test_options("jrec");
  opts.journal_dir = dir;
  QapproxServer server(opts);
  server.start();
  EXPECT_EQ(server.durability_stats().recovered_jobs, 1u);

  // The client's retry either attaches to the re-enqueued execution or
  // replays its cached reply — both paths surface as replayed=true, and
  // either way there was exactly one execution.
  Client client = Client::connect(opts.socket_path);
  const Value retry = client.call(keyed_simulate(2, "recover-1"));
  EXPECT_EQ(retry.get_string("status", ""), "ok") << retry.dump();
  EXPECT_TRUE(retry.get_bool("replayed", false));
  EXPECT_FALSE(retry.get_string("exec", "").empty());
  EXPECT_EQ(server.durability_stats().duplicate_exec, 0u);
  server.stop();
}

TEST(Server, WriteBudgetOverflowDisconnectsInsteadOfBufferingForever) {
  ServerOptions opts = test_options("budget");
  opts.write_budget_bytes = 256;  // smaller than any job reply
  QapproxServer server(opts);
  server.start();
  Client client = Client::connect(opts.socket_path);

  // Small inline replies fit the budget.
  const Value pong = client.call(ping_request(1));
  EXPECT_EQ(pong.get_string("status", ""), "ok");

  // A job reply cannot fit 256 bytes: the server must drop the connection at
  // the budget instead of queueing unbounded output for a slow reader.
  client.send(keyed_simulate(2, ""));
  EXPECT_FALSE(client.recv().has_value()) << "expected a budget disconnect";
  for (int attempt = 0;
       attempt < 200 && server.durability_stats().slow_disconnects == 0;
       ++attempt)
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  EXPECT_EQ(server.durability_stats().slow_disconnects, 1u);

  // The server itself is healthy: new connections serve normally.
  Client fresh = Client::connect(opts.socket_path);
  EXPECT_EQ(fresh.call(ping_request(3)).get_string("status", ""), "ok");
  server.stop();
}

TEST(Server, StopWhileClientsConnectNeverHangsAConnection) {
  // stop() races a stream of raw connects, in a loop: the listener must
  // wake from accept(), refuse or close every connection it did not serve,
  // and release its fd only after the accept thread is gone. A connection
  // whose read times out was accepted (or queued) and then abandoned.
  const ServerOptions opts = test_options("stoprace");
  const std::string frame = encode_frame(ping_request(1).dump());
  for (int round = 0; round < 20; ++round) {
    QapproxServer server(opts);
    server.start();
    std::atomic<bool> done{false};
    std::atomic<int> connected{0};
    std::atomic<int> hung{0};
    std::vector<std::thread> clients;
    for (int c = 0; c < 3; ++c) {
      clients.emplace_back([&] {
        sockaddr_un addr{};
        addr.sun_family = AF_UNIX;
        std::strncpy(addr.sun_path, opts.socket_path.c_str(),
                     sizeof(addr.sun_path) - 1);
        while (!done.load()) {
          const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
          ASSERT_GE(fd, 0);
          if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                        sizeof(addr)) == 0) {
            connected.fetch_add(1);
            timeval timeout{};
            timeout.tv_sec = 5;
            ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout));
            // MSG_NOSIGNAL: the peer may already be gone (EPIPE, no SIGPIPE).
            (void)::send(fd, frame.data(), frame.size(), MSG_NOSIGNAL);
            char buf[512];
            const ssize_t got = ::recv(fd, buf, sizeof(buf), 0);
            if (got < 0 && (errno == EAGAIN || errno == EWOULDBLOCK))
              hung.fetch_add(1);
          }
          ::close(fd);
        }
      });
    }
    const auto give_up = std::chrono::steady_clock::now() + std::chrono::seconds(5);
    while (connected.load() < 2 && std::chrono::steady_clock::now() < give_up)
      std::this_thread::yield();
    server.stop();
    done.store(true);
    for (std::thread& t : clients) t.join();
    EXPECT_GE(connected.load(), 2) << "round " << round;
    EXPECT_EQ(hung.load(), 0) << "round " << round;
  }
}

TEST(Client, ConnectWithRetryRidesOutALateBindAndEventuallyGivesUp) {
  ServerOptions opts = test_options("retry");
  QapproxServer server(opts);
  std::thread late_binder([&server] {
    std::this_thread::sleep_for(std::chrono::milliseconds(300));
    server.start();
  });

  // The socket does not exist yet; the backoff loop must ride the gap out.
  Client client = Client::connect_with_retry(opts.socket_path, 10000.0);
  EXPECT_EQ(client.call(ping_request(1)).get_string("status", ""), "ok");
  late_binder.join();
  server.stop();

  EXPECT_THROW(Client::connect_with_retry(
                   test_socket("never_bound"), /*budget_ms=*/80.0),
               common::Error);
}

}  // namespace
}  // namespace qc::serve
