// svc-mix: the analysis service in its production configuration — isolated
// worker processes, one job runner per CPU, write-ahead journal and
// persistent cache in a fresh state directory — driven over its Unix socket.
// About 70% of requests hit a small pre-warmed catalogue; about 30% bypass
// the cache and run small cold jobs on all four engines. The engines do
// little per request, so framing, cache, admission, the worker hop and the
// journal dominate.
//
// Phase 1 is an open loop at a fixed offered rate (Poisson arrivals); each
// latency is timed from the request's due time, so a stall also charges the
// requests queued behind it. Its median is the workload's `latency_ms`.
// Phase 2 is a closed loop of 4 sessions; its completion rate, the
// capacity, is reported in the details line.
//
// Every answer is compared byte for byte, ignoring `cached`, with a direct
// svc::prepare_job run of the same request. Those reference runs happen in
// a forked child before the server starts: a worker forked from a process
// whose global executor already runs threads would inherit a pool without
// threads.
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <sstream>
#include <thread>

#include "svc/client.h"
#include "svc/registry.h"
#include "svc/server.h"
#include "workloads.h"

namespace qb {

using namespace quanta;

namespace {

constexpr double kHitShare = 0.7;
constexpr int kClosedSessions = 4;
constexpr int kSetupRepeats = 7;
constexpr int kColdRounds = 5;
/// Tail in the details line. About 4 800 open-loop requests per 30 s run:
/// 48 beyond p99.
constexpr double kTailPct = 99.0;
/// Open-loop connections, one per independent user. Each waits blocked on
/// its socket, so they cost no CPU; there are enough that a request almost
/// never waits for a free one. With one per CPU, cache hits queued on the
/// client side behind cold jobs: the median sat where hits end and cold jobs
/// begin, and jumped from 0.12 ms to 1.1 ms between runs of the same code.
constexpr unsigned kOpenConnections = 16;
/// An open-loop sender sleeps until this long before its due time and spins
/// the rest. A timer wake-up on an idle vCPU landed 0.1 ms late on average,
/// most of a cache hit's latency, and that lag is the generator's, not the
/// server's. At 500 q/s the spinning costs about a tenth of one CPU.
constexpr auto kSpinBeforeDue = std::chrono::microseconds(200);
/// Shares of --seconds spent in the open and the closed loop.
constexpr double kOpenShare = 0.4;
constexpr double kClosedShare = 0.6;
constexpr int kSmcSeeds = 4;

/// SplitMix64: the benchmark's own generator, identical on every platform.
struct Rng {
  std::uint64_t s;
  std::uint64_t next() {
    std::uint64_t z = (s += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }
  double uniform() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }
  std::size_t below(std::size_t n) {
    return static_cast<std::size_t>(next() % n);
  }
};

svc::Request request(const char* engine, const char* model, const char* query,
                     bool cache) {
  svc::Request r;
  r.engine = engine;
  r.model = model;
  r.query = query;
  r.use_cache = cache;
  return r;
}

/// One distinct request of the workload and its reference answer.
struct Entry {
  svc::Request req;
  svc::WireMap wire;
  std::string expected;  ///< canonical answer without `cached`
  std::vector<double> engine_ms;  ///< direct prepare_job(...)->run(...) times
};

/// The catalogue (cache hits after warm-up) followed by the cold variants.
struct Universe {
  std::vector<Entry> entries;
  std::size_t hits = 0;  ///< entries [0, hits) are the catalogue

  explicit Universe(std::uint64_t seed) {
    std::vector<svc::Request> cat = {
        request("mc", "train-gate-2", "mutex", true),
        request("mc", "train-gate-3", "mutex", true),
        request("mc", "train-gate-3", "reach-cross", true),
        request("mc", "train-gate-4", "reach-cross", true),
        request("smc", "train-gate-2", "pr-cross", true),
        request("smc", "train-gate-3", "pr-cross", true),
        request("game", "train-game-1", "reach-cross", true),
        request("cora", "train-gate-2", "mincost-cross", true),
    };
    cat[4].runs = 500;
    cat[4].seed = check_seed(seed);
    cat[5].runs = 500;
    cat[5].seed = check_seed(seed + 1);
    std::vector<svc::Request> cold = {
        request("mc", "train-gate-3", "mutex", false),
        request("mc", "train-gate-4", "mutex", false),
        request("game", "train-game-1", "reach-cross", false),
        request("cora", "train-gate-3", "mincost-cross", false),
    };
    for (int k = 0; k < kSmcSeeds; ++k) {
      svc::Request r = request("smc", "train-gate-3", "pr-cross", false);
      r.runs = 500;
      r.seed = check_seed(seed * 31 + static_cast<std::uint64_t>(k) + 17);
      cold.push_back(r);
    }
    hits = cat.size();
    for (auto* list : {&cat, &cold}) {
      for (svc::Request& r : *list) {
        Entry e;
        e.req = r;
        e.wire = svc::to_wire(r);
        entries.push_back(std::move(e));
      }
    }
  }

  std::size_t cold_count() const { return entries.size() - hits; }

  /// The seeded 70/30 mix; cold picks weigh the four engines equally.
  std::size_t pick(Rng& rng) const {
    if (rng.uniform() < kHitShare) return rng.below(hits);
    const std::size_t engine = rng.below(5);  // mc3, mc4, game, cora, smc
    if (engine < 4) return hits + engine;
    return hits + 4 + rng.below(kSmcSeeds);
  }
};

std::string normalized(const svc::WireMap& m) {
  svc::WireMap n;
  for (const auto& [k, v] : m.fields()) {
    if (k != "cached") n.set(k, v);
  }
  return n.to_json();
}

/// Runs every entry directly through the registry, `reps` times, in a
/// forked child; appends the engine times and fills the expected answers.
/// Later calls must reproduce the answers of the first. False on error.
bool direct_answers(Universe& u, int reps, std::string* error) {
  int fds[2];
  if (::pipe(fds) != 0) {
    *error = "pipe failed";
    return false;
  }
  const pid_t pid = ::fork();
  if (pid < 0) {
    ::close(fds[0]);
    ::close(fds[1]);
    *error = "fork failed";
    return false;
  }
  if (pid == 0) {
    ::close(fds[0]);
    std::string blob;
    for (const Entry& e : u.entries) {
      std::string json;
      std::ostringstream times;
      for (int r = 0; r < reps; ++r) {
        const Clock::time_point t0 = Clock::now();
        std::string why;
        const auto job = svc::prepare_job(e.req, &why);
        if (!job) ::_exit(3);
        const svc::JobResult jr = job->run(common::Budget{}, ckpt::Options{},
                                           nullptr);
        const double ms = seconds_since(t0) * 1e3;
        json = normalized(svc::to_wire(svc::response_from_result(
            jr, svc::fingerprint_token(job->fingerprint))));
        times << ms << ' ';
      }
      blob += times.str() + "\n" + std::to_string(json.size()) + "\n" + json;
    }
    std::size_t off = 0;
    while (off < blob.size()) {
      const ssize_t n = ::write(fds[1], blob.data() + off, blob.size() - off);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) ::_exit(4);
      off += static_cast<std::size_t>(n);
    }
    ::_exit(0);
  }
  ::close(fds[1]);
  std::string blob;
  char buf[65536];
  for (;;) {
    const ssize_t n = ::read(fds[0], buf, sizeof(buf));
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;
    blob.append(buf, static_cast<std::size_t>(n));
  }
  ::close(fds[0]);
  int status = 0;
  while (::waitpid(pid, &status, 0) < 0 && errno == EINTR) {
  }
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    *error = "reference child failed";
    return false;
  }
  std::size_t pos = 0;
  for (Entry& e : u.entries) {
    const std::size_t nl = blob.find('\n', pos);
    if (nl == std::string::npos) break;
    std::istringstream times(blob.substr(pos, nl - pos));
    for (double ms; times >> ms;) e.engine_ms.push_back(ms);
    const std::size_t nl2 = blob.find('\n', nl + 1);
    if (nl2 == std::string::npos) break;
    const std::size_t len = std::stoul(blob.substr(nl + 1, nl2 - nl - 1));
    const std::string answer = blob.substr(nl2 + 1, len);
    if (!e.expected.empty() && e.expected != answer) {
      *error = "direct answers differ between runs";
      return false;
    }
    e.expected = answer;
    pos = nl2 + 1 + len;
  }
  for (const Entry& e : u.entries) {
    if (e.expected.empty()) {
      *error = "reference answers incomplete";
      return false;
    }
  }
  return true;
}

/// A running server in a fresh state directory under the run's out dir.
/// The socket path is relative, so a deep checkout cannot exceed sun_path.
class Service {
 public:
  Service(const Args& args, int instance)
      : dir_(args.out_dir + "/svc-" + std::to_string(::getpid()) + "-" +
             std::to_string(instance)) {
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
    svc::ServerConfig cfg;
    cfg.socket_path = dir_ + "/d.sock";
    cfg.jobs = std::max(1u, std::thread::hardware_concurrency());
    cfg.isolate = true;
    cfg.state_dir = dir_ + "/state";
    cfg.journal = true;
    cfg.cache_persist = true;
    server_ = std::make_unique<svc::Server>(cfg);
  }
  ~Service() {
    server_.reset();  // stops listeners, runners and worker processes
    std::error_code ec;
    std::filesystem::remove_all(dir_, ec);
  }
  Service(const Service&) = delete;
  Service& operator=(const Service&) = delete;

  bool start(std::string* error) { return server_->start(error); }
  std::string socket() const { return dir_ + "/d.sock"; }
  svc::Server::Stats stats() const { return server_->stats(); }

 private:
  std::string dir_;
  std::unique_ptr<svc::Server> server_;
};

/// One request over an open session; true iff the answer is the reference.
bool ask(svc::Client& c, const Entry& e) {
  svc::WireMap resp;
  std::string error;
  if (!c.call(e.wire, &resp, &error)) return false;
  return normalized(resp) == e.expected;
}

/// Starts a service and warms its catalogue; returns the set-up seconds.
double set_up(const Args& args, int instance, const Universe& u,
              std::unique_ptr<Service>* svc_out, Outcome& out) {
  const Clock::time_point t0 = Clock::now();
  auto s = std::make_unique<Service>(args, instance);
  std::string error;
  if (!s->start(&error)) {
    out.check_op(false, "svc start: " + error);
    return 0.0;
  }
  svc::Client c;
  if (!c.connect_unix(s->socket(), &error)) {
    out.check_op(false, "svc connect: " + error);
    return 0.0;
  }
  for (std::size_t i = 0; i < u.hits; ++i) {
    out.check_op(ask(c, u.entries[i]), "svc warm-up answer wrong");
  }
  const double secs = seconds_since(t0);
  *svc_out = std::move(s);
  return secs;
}

struct OpenLoop {
  std::vector<double> latency_ms;  ///< from due time to answer
  std::vector<double> late_ms;     ///< from due time to send
  std::uint64_t failed = 0;
};

/// Poisson arrivals at `rate` for `seconds`, served by kOpenConnections
/// connections. A request waits for a free connection, and that wait is
/// latency.
OpenLoop open_loop(const Service& s, const Universe& u, std::uint64_t seed,
                   double rate, double seconds) {
  Rng rng{seed};
  std::vector<std::pair<double, std::size_t>> schedule;
  for (double t = 0.0;;) {
    t += -std::log(1.0 - rng.uniform()) / rate;
    if (t >= seconds) break;
    schedule.emplace_back(t, u.pick(rng));
  }
  OpenLoop r;
  const std::size_t n = schedule.size();
  r.latency_ms.assign(n, 0.0);
  r.late_ms.assign(n, 0.0);
  std::vector<std::uint8_t> ok(n, 0);
  std::atomic<std::size_t> next{0};
  const Clock::time_point t0 = Clock::now();
  std::vector<std::thread> threads;
  for (unsigned c = 0; c < kOpenConnections; ++c) {
    threads.emplace_back([&] {
      // Wake at the due time, not up to the default 50 us timer slack later.
      ::prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
      svc::Client client;
      std::string error;
      const bool connected = client.connect_unix(s.socket(), &error);
      for (std::size_t i; (i = next.fetch_add(1)) < n;) {
        const auto due =
            t0 + std::chrono::duration_cast<Clock::duration>(
                     std::chrono::duration<double>(schedule[i].first));
        std::this_thread::sleep_until(due - kSpinBeforeDue);
        while (Clock::now() < due) {
        }
        const Clock::time_point sent = Clock::now();
        ok[i] = connected && ask(client, u.entries[schedule[i].second]);
        const Clock::time_point done = Clock::now();
        r.late_ms[i] =
            std::chrono::duration<double, std::milli>(sent - due).count();
        r.latency_ms[i] =
            std::chrono::duration<double, std::milli>(done - due).count();
      }
    });
  }
  for (auto& t : threads) t.join();
  for (std::size_t i = 0; i < n; ++i) {
    if (!ok[i]) ++r.failed;
  }
  return r;
}

struct ClosedLoop {
  std::uint64_t completed = 0;
  std::uint64_t failed = 0;
  double elapsed_s = 0.0;
};

/// `sessions` clients sending back to back for `seconds`.
ClosedLoop closed_loop(const Service& s, const Universe& u, std::uint64_t seed,
                       int sessions, double seconds) {
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> completed{0}, failed{0};
  const Clock::time_point t0 = Clock::now();
  std::vector<std::thread> threads;
  for (int k = 0; k < sessions; ++k) {
    threads.emplace_back([&, k] {
      Rng rng{seed * 7 + static_cast<std::uint64_t>(k) + 1};
      svc::Client client;
      std::string error;
      const bool connected = client.connect_unix(s.socket(), &error);
      while (!stop.load(std::memory_order_relaxed)) {
        const bool good = connected && ask(client, u.entries[u.pick(rng)]);
        (good ? completed : failed).fetch_add(1, std::memory_order_relaxed);
        if (!connected) break;
      }
    });
  }
  while (seconds_since(t0) < seconds) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  stop.store(true);
  for (auto& t : threads) t.join();
  ClosedLoop r;
  r.elapsed_s = seconds_since(t0);
  r.completed = completed.load();
  r.failed = failed.load();
  return r;
}

}  // namespace

void svc_mix_run(const Args& args, Outcome& out) {
  Universe u(args.seed);
  std::string error;
  if (!direct_answers(u, 1, &error)) {
    out.check_op(false, "svc references: " + error);
    return;
  }
  std::unique_ptr<Service> s;
  std::vector<double> setups;
  for (int k = 0; k < kSetupRepeats; ++k) {
    s.reset();
    setups.push_back(set_up(args, k, u, &s, out));
    if (!s) return;
  }

  const OpenLoop open =
      open_loop(*s, u, args.seed, kSvcOfferedRate, args.seconds * kOpenShare);
  out.attempted += open.latency_ms.size();
  out.failed += open.failed;
  if (open.failed != 0) out.errors.push_back("svc open loop: wrong answers");
  const ClosedLoop closed =
      closed_loop(*s, u, args.seed, kClosedSessions,
                  args.seconds * kClosedShare);
  out.attempted += closed.completed + closed.failed;
  out.failed += closed.failed;
  if (closed.failed != 0) {
    out.errors.push_back("svc closed loop: wrong answers");
  }
  const svc::Server::Stats st = s->stats();
  s.reset();

  const Tail tail = tail_at(open.latency_ms, kTailPct);
  out.metric("latency_ms", median(open.latency_ms), "ms");
  out.metric("peak_rss_mb", peak_rss_mb(), "MB");
  out.metric("setup_s", median(setups), "s");
  out.details.str("open_loop", "Poisson arrivals")
      .integer("open_connections", kOpenConnections)
      .num("offered_rate_qps", kSvcOfferedRate)
      .integer("open_requests",
               static_cast<std::int64_t>(open.latency_ms.size()))
      .num("latency_tail_ms", tail.value)
      .num("throughput_qps",
           static_cast<double>(closed.completed) / closed.elapsed_s)
      .num("tail_percentile", tail.pct)
      .integer("tail_samples_beyond",
               static_cast<std::int64_t>(tail.beyond))
      .num("gen_late_ms_mean", mean(open.late_ms))
      .integer("closed_sessions", kClosedSessions)
      .integer("closed_requests", static_cast<std::int64_t>(closed.completed))
      .integer("overloads", static_cast<std::int64_t>(st.overloads))
      .integer("jobs_executed", static_cast<std::int64_t>(st.jobs_executed));
}

void svc_mix_layers(const Args& args, Tracer& tracer, Outcome& out) {
  Universe u(args.seed);
  std::string error;
  if (!direct_answers(u, 1, &error)) {
    out.check_op(false, "svc references: " + error);
    return;
  }
  for (Entry& e : u.entries) e.engine_ms.clear();
  std::unique_ptr<Service> s;
  set_up(args, 0, u, &s, out);
  if (!s) return;

  svc::Client c;
  const bool connected = c.connect_unix(s->socket(), &error);
  out.check_run(connected, "svc connect: " + error);
  // Sequential cache hits from one session.
  Rng rng{args.seed};
  std::vector<double> hit_us;
  for (std::uint64_t i = 0; i < 2000; ++i) {
    const Entry& e = u.entries[rng.below(u.hits)];
    const std::size_t first = tracer.spans().size();
    bool ok;
    {
      Scope span(&tracer, "svc.hit", Tracer::kNoParent, i);
      ok = ask(c, e);
    }
    out.check_op(ok, "svc traced hit answer wrong");
    hit_us.push_back(tracer.total_seconds("svc.hit", first) * 1e6);
  }
  // Sequential cold jobs in rounds: each round sends every cold variant
  // once, then times the same requests run directly in a forked child, so
  // that server and direct times are taken side by side.
  std::vector<std::vector<double>> rtt_ms(u.entries.size());
  for (int round = 0; round < kColdRounds; ++round) {
    for (std::size_t k = u.hits; k < u.entries.size(); ++k) {
      const std::size_t first = tracer.spans().size();
      bool ok;
      {
        Scope span(&tracer, "svc.cold", Tracer::kNoParent,
                   10000 + k * 10 + static_cast<std::size_t>(round));
        ok = ask(c, u.entries[k]);
      }
      out.check_op(ok, "svc traced cold answer wrong");
      rtt_ms[k].push_back(tracer.total_seconds("svc.cold", first) * 1e3);
    }
    out.check_op(direct_answers(u, 1, &error), "svc direct runs: " + error);
  }
  double rtt_sum = 0.0, engine_sum = 0.0;
  std::string per_request = "[";
  for (std::size_t k = u.hits; k < u.entries.size(); ++k) {
    const Entry& e = u.entries[k];
    rtt_sum += median(rtt_ms[k]);
    engine_sum += median(e.engine_ms);
    Json j;
    j.str("request", e.req.engine + " " + e.req.model + " " + e.req.query)
        .num("rtt_ms", median(rtt_ms[k]))
        .num("engine_ms", median(e.engine_ms));
    per_request += (k > u.hits ? ", " : "") + j.dump();
  }
  per_request += "]";
  const double cold_n = static_cast<double>(u.cold_count());
  // A short open loop at the benchmark's rate, for the generator's lag.
  const OpenLoop open = open_loop(*s, u, args.seed, kSvcOfferedRate, 2.0);
  out.attempted += open.latency_ms.size();
  out.failed += open.failed;
  const svc::Server::Stats st = s->stats();
  s.reset();

  out.metric("svc.hit_rtt_us", median(hit_us), "us");
  out.metric("svc.cold_rtt_ms", rtt_sum / cold_n, "ms");
  out.metric("svc.engine_ms", engine_sum / cold_n, "ms");
  out.metric("svc.cold_overhead_ms", (rtt_sum - engine_sum) / cold_n, "ms");
  out.metric("svc.cache_hit_rate",
             static_cast<double>(st.cache.hits) /
                 static_cast<double>(std::max<std::uint64_t>(st.requests, 1)),
             "ratio");
  out.metric("svc.overloads", static_cast<double>(st.overloads), "count");
  out.metric("svc.jobs_executed", static_cast<double>(st.jobs_executed),
             "count");
  out.metric("svc.journal_appends", static_cast<double>(st.journal_appends),
             "count");
  out.metric("svc.gen_late_ms", mean(open.late_ms), "ms");
  Json j;
  j.integer("hit_requests", static_cast<std::int64_t>(hit_us.size()))
      .raw("cold_requests", per_request)
      .integer("open_requests",
               static_cast<std::int64_t>(open.latency_ms.size()))
      .num("offered_rate_qps", kSvcOfferedRate)
      .boolean("journaling", st.journaling)
      .boolean("isolated", st.isolated);
  out.details.obj("svc_session", j);
}

}  // namespace qb
