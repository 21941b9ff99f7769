// CATS serving benchmark.
//
// Runs one workload against an in-process CATS cluster under
// Runtime::threaded() with one worker per hardware thread, feeds load through
// the CatsClient API, checks every result, and prints one JSON object per
// line: provenance, set-up parts, each metric with its unit and sample count,
// the oracle summary, and last the result line.
//
//   catsbench --workload e1-latency --seed 1 --seconds 10 --trace 0
//
// --trace 0 measures the end-to-end metrics. --trace 1 runs the same workload
// twice in one process, untraced and then traced (taps, bench network, timer
// probe, kernel telemetry), and prints the per-layer metrics, the tracing
// overhead, and one op's blocking-path breakdown; spans go to --out-dir.

#include <arpa/inet.h>
#include <dirent.h>
#include <netinet/in.h>
#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <sys/utsname.h>
#include <malloc.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "cats/abd.hpp"
#include "harness.hpp"
#include "kompics/telemetry.hpp"
#include "net/compression.hpp"
#include "net/tcp_network.hpp"
#include "oracle.hpp"

using namespace catsbench;
using kompics::Runtime;
using kompics::cats::CatsClient;
using kompics::cats::CatsNode;
using kompics::cats::ConsistentABD;
using kompics::cats::RingKey;
using kompics::cats::Value;

namespace {

const std::int64_t g_process_start_ns = now_ns();

// ---- workloads ------------------------------------------------------------

constexpr std::uint32_t kKeys = 4096;
constexpr int kSeedWindow = 32;

// read-heavy's open-loop offered rate, fixed once from a closed-loop capacity
// probe of its configuration (catsbench/NOTES.md has the figures); not
// retuned per change.
constexpr double kReadHeavyRate = 8000.0;

struct Workload {
  const char* name;
  int nodes;
  std::size_t degree;
  NetKind net;
  std::size_t value_bytes;
  double get_fraction;
  double zipf_s;        ///< 0 = uniform keys
  int window;           ///< closed loop: ops in flight; 0 = open loop
  bool node0_only;      ///< every op through node 0's client
  double offered_rate;  ///< open loop ops/s
  double scrape_hz;     ///< /metrics scrapes per second (0 = none)
};

const Workload kWorkloads[] = {
    {"e1-latency", 6, 5, NetKind::kLoopCodec, 1024, 0.5, 0.0, 1, true, 0, 0},
    {"read-heavy", 12, 3, NetKind::kLoopFast, 1024, 0.95, 0.99, 0, false, kReadHeavyRate, 0},
    {"hot-coordinator", 6, 3, NetKind::kLoopFast, 1024, 0.5, 0.0, 256, true, 0, 0},
    {"tcp-cluster", 5, 3, NetKind::kTcp, 8192, 0.8, 0.0, 16, false, 0, 4.0},
};

kompics::cats::CatsParams bench_params(const Workload& w) {
  kompics::cats::CatsParams p;
  p.replication_degree = w.degree;
  p.stabilization_period_ms = 200;
  p.shuffle_period_ms = 200;
  p.fd_ping_period_ms = 200;
  p.fd_initial_timeout_ms = 1000;
  p.op_timeout_ms = 2000;
  p.view_reconfig_period_ms = 200;
  p.keepalive_period_ms = 500;
  p.bootstrap_eviction_ms = 5000;
  return p;
}

const char* net_name(NetKind k) {
  switch (k) {
    case NetKind::kLoopFast: return "loopback-fast";
    case NetKind::kLoopCodec: return "loopback-codec-kz";
    case NetKind::kTcp: return "tcp-kz256";
  }
  return "?";
}

// ---- small utilities --------------------------------------------------------

struct Rng {
  std::uint64_t s;
  explicit Rng(std::uint64_t seed) : s(seed * 0x9E3779B97F4A7C15ULL + 0xD1B54A32D192ED03ULL) {}
  std::uint64_t next() {
    std::uint64_t z = (s += 0x9E3779B97F4A7C15ULL);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
  }
  double uniform() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }
};

double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(v.size())));
  return v[std::min(v.size() - 1, rank == 0 ? 0 : rank - 1)];
}

double cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) * 1e-6;
}

long proc_status_kib(const char* field) {
  std::ifstream in("/proc/self/status");
  std::string line;
  const std::size_t n = std::strlen(field);
  while (std::getline(in, line)) {
    if (line.compare(0, n, field) == 0 && line.size() > n && line[n] == ':') {
      return std::atol(line.c_str() + n + 1);
    }
  }
  return 0;
}

/// The host's CPU time so far, in clock ticks: {stolen by the hypervisor, total}.
std::pair<double, double> host_cpu_ticks() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  in >> cpu;
  double total = 0, steal = 0, v = 0;
  for (int i = 0; i < 8 && in >> v; ++i) {
    total += v;
    if (i == 7) steal = v;
  }
  return {steal, total};
}

/// Resets the kernel's peak-RSS counter (VmHWM) to the current RSS.
void reset_peak_rss() { std::ofstream("/proc/self/clear_refs") << "5"; }

int thread_count() {
  int n = 0;
  if (DIR* d = opendir("/proc/self/task")) {
    while (dirent* e = readdir(d)) {
      if (e->d_name[0] != '.') ++n;
    }
    closedir(d);
  }
  return n;
}

std::string json_num(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.10g", v);
  return buf;
}

std::string json_str(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

double secs(std::int64_t ns) { return static_cast<double>(ns) * 1e-9; }

/// One HTTP/1.0 GET /metrics; returns wall time in ms, or a negative value
/// on any failure (connect, status, empty body).
double scrape_metrics(std::uint16_t port) {
  const std::int64_t t0 = now_ns();
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  timeval tv{2, 0};
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof tv);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(0x7f000001u);
  std::string resp;
  bool ok = ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) == 0;
  if (ok) {
    const char req[] = "GET /metrics HTTP/1.0\r\nHost: localhost\r\n\r\n";
    ok = ::send(fd, req, sizeof req - 1, MSG_NOSIGNAL) == static_cast<ssize_t>(sizeof req - 1);
  }
  char buf[16384];
  while (ok) {
    const ssize_t n = ::recv(fd, buf, sizeof buf, 0);
    if (n < 0) ok = false;
    if (n <= 0) break;
    resp.append(buf, static_cast<std::size_t>(n));
  }
  ::close(fd);
  ok = ok && resp.compare(0, 12, "HTTP/1.0 200") == 0 && resp.find("kompics_") != std::string::npos;
  return ok ? static_cast<double>(now_ns() - t0) * 1e-6 : -1;
}

// ---- metric output ------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
  std::uint64_t samples;
};

// The metrics of the result line; BENCHMARK.json names the same sets.
const char* const kEndToEnd[] = {"ops_per_s",     "get_p50_us", "get_p99_us",
                                 "put_p50_us",    "put_p99_us", "cpu_us_per_op",
                                 "setup_s",       "rss_mib",    "threads"};
const char* const kPerLayer[] = {
    "sched.executions_per_op", "sched.steals_per_op",   "sched.parks_per_op",
    "sched.wakes_per_op",      "sched.busy_us_per_op",  "sched.spin_us_per_op",
    "abd.handlers_per_dispatch", "abd.busy_us_per_op",  "codec.serialize_us",
    "codec.compress_us",       "codec.decompress_us",   "codec.deserialize_us",
    "codec.msgs_per_op",       "codec.wire_bytes_per_op", "net.hop_p50_us",
    "net.hop_p99_us",          "tcp.msgs_sent_per_op",  "tcp.bytes_sent_per_op",
    "tcp.send_failures",       "tcp.reconnects",        "abd.retries_per_op",
    "abd.fast_retries_per_op", "abd.stale_view_nacks",  "abd.useful_ratio",
    "maint.msgs_per_s",        "timer.lateness_p50_us", "timer.lateness_p99_us",
    "web.vm_kib_per_scrape",   "path.hop_us",           "unattributed_us",
    "trace.overhead_pct"};

class Report {
 public:
  void add(const std::string& name, double value, const std::string& unit, std::uint64_t samples) {
    metrics_.push_back(Metric{name, value, unit, samples});
  }
  void print_lines() const {
    for (const auto& m : metrics_) {
      std::printf("{\"metric\": %s, \"value\": %s, \"unit\": %s, \"samples\": %llu}\n",
                  json_str(m.name).c_str(), json_num(m.value).c_str(), json_str(m.unit).c_str(),
                  static_cast<unsigned long long>(m.samples));
    }
  }
  /// The result line's "metrics" object, restricted to `names`.
  template <std::size_t N>
  std::string result_metrics(const char* const (&names)[N]) const {
    std::string out = "{";
    for (std::size_t i = 0; i < N; ++i) {
      const Metric* m = find(names[i]);
      if (m == nullptr) throw std::logic_error(std::string("metric not produced: ") + names[i]);
      if (i != 0) out += ", ";
      out += json_str(m->name) + ": {\"value\": " + json_num(m->value) +
             ", \"unit\": " + json_str(m->unit) + "}";
    }
    return out + "}";
  }

 private:
  const Metric* find(const std::string& name) const {
    for (const auto& m : metrics_) {
      if (m.name == name) return &m;
    }
    return nullptr;
  }
  std::vector<Metric> metrics_;
};

// ---- deployment -------------------------------------------------------------------

struct SetupTimes {
  double ready_s = 0;   ///< start -> every node ready()
  double settle_s = 0;  ///< -> ABD view counters stopped changing
  double seed_s = 0;    ///< -> all keys seeded
  double total_s = 0;
};

class Load;

/// One cluster plus everything that must outlive its callbacks. Members are
/// destroyed in reverse order, so the runtime (declared last) goes first.
struct Deployment {
  const Workload* w = nullptr;
  std::unique_ptr<TraceState> trace = std::make_unique<TraceState>();
  std::unique_ptr<Records> recs = std::make_unique<Records>();
  std::unique_ptr<Load> load;
  std::uint16_t http_port = 0;
  std::unique_ptr<Runtime> rt;
  Cluster* cluster = nullptr;
  std::vector<CatsClient*> clients;

  Machine& machine(int i) const {
    return cluster->machines[static_cast<std::size_t>(i)].definition_as<Machine>();
  }
  ConsistentABD& abd(int i) const {
    return machine(i).node.definition_as<CatsNode>().abd.definition_as<ConsistentABD>();
  }
  ~Deployment();
};

/// The key set is a fixed dataset: key i sits at the same ring position on
/// every seed, so which replica groups hold the hottest Zipf keys does not
/// change between runs. The seed drives the request stream and the values.
RingKey ring_key(std::uint32_t key) {
  Rng r(static_cast<std::uint64_t>(key) ^ 0xC0FFEEULL);
  return r.next();
}

class Load {
 public:
  Load(Deployment& d, std::uint64_t seed)
      : d_(d), w_(*d.w), seed_(seed), codec_(seed, d.w->value_bytes) {
    if (w_.zipf_s > 0) {
      zipf_cdf_.resize(kKeys);
      double sum = 0;
      for (std::uint32_t i = 0; i < kKeys; ++i) {
        sum += 1.0 / std::pow(static_cast<double>(i + 1), w_.zipf_s);
        zipf_cdf_[i] = sum;
      }
      for (auto& c : zipf_cdf_) c /= sum;
    }
  }

  struct Slot {
    Rng rng;
    int node;
  };

  void set_phase(Phase p) { phase_.store(p, std::memory_order_release); }
  Phase phase() const { return phase_.load(std::memory_order_acquire); }
  std::int64_t outstanding() const { return outstanding_.load(std::memory_order_acquire); }

  /// Seeds every key once through a bounded window spread over all nodes.
  void seed_keys() {
    seed_next_.store(0);
    set_phase(Phase::kSeed);
    for (int i = 0; i < kSeedWindow; ++i) seed_step(i % w_.nodes);
    wait_drained(60'000);
  }

  /// Starts `window` closed-loop slots (each reissues from its callback).
  void start_closed(int window, std::uint64_t salt) {
    stop_.store(false);
    for (int i = 0; i < window; ++i) {
      const int node = w_.node0_only ? 0 : i % w_.nodes;
      slots_.push_back(std::make_unique<Slot>(Slot{Rng(seed_ ^ (salt << 32) ^ (i * 7919ULL)), node}));
    }
    for (auto& s : slots_) closed_step(s.get());
  }

  /// Open loop on the calling thread: Poisson arrivals at `rate` until
  /// `until_ns`, round-robin over all nodes; each op's latency counts from
  /// its due time.
  void run_open(double rate, std::int64_t until_ns, Rng& rng, int* rr) {
    std::int64_t due = now_ns();
    while (true) {
      due += static_cast<std::int64_t>(-std::log(1.0 - rng.uniform()) / rate * 1e9);
      if (due >= until_ns) break;
      std::this_thread::sleep_until(std::chrono::steady_clock::time_point(std::chrono::nanoseconds(due)));
      const int node = (*rr)++ % w_.nodes;
      const bool put = rng.uniform() >= w_.get_fraction;
      issue(node, pick_key(rng), put, due);
    }
  }

  void stop() { stop_.store(true, std::memory_order_release); }

  /// Waits for every issued op to answer; false on timeout.
  bool wait_drained(int timeout_ms) {
    const std::int64_t deadline = now_ns() + static_cast<std::int64_t>(timeout_ms) * 1'000'000;
    while (outstanding() > 0 || active_slots_.load() > 0) {
      if (now_ns() > deadline) return false;
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
    return true;
  }

  /// One op through node 0, waited for: the probe phase's 1-in-flight loop.
  void one_op(Rng& rng) {
    issue(0, pick_key(rng), rng.uniform() >= w_.get_fraction, 0);
    wait_drained(30'000);
  }

 private:
  std::uint32_t pick_key(Rng& rng) const {
    if (zipf_cdf_.empty()) return static_cast<std::uint32_t>(rng.next() % kKeys);
    const double u = rng.uniform();
    return static_cast<std::uint32_t>(std::lower_bound(zipf_cdf_.begin(), zipf_cdf_.end(), u) -
                                      zipf_cdf_.begin());
  }

  void seed_step(int node) {
    const std::uint32_t k = seed_next_.fetch_add(1);
    if (k >= kKeys) return;
    active_slots_.fetch_add(1);
    issue(node, k, true, 0, [this, node] {
      seed_step(node);
      active_slots_.fetch_sub(1);
    });
  }

  void closed_step(Slot* s) {
    if (stop_.load(std::memory_order_acquire)) return;
    active_slots_.fetch_add(1);
    const bool put = s->rng.uniform() >= w_.get_fraction;
    issue(s->node, pick_key(s->rng), put, 0, [this, s] {
      closed_step(s);
      active_slots_.fetch_sub(1);
    });
  }

  void issue(int node, std::uint32_t key, bool put, std::int64_t due,
             std::function<void()> then = nullptr) {
    std::uint64_t idx = 0;
    if (!d_.recs->alloc(&idx)) {
      stop();
      if (then) then();
      return;
    }
    OpRec& r = d_.recs->at(idx);
    r.key = key;
    r.is_put = put ? 1 : 0;
    r.phase = phase();
    CatsClient* client = d_.clients[static_cast<std::size_t>(node)];
    const RingKey rk = ring_key(key);
    outstanding_.fetch_add(1, std::memory_order_acq_rel);
    if (put) {
      Value v = codec_.make(key, idx + 1);
      r.issue_ns = now_ns();
      r.due_ns = due != 0 ? due : r.issue_ns;
      client->put(rk, std::move(v), [this, idx, then = std::move(then)](bool ok) {
        OpRec& rec = d_.recs->at(idx);
        rec.ok = ok ? 1 : 0;
        finish(rec, then);
      });
    } else {
      r.issue_ns = now_ns();
      r.due_ns = due != 0 ? due : r.issue_ns;
      client->get(rk, [this, idx, then = std::move(then)](bool ok, bool found, const Value& v) {
        OpRec& rec = d_.recs->at(idx);
        rec.ok = ok ? 1 : 0;
        rec.found = found ? 1 : 0;
        if (ok && found) rec.bytes_ok = codec_.check(v, rec.key, &rec.observed) ? 1 : 0;
        finish(rec, then);
      });
    }
  }

  void finish(OpRec& rec, const std::function<void()>& then) {
    rec.done_ns = now_ns();
    if (then) then();
    outstanding_.fetch_sub(1, std::memory_order_acq_rel);
  }

  Deployment& d_;
  const Workload& w_;
  std::uint64_t seed_;
  ValueCodec codec_;
  std::vector<double> zipf_cdf_;
  std::atomic<Phase> phase_{Phase::kSeed};
  std::atomic<bool> stop_{false};
  std::atomic<std::int64_t> outstanding_{0};
  std::atomic<int> active_slots_{0};
  std::atomic<std::uint32_t> seed_next_{0};
  std::vector<std::unique_ptr<Slot>> slots_;
};

Deployment::~Deployment() {
  if (rt != nullptr) rt->shutdown();
  rt.reset();
}

std::uint64_t view_counter_sum(const Deployment& d) {
  // Polled while the cluster runs, as a settle heuristic only: each field is
  // a word the view manager bumps, and a torn or stale read just delays the
  // settle decision by one poll.
  std::uint64_t sum = 0;
  for (int i = 0; i < d.w->nodes; ++i) {
    const auto& c = d.abd(i).counters();
    sum += c.views_installed + c.reconfigs_decided + c.view_fetches;
  }
  return sum;
}

/// Listen ports for one cluster: ten consecutive ports, spread by pid, kept
/// out of the kernel's ephemeral range so no outgoing connection of this or
/// an earlier cluster can already hold one of them.
std::uint16_t tcp_base_port(int setup_index) {
  int lo = 32768, hi = 60999;
  std::ifstream("/proc/sys/net/ipv4/ip_local_port_range") >> lo >> hi;
  const bool below = lo - 1024 >= 20000;  // room for 400 pid slots under the range
  const int first = below ? 1024 + (lo - 1024 - 20000) : hi + 1;
  if (!below && first + 20000 > 65535) throw std::runtime_error("no free port range for tcp-cluster");
  return static_cast<std::uint16_t>(first + (getpid() % 400) * 50 + setup_index * 10);
}

std::unique_ptr<Deployment> deploy(const Workload& w, std::uint64_t seed, bool traced,
                                   int setup_index, std::int64_t t_begin, SetupTimes* times) {
  auto d = std::make_unique<Deployment>();
  d->w = &w;
  ClusterSpec spec;
  spec.nodes = w.nodes;
  spec.net = w.net;
  spec.params = bench_params(w);
  spec.traced = traced;
  spec.trace = d->trace.get();
  if (w.net == NetKind::kTcp) {
    spec.base_port = tcp_base_port(setup_index);
    spec.http_port = static_cast<std::uint16_t>(spec.base_port + 9);
    d->http_port = spec.http_port;
  }
  kompics::Config cfg;
  if (traced) {
    cfg.set("telemetry.metrics", true);
    cfg.set("telemetry.trace_sampling", 0.01);
  }
  d->rt = Runtime::threaded(std::move(cfg));
  auto main = d->rt->bootstrap<Cluster>(spec);
  d->cluster = &main.definition_as<Cluster>();
  for (int i = 0; i < w.nodes; ++i) {
    d->clients.push_back(&d->machine(i).client.definition_as<CatsClient>());
  }

  const std::int64_t ready_deadline = now_ns() + 30'000'000'000LL;
  for (;;) {
    int ready = 0;
    for (int i = 0; i < w.nodes; ++i) {
      ready += d->machine(i).node.definition_as<CatsNode>().ready() ? 1 : 0;
    }
    if (ready == w.nodes) break;
    if (now_ns() > ready_deadline) throw std::runtime_error("cluster did not become ready");
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  const std::int64_t t_ready = now_ns();

  // Views settle after ready() flips: wait until no node installed, decided
  // or fetched a view for three reconfiguration periods.
  const std::int64_t quiet_ns = 3 * spec.params.view_reconfig_period_ms * 1'000'000LL;
  const std::int64_t settle_deadline = now_ns() + 30'000'000'000LL;
  std::uint64_t last = view_counter_sum(*d);
  std::int64_t last_change = now_ns();
  for (;;) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    const std::uint64_t cur = view_counter_sum(*d);
    if (cur != last) {
      last = cur;
      last_change = now_ns();
    } else if (now_ns() - last_change >= quiet_ns) {
      break;
    }
    if (now_ns() > settle_deadline) throw std::runtime_error("views did not settle");
  }
  const std::int64_t t_settled = last_change;

  d->load = std::make_unique<Load>(*d, seed);
  d->load->seed_keys();
  const std::int64_t t_seeded = now_ns();
  times->ready_s = secs(t_ready - t_begin);
  times->settle_s = secs(t_settled - t_ready);
  times->seed_s = secs(t_seeded - t_settled);
  times->total_s = secs(t_seeded - t_begin);
  return d;
}

// ---- measurement -----------------------------------------------------------------

struct PhaseResult {
  std::int64_t t0 = 0, t1 = 0;
  double cpu_s = 0;
  std::uint64_t attempted = 0, ok = 0, failed = 0, unanswered = 0;
  std::vector<double> get_us, put_us, all_us, lag_ms;
  std::vector<double> scrape_ms;
  std::uint64_t scrape_failures = 0;
  double steal_ticks = 0, host_ticks = 0;  ///< host CPU time over the measured window
  int threads = 0;
  double rss_mib = 0;  ///< peak RSS since the last reset_peak_rss()
};

/// Warm-up then the measured window; returns with every op answered (or the
/// drain deadline passed).
PhaseResult run_load(Deployment& d, std::uint64_t seed, double warmup_s, double measure_s,
                     std::uint64_t salt, const std::function<void()>& at_start = nullptr,
                     const std::function<void()>& at_end = nullptr) {
  const Workload& w = *d.w;
  Load& load = *d.load;
  PhaseResult pr;
  Rng gen(seed ^ 0xABCDEFULL ^ (salt << 40));
  int rr = 0;
  auto drive = [&](std::int64_t until) {
    if (w.window == 0) {
      load.run_open(w.offered_rate, until, gen, &rr);
      return;
    }
    std::int64_t next_scrape = now_ns();
    while (now_ns() < until) {
      if (w.scrape_hz > 0 && load.phase() == Phase::kMeasure && now_ns() >= next_scrape) {
        const double ms = scrape_metrics(d.http_port);
        if (ms < 0) {
          ++pr.scrape_failures;
        } else {
          pr.scrape_ms.push_back(ms);
        }
        next_scrape += static_cast<std::int64_t>(1e9 / w.scrape_hz);
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  };
  prctl(PR_SET_TIMERSLACK, 1UL, 0, 0, 0);
  load.set_phase(Phase::kWarmup);
  const std::uint64_t first = d.recs->size();
  if (w.window > 0) load.start_closed(w.window, salt);
  drive(now_ns() + static_cast<std::int64_t>(warmup_s * 1e9));
  if (at_start) at_start();
  load.set_phase(Phase::kMeasure);
  const double cpu0 = cpu_seconds();
  const auto host0 = host_cpu_ticks();
  pr.t0 = now_ns();
  drive(pr.t0 + static_cast<std::int64_t>(measure_s * 1e9));
  pr.t1 = now_ns();
  pr.cpu_s = cpu_seconds() - cpu0;
  const auto host1 = host_cpu_ticks();
  pr.steal_ticks = host1.first - host0.first;
  pr.host_ticks = host1.second - host0.second;
  pr.threads = thread_count();
  pr.rss_mib = static_cast<double>(proc_status_kib("VmHWM")) / 1024.0;
  if (at_end) at_end();
  load.set_phase(Phase::kWarmup);
  load.stop();
  if (!load.wait_drained(20'000)) std::fprintf(stderr, "catsbench: ops still unanswered after 20 s\n");
  const std::uint64_t last = d.recs->size();
  for (std::uint64_t i = first; i < last; ++i) {
    const OpRec& r = d.recs->at(i);
    if (r.phase != Phase::kMeasure) continue;
    ++pr.attempted;
    if (r.done_ns == 0) {
      ++pr.unanswered;
      continue;
    }
    if (!r.ok) ++pr.failed;
    const double us = static_cast<double>(r.done_ns - r.due_ns) * 1e-3;
    // A failed op misses every latency limit: it stays in the percentiles
    // at the time it took to fail.
    (r.is_put ? pr.put_us : pr.get_us).push_back(us);
    pr.all_us.push_back(us);
    if (r.ok) ++pr.ok;
    if (w.window == 0) pr.lag_ms.push_back(static_cast<double>(r.issue_ns - r.due_ns) * 1e-6);
  }
  return pr;
}

/// The end-to-end metrics over one or more clusters' measured windows, pooled:
/// latency percentiles over every measured op of every cluster, throughput
/// and CPU per op as totals over the total measured time, so a stall or a
/// retried op counts wherever it falls.
std::vector<Metric> end_to_end(const Workload& w, const std::vector<PhaseResult>& prs) {
  std::vector<double> get_us, put_us, threads, lag, scrape;
  std::uint64_t ok = 0, attempted = 0, errors = 0, scrape_failures = 0;
  double measured_s = 0, cpu_s = 0, steal = 0, host = 0;
  for (const auto& pr : prs) {
    get_us.insert(get_us.end(), pr.get_us.begin(), pr.get_us.end());
    put_us.insert(put_us.end(), pr.put_us.begin(), pr.put_us.end());
    threads.push_back(pr.threads);
    lag.insert(lag.end(), pr.lag_ms.begin(), pr.lag_ms.end());
    scrape.insert(scrape.end(), pr.scrape_ms.begin(), pr.scrape_ms.end());
    measured_s += secs(pr.t1 - pr.t0);
    cpu_s += pr.cpu_s;
    steal += pr.steal_ticks;
    host += pr.host_ticks;
    ok += pr.ok;
    attempted += pr.attempted;
    errors += pr.failed + pr.unanswered;
    scrape_failures += pr.scrape_failures;
  }
  const auto n = static_cast<std::uint64_t>(prs.size());
  std::vector<Metric> m = {
      {"ops_per_s", measured_s > 0 ? static_cast<double>(ok) / measured_s : 0.0, "1/s", ok},
      {"get_p50_us", percentile(get_us, 0.50), "us", get_us.size()},
      {"get_p99_us", percentile(get_us, 0.99), "us", get_us.size()},
      {"put_p50_us", percentile(put_us, 0.50), "us", put_us.size()},
      {"put_p99_us", percentile(put_us, 0.99), "us", put_us.size()},
      {"error_rate", attempted == 0 ? 0.0 : static_cast<double>(errors) / static_cast<double>(attempted),
       "ratio", attempted},
      {"cpu_us_per_op", ok == 0 ? 0.0 : cpu_s * 1e6 / static_cast<double>(ok), "us", ok},
      {"threads", percentile(threads, 0.5), "count", n},
      // Only the first cluster runs in a fresh process: later ones inherit
      // the earlier clusters' heap, which adds a varying 10-50% in tcp-cluster.
      {"rss_mib", prs.front().rss_mib, "MiB", 1},
      // Not the program's: the share of the host's CPU time the hypervisor
      // gave to other guests while measuring. Latency tails rise with it.
      {"host.steal_pct", host > 0 ? 100.0 * steal / host : 0.0, "%", n}};
  if (w.window == 0) m.push_back({"gen_lag_p99_ms", percentile(lag, 0.99), "ms", lag.size()});
  if (w.scrape_hz > 0) {
    m.push_back({"scrape_p99_ms", percentile(scrape, 0.99), "ms", scrape.size()});
    m.push_back({"scrape_failures", static_cast<double>(scrape_failures), "count",
                 scrape.size() + scrape_failures});
  }
  return m;
}

void add_end_to_end(Report& rep, const Workload& w, const std::vector<PhaseResult>& prs,
                    const std::string& prefix = "") {
  for (const Metric& m : end_to_end(w, prs)) rep.add(prefix + m.name, m.value, m.unit, m.samples);
}

// ---- per-layer snapshot -----------------------------------------------------------

struct LayerSnap {
  std::map<std::string, std::uint64_t> sched;
  std::uint64_t busy_ns = 0, abd_busy_ns = 0, abd_dispatches = 0, abd_invocations = 0;
  kompics::net::TcpNetwork::Counters tcp;
  double cpu_s = 0;
  long vm_kib = 0;
};

template <class F>
void walk(const kompics::ComponentCorePtr& c, const F& f) {
  f(*c);
  for (const auto& ch : c->children()) walk(ch, f);
}

LayerSnap snapshot(Deployment& d) {
  LayerSnap s;
  for (const auto& [k, v] : d.rt->scheduler().telemetry_counters()) s.sched[k] = v;
  walk(d.rt->root().core_ptr(), [&s](const kompics::ComponentCore& c) {
    const auto* st = c.telemetry_stats();
    if (st == nullptr) return;
    const auto h = st->handler_ns.snapshot();
    s.busy_ns += h.sum_ns;
    if (c.name().find("ConsistentABD") != std::string::npos) {
      s.abd_busy_ns += h.sum_ns;
      s.abd_dispatches += st->dispatches.load(std::memory_order_relaxed);
      s.abd_invocations += st->handler_invocations.load(std::memory_order_relaxed);
    }
  });
  if (d.w->net == NetKind::kTcp) {
    for (int i = 0; i < d.w->nodes; ++i) {
      const auto c = d.machine(i).net.definition_as<kompics::net::TcpNetwork>().counters();
      s.tcp.messages_sent += c.messages_sent;
      s.tcp.bytes_sent += c.bytes_sent;
      s.tcp.send_failures += c.send_failures;
      s.tcp.reconnects += c.reconnects;
    }
  }
  s.cpu_s = cpu_seconds();
  s.vm_kib = proc_status_kib("VmSize");
  return s;
}

struct AbdSums {
  std::uint64_t ops = 0, retries = 0, fast_retries = 0, stale_nacks = 0;
};

AbdSums abd_sums(const Deployment& d) {
  AbdSums a;
  for (int i = 0; i < d.w->nodes; ++i) {
    const auto& c = d.abd(i).counters();
    a.ops += c.puts_ok + c.gets_ok + c.ops_failed;
    a.retries += c.retries;
    a.fast_retries += c.fast_retries;
    a.stale_nacks += c.stale_view_nacks;
  }
  return a;
}

// ---- blocking-path breakdown ------------------------------------------------------

struct PathBreakdown {
  std::uint64_t ops = 0;
  double total_us = 0, hops = 0, hop_us = 0, net_us = 0, queue_us = 0, unattributed_us = 0;
  std::map<std::string, double> codec_us;
};

/// Walks each probe op's spans backwards from its end: the latest hop into
/// the current node before the current time is the step that unblocked it.
/// Hop time splits into the bench network's codec calls, the rest of its
/// send handler, and the remainder (dispatch and queueing between the taps
/// and the network). Time outside the chain's hops is unattributed.
PathBreakdown blocking_path(const std::vector<Span>& spans) {
  std::unordered_map<std::uint64_t, const Span*> ops;
  std::unordered_map<std::uint64_t, std::vector<const Span*>> children;
  for (const auto& s : spans) {
    if (s.parent == 0) {
      ops[s.id] = &s;
    } else {
      children[s.parent].push_back(&s);
    }
  }
  PathBreakdown pb;
  for (const auto& [id, op] : ops) {
    const auto& hops = children[id];
    double hop_ns = 0, net_ns = 0, queue_ns = 0;
    std::map<std::string, double> codec_ns;
    int node = 0;
    std::int64_t t = op->end_ns;
    int chain = 0;
    std::set<const Span*> used;
    for (;;) {
      const Span* best = nullptr;
      for (const Span* h : hops) {
        if (h->to != node || h->end_ns > t || h->start_ns < op->start_ns || used.count(h)) continue;
        if (best == nullptr || h->end_ns > best->end_ns) best = h;
      }
      if (best == nullptr) break;
      used.insert(best);
      ++chain;
      const double hd = static_cast<double>(best->end_ns - best->start_ns);
      hop_ns += hd;
      double send_ns = 0;
      for (const Span* ns : children[best->id]) {
        send_ns += static_cast<double>(ns->end_ns - ns->start_ns);
        double codec_sum = 0;
        for (const Span* c : children[ns->id]) {
          const double cd = static_cast<double>(c->end_ns - c->start_ns);
          codec_ns[c->name] += cd;
          codec_sum += cd;
        }
        net_ns += static_cast<double>(ns->end_ns - ns->start_ns) - codec_sum;
      }
      queue_ns += hd - send_ns;
      node = best->from;
      t = best->start_ns;
    }
    const double total = static_cast<double>(op->end_ns - op->start_ns);
    ++pb.ops;
    pb.total_us += total * 1e-3;
    pb.hops += chain;
    pb.hop_us += hop_ns * 1e-3;
    pb.net_us += net_ns * 1e-3;
    pb.queue_us += queue_ns * 1e-3;
    pb.unattributed_us += (total - hop_ns) * 1e-3;
    for (const auto& [k, v] : codec_ns) pb.codec_us[k] += v * 1e-3;
  }
  if (pb.ops > 0) {
    const double n = static_cast<double>(pb.ops);
    pb.total_us /= n;
    pb.hops /= n;
    pb.hop_us /= n;
    pb.net_us /= n;
    pb.queue_us /= n;
    pb.unattributed_us /= n;
    for (auto& [k, v] : pb.codec_us) v /= n;
  }
  return pb;
}

/// Writes bench spans and the kernel's sampled handler spans as JSON lines.
/// A span whose parent is not in the file (a kernel span whose parent was
/// overwritten in the kernel's span ring, or a late hop that arrived after
/// the snapshot) is left out together with its descendants and counted, so
/// every written span is a root or has a known parent.
std::size_t write_spans(const std::string& path, const std::vector<Span>& spans,
                        const std::vector<kompics::telemetry::SpanRecord>& kernel,
                        std::size_t* dropped) {
  struct Out {
    std::uint64_t id, parent, op;
    std::int64_t start_ns, end_ns;
    std::string name;
    int from, to;
  };
  std::vector<Out> all;
  for (const auto& s : spans) {
    all.push_back(Out{s.id, s.parent, s.op, s.start_ns, s.end_ns, s.name, s.from, s.to});
  }
  constexpr std::uint64_t kKernel = 1ULL << 48;  // kernel ids live above bench ids
  for (const auto& k : kernel) {
    all.push_back(Out{kKernel | k.span_id, k.parent_span == 0 ? 0 : (kKernel | k.parent_span),
                      kKernel | k.trace_id, static_cast<std::int64_t>(k.start_ns),
                      static_cast<std::int64_t>(k.start_ns + k.dur_ns),
                      std::string("kernel.") + kompics::telemetry::span_kind_name(k.kind) + ":" + k.component,
                      -1, -1});
  }
  std::unordered_map<std::uint64_t, const Out*> by_id;
  for (const auto& o : all) by_id[o.id] = &o;
  std::unordered_map<std::uint64_t, bool> rooted;  // memo: ancestry reaches a root
  auto is_rooted = [&](const Out& o) {
    std::vector<std::uint64_t> chain;
    const Out* cur = &o;
    bool ok = true;
    while (cur->parent != 0) {
      auto m = rooted.find(cur->id);
      if (m != rooted.end()) {
        ok = m->second;
        break;
      }
      chain.push_back(cur->id);
      auto it = by_id.find(cur->parent);
      if (it == by_id.end() || chain.size() > all.size()) {
        ok = false;
        break;
      }
      cur = it->second;
    }
    for (std::uint64_t id : chain) rooted[id] = ok;
    return ok;
  };
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write " + path);
  std::size_t written = 0;
  *dropped = 0;
  for (const auto& o : all) {
    if (!is_rooted(o)) {
      ++*dropped;
      continue;
    }
    out << "{\"id\": " << o.id << ", \"parent\": " << o.parent << ", \"op\": " << o.op
        << ", \"name\": " << json_str(o.name) << ", \"start_ns\": " << o.start_ns
        << ", \"end_ns\": " << o.end_ns << ", \"from\": " << o.from << ", \"to\": " << o.to << "}\n";
    ++written;
  }
  return written;
}

// ---- main ----------------------------------------------------------------------

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  int trace = 0;
  bool smoke = false;
  std::string git_rev = "unknown";
  std::string out_dir = ".bench_out";
};

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    auto val = [&]() -> std::string {
      if (i + 1 >= argc) throw std::runtime_error("missing value for " + k);
      return argv[++i];
    };
    if (k == "--workload") a.workload = val();
    else if (k == "--seed") a.seed = std::stoull(val());
    else if (k == "--seconds") a.seconds = std::stod(val());
    else if (k == "--trace") a.trace = std::stoi(val());
    else if (k == "--git-rev") a.git_rev = val();
    else if (k == "--out-dir") a.out_dir = val();
    else if (k == "--smoke") a.smoke = true;
    else throw std::runtime_error("unknown argument " + k);
  }
  if (a.seconds <= 0) throw std::runtime_error("--seconds must be positive");
  if (a.trace != 0 && a.trace != 1) throw std::runtime_error("--trace must be 0 or 1");
  return a;
}

/// Size of one value over its kz-compressed size.
double value_kz_ratio(const Workload& w, std::uint64_t seed) {
  const Value v = ValueCodec(seed, w.value_bytes).make(0, 1);
  kompics::net::Bytes packed;
  return static_cast<double>(v.size()) / static_cast<double>(kompics::net::kz::compress(v, packed));
}

void print_provenance(const Args& a, const Workload& w, unsigned workers) {
  utsname u{};
  uname(&u);
  const auto p = bench_params(w);
  std::printf(
      "{\"provenance\": {\"host\": %s, \"kernel\": %s, \"nproc\": %u, \"workers\": %u, "
      "\"git_rev\": %s, \"build_type\": %s, \"compiler\": %s, \"workload\": %s, \"seed\": %llu, "
      "\"seconds\": %s, \"trace\": %d, \"nodes\": %d, \"replication_degree\": %zu, \"network\": %s, "
      "\"value_bytes\": %zu, \"value_kz_ratio\": %s, \"get_fraction\": %s, \"zipf_s\": %s, \"window\": %d, "
      "\"offered_rate_per_s\": %s, \"scrape_hz\": %s, \"keys\": %u, "
      "\"params_ms\": {\"stabilization\": %lld, \"shuffle\": %lld, \"fd_ping\": %lld, "
      "\"fd_initial_timeout\": %lld, \"op_timeout\": %lld, \"fast_retry_backoff\": %lld, "
      "\"view_reconfig\": %lld, \"keepalive\": %lld, \"bootstrap_eviction\": %lld, "
      "\"bootstrap_refresh\": %lld}, \"op_max_retries\": %d}}\n",
      json_str(u.nodename).c_str(), json_str(std::string(u.sysname) + " " + u.release).c_str(),
      std::thread::hardware_concurrency(), workers, json_str(a.git_rev).c_str(),
      json_str(CATSBENCH_BUILD_TYPE).c_str(), json_str(std::string("g++ ") + __VERSION__).c_str(),
      json_str(w.name).c_str(), static_cast<unsigned long long>(a.seed), json_num(a.seconds).c_str(),
      a.trace, w.nodes, w.degree, json_str(net_name(w.net)).c_str(), w.value_bytes,
      json_num(value_kz_ratio(w, a.seed)).c_str(), json_num(w.get_fraction).c_str(), json_num(w.zipf_s).c_str(), w.window,
      json_num(w.offered_rate).c_str(), json_num(w.scrape_hz).c_str(), kKeys,
      static_cast<long long>(p.stabilization_period_ms), static_cast<long long>(p.shuffle_period_ms),
      static_cast<long long>(p.fd_ping_period_ms), static_cast<long long>(p.fd_initial_timeout_ms),
      static_cast<long long>(p.op_timeout_ms), static_cast<long long>(p.fast_retry_backoff_ms),
      static_cast<long long>(p.view_reconfig_period_ms), static_cast<long long>(p.keepalive_period_ms),
      static_cast<long long>(p.bootstrap_eviction_ms), static_cast<long long>(p.bootstrap_refresh_ms),
      p.op_max_retries);
}

void print_oracle(const char* label, const OracleResult& o) {
  std::printf("{\"oracle\": {\"deployment\": %s, \"ops\": %llu, \"gets_checked\": %llu, \"keys\": %llu, "
              "\"segments\": %llu, \"violations\": %llu, \"inconclusive\": %llu, \"first_violation\": %s}}\n",
              json_str(label).c_str(), static_cast<unsigned long long>(o.ops),
              static_cast<unsigned long long>(o.gets_checked), static_cast<unsigned long long>(o.keys),
              static_cast<unsigned long long>(o.segments), static_cast<unsigned long long>(o.violations),
              static_cast<unsigned long long>(o.inconclusive), json_str(o.first_violation).c_str());
}

int run(const Args& a) {
  const Workload* wp = nullptr;
  for (const auto& w : kWorkloads) {
    if (a.workload == w.name) wp = &w;
  }
  if (wp == nullptr) throw std::runtime_error("unknown workload '" + a.workload + "'");
  const Workload& w = *wp;
  const unsigned workers = std::max(1u, std::thread::hardware_concurrency());
  print_provenance(a, w, workers);
  const double warmup_s = a.smoke ? 0.3 : 1.0;
  Report rep;
  bool correct = true;
  std::uint64_t attempted = 0, failed = 0;

  auto check = [&](Deployment& d, const char* label) {
    d.load->stop();
    d.load->wait_drained(20'000);
    d.rt->shutdown();  // no callback may touch the records past this point
    const OracleResult o = check_history(*d.recs);
    print_oracle(label, o);
    // A history piece the search could not finish is unchecked, not correct.
    if (o.violations != 0 || o.inconclusive != 0) correct = false;
  };

  if (a.trace == 0) {
    // Five clusters, set up one after another: each gives a set-up time and
    // a fifth of the measured seconds. Throughput differs from one set-up to
    // the next about as much as between runs, so several set-ups per run
    // steady the figures.
    const int setups = a.smoke ? 1 : 5;
    std::vector<double> total, ready, settle, seed_s;
    std::vector<PhaseResult> prs;
    for (int s = 0; s < setups; ++s) {
      SetupTimes t;
      const std::int64_t t_begin = s == 0 ? g_process_start_ns : now_ns();
      malloc_trim(0);  // start each cluster as close to a fresh process as allocation allows
      auto d = deploy(w, a.seed, false, s, t_begin, &t);
      reset_peak_rss();  // rss_mib: the peak while serving, not the seeding burst
      total.push_back(t.total_s);
      ready.push_back(t.ready_s);
      settle.push_back(t.settle_s);
      seed_s.push_back(t.seed_s);
      prs.push_back(run_load(*d, a.seed, warmup_s, a.seconds / setups, static_cast<std::uint64_t>(s + 1)));
      attempted += prs.back().attempted;
      failed += prs.back().failed + prs.back().unanswered;
      check(*d, ("cluster " + std::to_string(s + 1)).c_str());
    }
    add_end_to_end(rep, w, prs);
    rep.add("setup_s", percentile(total, 0.5), "s", total.size());
    rep.add("setup.ready_s", percentile(ready, 0.5), "s", ready.size());
    rep.add("setup.settle_s", percentile(settle, 0.5), "s", settle.size());
    rep.add("setup.seed_s", percentile(seed_s, 0.5), "s", seed_s.size());
    rep.print_lines();
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": %s}\n",
                correct ? "true" : "false", static_cast<unsigned long long>(attempted),
                static_cast<unsigned long long>(failed), rep.result_metrics(kEndToEnd).c_str());
    return correct ? 0 : 1;
  }

  // ---- traced run: untraced half, then traced half on a fresh cluster ----
  const double half = a.seconds / 2;
  double untraced_p50 = 0;
  {
    SetupTimes t;
    auto d = deploy(w, a.seed, false, 0, g_process_start_ns, &t);
    const PhaseResult pr = run_load(*d, a.seed, warmup_s, half, 1);
    untraced_p50 = percentile(pr.all_us, 0.5);
    add_end_to_end(rep, w, {pr}, "untraced.");
    attempted += pr.attempted;
    failed += pr.failed + pr.unanswered;
    check(*d, "untraced");
  }
  SetupTimes t;
  auto d = deploy(w, a.seed, true, 1, now_ns(), &t);
  TraceState& ts = *d->trace;
  ts.hops_on.store(true);
  std::vector<Tap*> taps;
  for (int i = 0; i < w.nodes; ++i) taps.push_back(&d->machine(i).tap.definition_as<Tap>());
  TimerProbe& probe = d->machine(0).probe.definition_as<TimerProbe>();
  auto reset_instruments = [&] {
    for (Tap* tap : taps) tap->take();
    if (w.net == NetKind::kLoopCodec) {
      for (int i = 0; i < w.nodes; ++i) d->machine(i).net.definition_as<BenchNet>().take_stats();
    }
  };
  LayerSnap s0, s1;
  AbdSums abd0;
  std::size_t scrapes = 0;
  const PhaseResult pr = run_load(
      *d, a.seed, warmup_s, half, 2,
      [&] {
        reset_instruments();
        probe.take_lateness_ns();
        probe.set_recording(true);
        abd0 = abd_sums(*d);
        s0 = snapshot(*d);
      },
      [&] {
        s1 = snapshot(*d);
        probe.set_recording(false);
      });
  scrapes = pr.scrape_ms.size() + pr.scrape_failures;
  add_end_to_end(rep, w, {pr}, "traced.");
  attempted += pr.attempted;
  failed += pr.failed + pr.unanswered;
  const AbdSums abd1 = abd_sums(*d);

  // Collect the load phase's instruments.
  std::vector<double> hop_us;
  std::uint64_t serving = 0, maint = 0;
  CodecStats codec;
  for (Tap* tap : taps) {
    Tap::Counts c = tap->take();
    serving += c.serving_sent;
    maint += c.maint_sent;
    for (std::uint32_t ns : c.hop_ns) hop_us.push_back(ns * 1e-3);
  }
  // Codec figures come from the bench network's calls, so they exist only
  // where it carries the messages (e1-latency); elsewhere they are 0 with 0
  // samples.
  if (w.net == NetKind::kLoopCodec) {
    for (int i = 0; i < w.nodes; ++i) codec.add(d->machine(i).net.definition_as<BenchNet>().take_stats());
  }
  std::vector<double> late_us;
  for (std::uint32_t ns : probe.take_lateness_ns()) late_us.push_back(ns * 1e-3);

  // Probe phase: one op in flight through node 0, every span recorded.
  const int probe_ops = a.smoke ? 20 : 200;
  ts.content_keys.store(w.net == NetKind::kTcp);
  ts.spans_on.store(true);
  d->load->set_phase(Phase::kProbe);
  Rng prng(a.seed ^ 0x5151ULL);
  for (int i = 0; i < probe_ops; ++i) {
    const std::uint64_t op_id = ts.new_span_id();
    ts.current_op.store(op_id);
    const std::uint64_t before = d->recs->size();
    d->load->one_op(prng);
    if (d->recs->size() == before) break;
    const OpRec& r = d->recs->at(before);
    std::vector<Span> one{Span{op_id, 0, op_id, r.issue_ns, r.done_ns, r.is_put ? "op.put" : "op.get", -1, 0}};
    ts.add_spans(one);
  }
  ts.spans_on.store(false);
  // Let the last op's trailing acks land so their hops close.
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  ts.hops_on.store(false);
  std::vector<double> probe_hop_us;
  for (Tap* tap : taps) {
    for (std::uint32_t ns : tap->take().hop_ns) probe_hop_us.push_back(ns * 1e-3);
  }
  // Over TCP the load phase cannot pair hops (decoded copies have new
  // addresses); the probe phase keys them by content instead.
  if (w.net == NetKind::kTcp) hop_us = probe_hop_us;

  const auto kernel_spans = d->rt->telemetry().trace_snapshot();
  const std::vector<Span> spans = ts.spans();
  check(*d, "traced");

  const double dur = secs(pr.t1 - pr.t0);
  const double ops = std::max<double>(1.0, static_cast<double>(pr.ok));
  auto delta = [&](const char* k) {
    return static_cast<double>(s1.sched[k] - s0.sched[k]);
  };
  rep.add("sched.executions_per_op", delta("executed") / ops, "count", pr.ok);
  rep.add("sched.steals_per_op", delta("steals") / ops, "count", pr.ok);
  rep.add("sched.parks_per_op", delta("parks") / ops, "count", pr.ok);
  rep.add("sched.wakes_per_op", delta("wakes") / ops, "count", pr.ok);
  const double busy_us = static_cast<double>(s1.busy_ns - s0.busy_ns) * 1e-3;
  rep.add("sched.busy_us_per_op", busy_us / ops, "us", pr.ok);
  rep.add("sched.spin_us_per_op", ((s1.cpu_s - s0.cpu_s) * 1e6 - busy_us) / ops, "us", pr.ok);
  const double abd_disp = static_cast<double>(s1.abd_dispatches - s0.abd_dispatches);
  rep.add("abd.handlers_per_dispatch",
          abd_disp == 0 ? 0.0 : static_cast<double>(s1.abd_invocations - s0.abd_invocations) / abd_disp,
          "count", static_cast<std::uint64_t>(abd_disp));
  rep.add("abd.busy_us_per_op", static_cast<double>(s1.abd_busy_ns - s0.abd_busy_ns) * 1e-3 / ops, "us", pr.ok);
  const double msgs = std::max<double>(1.0, static_cast<double>(codec.messages));
  rep.add("codec.serialize_us", static_cast<double>(codec.serialize_ns) * 1e-3 / msgs, "us", codec.messages);
  rep.add("codec.compress_us", static_cast<double>(codec.compress_ns) * 1e-3 / msgs, "us", codec.messages);
  rep.add("codec.decompress_us", static_cast<double>(codec.decompress_ns) * 1e-3 / msgs, "us", codec.messages);
  rep.add("codec.deserialize_us", static_cast<double>(codec.deserialize_ns) * 1e-3 / msgs, "us", codec.messages);
  rep.add("codec.msgs_per_op", static_cast<double>(serving + maint) / ops, "count", serving + maint);
  rep.add("codec.wire_bytes_per_op", static_cast<double>(codec.wire_bytes) / ops, "B", codec.messages);
  rep.add("net.hop_p50_us", percentile(hop_us, 0.5), "us", hop_us.size());
  rep.add("net.hop_p99_us", percentile(hop_us, 0.99), "us", hop_us.size());
  rep.add("tcp.msgs_sent_per_op", static_cast<double>(s1.tcp.messages_sent - s0.tcp.messages_sent) / ops, "count", pr.ok);
  rep.add("tcp.bytes_sent_per_op", static_cast<double>(s1.tcp.bytes_sent - s0.tcp.bytes_sent) / ops, "B", pr.ok);
  rep.add("tcp.send_failures", static_cast<double>(s1.tcp.send_failures - s0.tcp.send_failures), "count", 1);
  rep.add("tcp.reconnects", static_cast<double>(s1.tcp.reconnects - s0.tcp.reconnects), "count", 1);
  const double abd_ops = static_cast<double>(abd1.ops - abd0.ops);
  const double retries = static_cast<double>(abd1.retries - abd0.retries);
  rep.add("abd.retries_per_op", retries / std::max(1.0, abd_ops), "count", static_cast<std::uint64_t>(abd_ops));
  rep.add("abd.fast_retries_per_op", static_cast<double>(abd1.fast_retries - abd0.fast_retries) / std::max(1.0, abd_ops),
          "count", static_cast<std::uint64_t>(abd_ops));
  rep.add("abd.stale_view_nacks", static_cast<double>(abd1.stale_nacks - abd0.stale_nacks), "count", 1);
  rep.add("abd.useful_ratio", abd_ops / std::max(1.0, abd_ops + retries), "ratio", static_cast<std::uint64_t>(abd_ops));
  rep.add("maint.msgs_per_s", static_cast<double>(maint) / dur, "1/s", maint);
  rep.add("timer.lateness_p50_us", percentile(late_us, 0.5), "us", late_us.size());
  rep.add("timer.lateness_p99_us", percentile(late_us, 0.99), "us", late_us.size());
  rep.add("web.vm_kib_per_scrape", scrapes == 0 ? 0.0 : static_cast<double>(s1.vm_kib - s0.vm_kib) / static_cast<double>(scrapes),
          "KiB", scrapes);

  const PathBreakdown pb = blocking_path(spans);
  rep.add("path.total_us", pb.total_us, "us", pb.ops);
  rep.add("path.hops", pb.hops, "count", pb.ops);
  rep.add("path.hop_us", pb.hop_us, "us", pb.ops);
  rep.add("path.hop_queue_us", pb.queue_us, "us", pb.ops);
  rep.add("path.net_send_us", pb.net_us, "us", pb.ops);
  for (const char* c : {"codec.serialize", "codec.compress", "codec.decompress", "codec.deserialize"}) {
    auto it = pb.codec_us.find(c);
    rep.add(std::string("path.") + c + "_us", it == pb.codec_us.end() ? 0.0 : it->second, "us", pb.ops);
  }
  rep.add("unattributed_us", pb.unattributed_us, "us", pb.ops);
  const double traced_p50 = percentile(pr.all_us, 0.5);
  rep.add("trace.overhead_pct", untraced_p50 > 0 ? (traced_p50 / untraced_p50 - 1.0) * 100.0 : 0.0, "%",
          pr.all_us.size());

  std::string cmd = "mkdir -p '" + a.out_dir + "'";
  if (std::system(cmd.c_str()) != 0) throw std::runtime_error("cannot create " + a.out_dir);
  const std::string path = a.out_dir + "/spans-" + w.name + "-seed" + std::to_string(a.seed) + ".jsonl";
  std::size_t dropped = 0;
  const std::size_t written = write_spans(path, spans, kernel_spans, &dropped);
  std::printf("{\"spans\": {\"file\": %s, \"written\": %zu, \"bench\": %zu, \"kernel\": %zu, \"dropped\": %zu}}\n",
              json_str(path).c_str(), written, spans.size(), kernel_spans.size(), dropped);
  rep.print_lines();
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": %s}\n",
              correct ? "true" : "false", static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed), rep.result_metrics(kPerLayer).c_str());
  return correct ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(parse_args(argc, argv));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "catsbench: %s\n", e.what());
    return 2;
  }
}
