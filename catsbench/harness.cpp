#include "harness.hpp"

#include <chrono>
#include <typeindex>

#include "cats/bootstrap.hpp"
#include "cats/messages.hpp"
#include "net/compression.hpp"
#include "net/loopback.hpp"
#include "net/serialization.hpp"
#include "net/tcp_network.hpp"
#include "timing/thread_timer.hpp"
#include "web/cats_web.hpp"
#include "web/http_server.hpp"

namespace catsbench {

using namespace kompics;
using namespace kompics::cats;
namespace knet = kompics::net;

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void CodecStats::add(const CodecStats& o) {
  messages += o.messages;
  wire_bytes += o.wire_bytes;
  serialize_ns += o.serialize_ns;
  compress_ns += o.compress_ns;
  decompress_ns += o.decompress_ns;
  deserialize_ns += o.deserialize_ns;
}

MessagePtr codec_roundtrip(const Message& m, bool compress, CodecStats& stats,
                           std::vector<Span>* spans) {
  auto& registry = knet::SerializationRegistry::instance();
  const std::int64_t t0 = now_ns();
  knet::Bytes wire;
  registry.serialize(m, wire);
  const std::int64_t t1 = now_ns();
  std::int64_t t2 = t1;
  std::int64_t t3 = t1;
  if (compress) {
    knet::Bytes packed;
    knet::kz::compress(wire, packed);
    t2 = now_ns();
    stats.wire_bytes += packed.size();
    wire = knet::kz::decompress(packed);
    t3 = now_ns();
  } else {
    stats.wire_bytes += wire.size();
  }
  MessagePtr out = registry.deserialize(wire);
  const std::int64_t t4 = now_ns();
  ++stats.messages;
  stats.serialize_ns += t1 - t0;
  stats.compress_ns += t2 - t1;
  stats.decompress_ns += t3 - t2;
  stats.deserialize_ns += t4 - t3;
  if (spans != nullptr) {
    spans->push_back(Span{0, 0, 0, t0, t1, "codec.serialize"});
    if (compress) {
      spans->push_back(Span{0, 0, 0, t1, t2, "codec.compress"});
      spans->push_back(Span{0, 0, 0, t2, t3, "codec.decompress"});
    }
    spans->push_back(Span{0, 0, 0, t3, t4, "codec.deserialize"});
  }
  return out;
}

// ---- TraceState ------------------------------------------------------------

void TraceState::put_stamp(std::uint64_t key, const Stamp& s) {
  std::lock_guard<std::mutex> g(stamp_mu_);
  stamps_[key] = s;
}

bool TraceState::take_stamp(std::uint64_t key, Stamp* out) {
  std::lock_guard<std::mutex> g(stamp_mu_);
  auto it = stamps_.find(key);
  if (it == stamps_.end()) return false;
  *out = it->second;
  stamps_.erase(it);
  return true;
}

bool TraceState::rekey(std::uint64_t from, std::uint64_t to, Stamp* out) {
  std::lock_guard<std::mutex> g(stamp_mu_);
  auto it = stamps_.find(from);
  if (it == stamps_.end()) return false;
  *out = it->second;
  stamps_.erase(it);
  stamps_[to] = *out;
  return true;
}

void TraceState::add_spans(std::vector<Span>& spans) {
  std::lock_guard<std::mutex> g(span_mu_);
  spans_.insert(spans_.end(), spans.begin(), spans.end());
}

std::vector<Span> TraceState::spans() const {
  std::lock_guard<std::mutex> g(span_mu_);
  return spans_;
}

bool is_serving(const Message& m) {
  static const std::type_index kServing[] = {
      typeid(AbdReadMsg),  typeid(AbdReadAckMsg),  typeid(AbdWriteMsg),    typeid(AbdWriteAckMsg),
      typeid(AbdNackMsg), typeid(RouteLookupMsg), typeid(LookupResultMsg)};
  const std::type_index t(typeid(m));
  for (const auto& s : kServing) {
    if (s == t) return true;
  }
  return false;
}

// ---- Tap -------------------------------------------------------------------

Tap::Tap(Config cfg) : cfg_(cfg) {
  subscribe<Message>(up_, [this](const Message& m) {
    on_send(m);
    trigger(current_event_as<Message>(), down_);
  });
  subscribe<Message>(down_, [this](const Message& m) {
    on_recv(m);
    trigger(current_event_as<Message>(), up_);
  });
}

std::uint64_t Tap::key_of(const Message& m) const {
  if (!cfg_.trace->content_keys.load(std::memory_order_relaxed)) {
    return reinterpret_cast<std::uintptr_t>(&m);
  }
  // Over TCP the receiver holds a decoded copy: key by the encoded bytes
  // (FNV-1a), which both ends reproduce exactly.
  knet::Bytes wire;
  knet::SerializationRegistry::instance().serialize(m, wire);
  std::uint64_t h = 1469598103934665603ULL;
  for (std::uint8_t b : wire) {
    h ^= b;
    h *= 1099511628211ULL;
  }
  return h;
}

void Tap::on_send(const Message& m) {
  const bool serving = is_serving(m);
  TraceState& ts = *cfg_.trace;
  if (serving && ts.hops_on.load(std::memory_order_relaxed)) {
    const std::uint64_t key = key_of(m);
    TraceState::Stamp s;
    s.from = cfg_.node;
    if (ts.spans_on.load(std::memory_order_relaxed)) {
      s.span = ts.new_span_id();
      s.op = ts.current_op.load(std::memory_order_relaxed);
    }
    s.sent_ns = now_ns();
    ts.put_stamp(key, s);
  }
  std::lock_guard<std::mutex> g(mu_);
  ++(serving ? counts_.serving_sent : counts_.maint_sent);
}

void Tap::on_recv(const Message& m) {
  TraceState& ts = *cfg_.trace;
  if (!ts.hops_on.load(std::memory_order_relaxed) || !is_serving(m)) return;
  const std::int64_t arrived = now_ns();
  TraceState::Stamp s;
  if (!ts.take_stamp(key_of(m), &s)) return;
  if (s.span != 0) {
    std::vector<Span> one{Span{s.span, s.op, s.op, s.sent_ns, arrived, "hop", s.from, cfg_.node}};
    ts.add_spans(one);
  }
  std::lock_guard<std::mutex> g(mu_);
  counts_.hop_ns.push_back(static_cast<std::uint32_t>(std::min<std::int64_t>(arrived - s.sent_ns, 0xFFFFFFFF)));
}

Tap::Counts Tap::take() {
  std::lock_guard<std::mutex> g(mu_);
  Counts out = std::move(counts_);
  counts_ = Counts{};
  return out;
}

// ---- BenchHub / BenchNet -----------------------------------------------------

void BenchHub::attach(const Address& a, BenchNet* n) {
  std::lock_guard<std::mutex> g(mu_);
  nodes_[a] = n;
}

void BenchHub::detach(const Address& a) {
  std::lock_guard<std::mutex> g(mu_);
  nodes_.erase(a);
}

BenchNet* BenchHub::route(const Address& a) const {
  std::lock_guard<std::mutex> g(mu_);
  auto it = nodes_.find(a);
  return it == nodes_.end() ? nullptr : it->second;
}

BenchNet::BenchNet() {
  subscribe<Init>(control(), [this](const Init& init) {
    self_ = init.self;
    hub_ = init.hub;
    node_ = init.node;
    trace_ = init.trace;
    hub_->attach(self_, this);
  });
  subscribe<Stop>(control(), [this](const Stop&) {
    if (hub_ != nullptr) hub_->detach(self_);
  });
  subscribe<Message>(network_, [this](const Message& m) { send(m); });
}

BenchNet::~BenchNet() {
  if (hub_ != nullptr) hub_->detach(self_);
}

void BenchNet::send(const Message& m) {
  BenchNet* dest = hub_->route(m.destination());
  if (dest == nullptr) return;  // same as LoopbackNetwork: no route, message dropped
  const std::int64_t t0 = now_ns();
  const bool spans = trace_->spans_on.load(std::memory_order_relaxed);
  std::vector<Span> recorded;
  CodecStats stats;
  MessagePtr copy = codec_roundtrip(m, /*compress=*/true, stats, spans ? &recorded : nullptr);
  TraceState::Stamp stamp;
  const bool stamped = trace_->rekey(reinterpret_cast<std::uintptr_t>(&m),
                                     reinterpret_cast<std::uintptr_t>(copy.get()), &stamp);
  const std::int64_t t1 = now_ns();
  if (spans && stamped && stamp.span != 0) {
    const std::uint64_t send_id = trace_->new_span_id();
    for (Span& s : recorded) {
      s.id = trace_->new_span_id();
      s.parent = send_id;
      s.op = stamp.op;
      s.to = node_;
    }
    recorded.push_back(Span{send_id, stamp.span, stamp.op, t0, t1, "net.send", -1, node_});
    trace_->add_spans(recorded);
  }
  {
    std::lock_guard<std::mutex> g(mu_);
    stats_.add(stats);
  }
  dest->deliver(copy);
}

CodecStats BenchNet::take_stats() {
  std::lock_guard<std::mutex> g(mu_);
  CodecStats out = stats_;
  stats_ = CodecStats{};
  return out;
}

// ---- TimerProbe ----------------------------------------------------------------

namespace {
constexpr std::int64_t kProbeDelayMs = 5;

struct ProbeTick : timing::Timeout {
  using Timeout::Timeout;
};
}  // namespace

TimerProbe::TimerProbe() {
  subscribe<Start>(control(), [this](const Start&) { arm(); });
  subscribe<ProbeTick>(timer_, [this](const ProbeTick& t) {
    if (t.id() != armed_) return;
    const std::int64_t late = now_ns() - due_ns_;
    if (recording_.load(std::memory_order_relaxed)) {
      std::lock_guard<std::mutex> g(mu_);
      lateness_ns_.push_back(static_cast<std::uint32_t>(std::clamp<std::int64_t>(late, 0, 0xFFFFFFFF)));
    }
    arm();
  });
}

void TimerProbe::arm() {
  auto st = timing::schedule<ProbeTick>(kProbeDelayMs);
  armed_ = st->timeout_id();
  // ThreadTimer keeps whole-millisecond deadlines on the same steady clock:
  // the earliest it may fire is the next millisecond boundary past the delay.
  due_ns_ = (now_ns() / 1'000'000 + kProbeDelayMs) * 1'000'000;
  trigger(st, timer_);
}

std::vector<std::uint32_t> TimerProbe::take_lateness_ns() {
  std::lock_guard<std::mutex> g(mu_);
  return std::move(lateness_ns_);
}

// ---- Machine / Cluster ----------------------------------------------------------

namespace {

Address node_address(const ClusterSpec& spec, int index) {
  if (spec.net == NetKind::kTcp) {
    return Address::loopback(static_cast<std::uint16_t>(spec.base_port + 1 + index));
  }
  return Address::node(10 + static_cast<std::uint32_t>(index));
}

}  // namespace

Machine::Machine(const ClusterSpec& spec, int index, NodeRef self, Address boot,
                 std::shared_ptr<knet::LoopbackHub> hub, std::shared_ptr<BenchHub> bench_hub) {
  const bool bench_net = spec.traced && spec.net == NetKind::kLoopCodec;
  if (spec.net == NetKind::kTcp) {
    net = create<knet::TcpNetwork>();
    knet::TcpNetwork::Options opts;
    opts.compress = true;
    opts.compress_threshold = 256;
    trigger(make_event<knet::TcpNetwork::Init>(self.addr, opts), net.control());
  } else if (bench_net) {
    net = create<BenchNet>();
    trigger(make_event<BenchNet::Init>(self.addr, bench_hub, index, spec.trace), net.control());
  } else {
    net = create<knet::LoopbackNetwork>();
    const bool codec = spec.net == NetKind::kLoopCodec;
    trigger(make_event<knet::LoopbackNetwork::Init>(self.addr, hub, codec, codec), net.control());
  }
  timer = create<timing::ThreadTimer>();
  node = create<CatsNode>(self, boot, Address{}, spec.params);
  client = create<CatsClient>();
  if (spec.traced) {
    Tap::Config cfg;
    cfg.node = index;
    cfg.trace = spec.trace;
    tap = create<Tap>(cfg);
    connect(node.required<knet::Network>(), tap.provided<knet::Network>());
    connect(tap.required<knet::Network>(), net.provided<knet::Network>());
    if (index == 0) {
      probe = create<TimerProbe>();
      connect(probe.required<timing::Timer>(), timer.provided<timing::Timer>());
    }
  } else {
    connect(node.required<knet::Network>(), net.provided<knet::Network>());
  }
  connect(node.required<timing::Timer>(), timer.provided<timing::Timer>());
  connect(node.provided<PutGet>(), client.required<PutGet>());
}

Cluster::Cluster(const ClusterSpec& spec) {
  auto hub = std::make_shared<knet::LoopbackHub>();
  auto bench_hub = std::make_shared<BenchHub>();
  const Address boot_addr =
      spec.net == NetKind::kTcp ? Address::loopback(spec.base_port) : Address::node(1);
  if (spec.net == NetKind::kTcp) {
    boot_net = create<knet::TcpNetwork>();
    trigger(make_event<knet::TcpNetwork::Init>(boot_addr), boot_net.control());
  } else if (spec.traced && spec.net == NetKind::kLoopCodec) {
    boot_net = create<BenchNet>();
    trigger(make_event<BenchNet::Init>(boot_addr, bench_hub, -1, spec.trace), boot_net.control());
  } else {
    boot_net = create<knet::LoopbackNetwork>();
    const bool codec = spec.net == NetKind::kLoopCodec;
    trigger(make_event<knet::LoopbackNetwork::Init>(boot_addr, hub, codec, codec),
            boot_net.control());
  }
  boot_timer = create<timing::ThreadTimer>();
  boot_server = create<BootstrapServer>();
  trigger(make_event<BootstrapServer::Init>(boot_addr, spec.params), boot_server.control());
  connect(boot_server.required<knet::Network>(), boot_net.provided<knet::Network>());
  connect(boot_server.required<timing::Timer>(), boot_timer.provided<timing::Timer>());
  for (int i = 0; i < spec.nodes; ++i) {
    const NodeRef self{static_cast<RingKey>(i) * (~0ull / static_cast<RingKey>(spec.nodes)),
                       node_address(spec, i)};
    machines.push_back(create<Machine>(spec, i, self, boot_addr, hub, bench_hub));
  }
  if (spec.http_port != 0) {
    // Node 0's web front-end, wired as in a deployment: /metrics is kernel
    // telemetry plus the app's CATS samples.
    auto& m0 = machines[0].definition_as<Machine>();
    auto& node0 = m0.node.definition_as<CatsNode>();
    web_app = create<web::CatsWebApp>();
    trigger(make_event<web::CatsWebApp::Init>(node0.self(), 500), web_app.control());
    connect(web_app.required<timing::Timer>(), m0.timer.provided<timing::Timer>());
    for (const Component& c : {node0.fd, node0.cyclon, node0.ring, node0.router, node0.abd}) {
      connect(c.provided<Status>(), web_app.required<Status>());
    }
    http = create<web::HttpServer>();
    trigger(make_event<web::HttpServer::Init>(Address::loopback(spec.http_port)), http.control());
    connect(web_app.provided<web::Web>(), http.required<web::Web>());
  }
}

}  // namespace catsbench
