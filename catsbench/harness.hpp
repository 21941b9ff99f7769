#pragma once

// Cluster assembly and the bench-side instruments of the CATS serving
// benchmark. Everything here sits outside the program: it builds CATS nodes
// from the public component API and times calls into public functions.
//
//   Tap        sits between a CatsNode and its network; counts messages by
//              kind and stamps serving messages so the receiving tap can time
//              the hop.
//   BenchNet   the traced stand-in for LoopbackNetwork's codec path: the same
//              serialize -> kz compress -> decompress -> deserialize calls,
//              each timed.
//   TimerProbe arms one-shot timeouts on a node's Timer port and records how
//              late they fire.

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "cats/cats_client.hpp"
#include "cats/cats_node.hpp"
#include "cats/params.hpp"
#include "kompics/component.hpp"
#include "kompics/kompics.hpp"
#include "net/address.hpp"
#include "net/buffer.hpp"
#include "net/loopback.hpp"
#include "net/network_port.hpp"
#include "timing/timer_port.hpp"

namespace catsbench {

using kompics::Component;
using kompics::ComponentDefinition;
using kompics::net::Address;
using kompics::net::Message;
using kompics::net::MessagePtr;

std::int64_t now_ns();

enum class NetKind { kLoopFast, kLoopCodec, kTcp };

// ---- spans -----------------------------------------------------------------

/// One bench-side span. `op` is the id every span of one client operation
/// shares; `parent` is 0 for a root.
struct Span {
  std::uint64_t id = 0;
  std::uint64_t parent = 0;
  std::uint64_t op = 0;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  const char* name = "";
  int from = -1;  ///< hops: sending node
  int to = -1;    ///< hops: receiving node; other spans: node they ran on
};

/// Per-message codec timings, accumulated by whoever makes the calls.
struct CodecStats {
  std::uint64_t messages = 0;
  std::uint64_t wire_bytes = 0;
  std::int64_t serialize_ns = 0;
  std::int64_t compress_ns = 0;
  std::int64_t decompress_ns = 0;
  std::int64_t deserialize_ns = 0;
  void add(const CodecStats& o);
};

/// Runs the wire path on `m` (serialize, optional kz compress + decompress,
/// deserialize), timing each call into `stats`. When `spans` is set it also
/// appends one span per call. Returns the decoded copy.
MessagePtr codec_roundtrip(const Message& m, bool compress, CodecStats& stats,
                           std::vector<Span>* spans);

/// Shared state of the traced run.
class TraceState {
 public:
  struct Stamp {
    std::int64_t sent_ns = 0;
    int from = -1;
    std::uint64_t span = 0;  ///< hop span id (0 when spans are off)
    std::uint64_t op = 0;
  };

  std::atomic<bool> hops_on{false};      ///< stamp and time serving hops
  std::atomic<bool> spans_on{false};     ///< record spans (one op in flight)
  std::atomic<bool> content_keys{false}; ///< key hops by message bytes (TCP)
  std::atomic<std::uint64_t> current_op{0};

  std::uint64_t new_span_id() { return next_span_.fetch_add(1, std::memory_order_relaxed); }

  void put_stamp(std::uint64_t key, const Stamp& s);
  bool take_stamp(std::uint64_t key, Stamp* out);
  /// The decoded copy of a message replaces the original as the hop's key.
  bool rekey(std::uint64_t from, std::uint64_t to, Stamp* out);

  void add_spans(std::vector<Span>& spans);
  std::vector<Span> spans() const;

 private:
  std::atomic<std::uint64_t> next_span_{1};
  std::mutex stamp_mu_;
  std::unordered_map<std::uint64_t, Stamp> stamps_;
  mutable std::mutex span_mu_;
  std::vector<Span> spans_;
};

/// True for the messages of a client operation (ABD phases and router
/// lookups); everything else is ring/cyclon/fd/bootstrap/view maintenance.
bool is_serving(const Message& m);

// ---- components -------------------------------------------------------------

class Tap : public ComponentDefinition {
 public:
  struct Config {
    int node = 0;
    TraceState* trace = nullptr;
  };
  explicit Tap(Config cfg);

  struct Counts {
    std::uint64_t serving_sent = 0;
    std::uint64_t maint_sent = 0;
    std::vector<std::uint32_t> hop_ns;
  };
  /// Moves the counters out (call with the load stopped).
  Counts take();

 private:
  std::uint64_t key_of(const Message& m) const;
  void on_send(const Message& m);
  void on_recv(const Message& m);

  kompics::Negative<kompics::net::Network> up_ = provide<kompics::net::Network>();
  kompics::Positive<kompics::net::Network> down_ = require<kompics::net::Network>();
  Config cfg_;
  std::mutex mu_;
  Counts counts_;
};

class BenchNet;

class BenchHub {
 public:
  void attach(const Address& a, BenchNet* n);
  void detach(const Address& a);
  BenchNet* route(const Address& a) const;

 private:
  mutable std::mutex mu_;
  std::unordered_map<Address, BenchNet*> nodes_;
};

class BenchNet : public ComponentDefinition {
 public:
  struct Init : kompics::Init {
    Init(Address self, std::shared_ptr<BenchHub> hub, int node, TraceState* trace)
        : self(self), hub(std::move(hub)), node(node), trace(trace) {}
    Address self;
    std::shared_ptr<BenchHub> hub;
    int node;
    TraceState* trace;
  };
  BenchNet();
  ~BenchNet() override;

  void deliver(const MessagePtr& m) { trigger(m, network_); }
  CodecStats take_stats();

 private:
  void send(const Message& m);

  kompics::Negative<kompics::net::Network> network_ = provide<kompics::net::Network>();
  Address self_;
  std::shared_ptr<BenchHub> hub_;
  int node_ = 0;
  TraceState* trace_ = nullptr;
  std::mutex mu_;
  CodecStats stats_;
};

class TimerProbe : public ComponentDefinition {
 public:
  TimerProbe();
  void set_recording(bool on) { recording_.store(on, std::memory_order_relaxed); }
  std::vector<std::uint32_t> take_lateness_ns();

 private:
  void arm();

  kompics::Positive<kompics::timing::Timer> timer_ = require<kompics::timing::Timer>();
  kompics::timing::TimeoutId armed_ = 0;
  std::int64_t due_ns_ = 0;
  std::atomic<bool> recording_{false};
  std::mutex mu_;
  std::vector<std::uint32_t> lateness_ns_;
};

// ---- cluster ---------------------------------------------------------------

struct ClusterSpec {
  int nodes = 6;
  NetKind net = NetKind::kLoopFast;
  kompics::cats::CatsParams params;
  bool traced = false;          ///< taps, BenchNet (codec workloads), timer probe
  TraceState* trace = nullptr;  ///< required when traced
  std::uint16_t base_port = 0;  ///< TCP: bootstrap port; nodes follow it
  std::uint16_t http_port = 0;  ///< 0 = no HttpServer
};

class Machine : public ComponentDefinition {
 public:
  Machine(const ClusterSpec& spec, int index, kompics::cats::NodeRef self, Address boot,
          std::shared_ptr<kompics::net::LoopbackHub> hub, std::shared_ptr<BenchHub> bench_hub);
  Component net, tap, timer, node, client, probe;
};

class Cluster : public ComponentDefinition {
 public:
  explicit Cluster(const ClusterSpec& spec);
  Component boot_net, boot_timer, boot_server, web_app, http;
  std::vector<Component> machines;
};

}  // namespace catsbench
