#include "oracle.hpp"

#include <algorithm>
#include <cstring>
#include <optional>
#include <unordered_map>

#include "cats/linearizability.hpp"

namespace catsbench {

using kompics::cats::LinOp;
using kompics::cats::Value;

Records::Records() {
  for (auto& c : chunks_) c.store(nullptr, std::memory_order_relaxed);
}

Records::~Records() {
  for (auto& c : chunks_) delete[] c.load(std::memory_order_relaxed);
}

bool Records::alloc(std::uint64_t* index) {
  const std::uint64_t i = next_.fetch_add(1, std::memory_order_acq_rel);
  const std::uint64_t c = i >> kChunkBits;
  if (c >= kChunks) {
    next_.fetch_sub(1, std::memory_order_acq_rel);
    return false;
  }
  if (chunks_[c].load(std::memory_order_acquire) == nullptr) {
    std::lock_guard<std::mutex> g(grow_mu_);
    if (chunks_[c].load(std::memory_order_relaxed) == nullptr) {
      chunks_[c].store(new OpRec[std::size_t{1} << kChunkBits](), std::memory_order_release);
    }
  }
  *index = i;
  return true;
}

namespace {

// A fixed dictionary of common English words, most frequent first. Value
// bodies are drawn from it with Zipf-like word frequencies, so they compress
// about as well as prose (the ratio is measured and printed with each run).
constexpr const char* kWords[] = {
    "the", "of", "and", "to", "a", "in", "is", "that", "for", "it", "as", "was", "with", "be",
    "by", "on", "not", "he", "this", "are", "or", "his", "from", "at", "which", "but", "have",
    "an", "had", "they", "you", "were", "their", "one", "all", "we", "can", "her", "has",
    "there", "been", "if", "more", "when", "will", "would", "who", "so", "no", "she", "other",
    "its", "may", "these", "what", "them", "than", "some", "him", "time", "into", "only", "do",
    "could", "new", "about", "two", "first", "then", "also", "after", "any", "like", "should",
    "people", "such", "most", "made", "well", "over", "very", "those", "where", "many", "must",
    "before", "years", "between", "through", "state", "under", "while", "being", "because",
    "system", "might", "number", "during", "without", "against", "never", "world", "school",
    "each", "still", "public", "however", "another", "general", "important",
    "government", "program", "question", "develop", "information", "service",
    "problem", "possible", "message", "network", "component", "process",
    "replica", "quorum", "request", "response", "timeout", "history", "register", "value",
    "key", "node", "ring", "successor", "predecessor", "failure", "detector", "channel",
    "port", "event", "handler", "scheduler", "worker", "thread", "queue", "buffer", "socket",
    "address", "protocol", "configuration", "membership", "view", "epoch", "consistent",
    "hashing", "partition", "group", "leader", "follower", "commit", "abort", "transaction",
    "storage", "memory", "disk", "latency", "throughput", "benchmark", "result", "measure",
    "figure", "table", "section", "paper", "model", "design", "implementation", "evaluation",
    "experiment", "cluster", "machine", "server", "client", "operation", "read", "write",
    "update", "delete", "insert", "select", "across", "within", "around", "along", "among",
    "above", "below", "behind", "beyond", "toward", "upon", "whether", "either", "neither",
    "although", "though", "unless", "until", "since", "therefore", "thus", "hence", "indeed",
};
constexpr std::size_t kWordCount = sizeof kWords / sizeof kWords[0];

}  // namespace

ValueCodec::ValueCodec(std::uint64_t seed, std::size_t value_bytes) : bytes_(value_bytes) {
  // The body after the 16-byte header: seeded words, word rank r drawn with
  // probability proportional to 1/(r+1), separated by spaces.
  std::vector<double> cdf(kWordCount);
  double sum = 0;
  for (std::size_t r = 0; r < kWordCount; ++r) cdf[r] = (sum += 1.0 / static_cast<double>(r + 1));
  std::uint64_t x = seed * 0x9E3779B97F4A7C15ULL + 0x1234567ULL;
  const std::size_t body = value_bytes > 16 ? value_bytes - 16 : 0;
  while (body_.size() < body) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    const double u = static_cast<double>(x >> 11) * 0x1.0p-53 * sum;
    const auto r = static_cast<std::size_t>(std::lower_bound(cdf.begin(), cdf.end(), u) - cdf.begin());
    for (const char* c = kWords[std::min(r, kWordCount - 1)]; *c != '\0'; ++c) body_.push_back(static_cast<std::uint8_t>(*c));
    body_.push_back(' ');
  }
  body_.resize(body);
}

Value ValueCodec::make(std::uint32_t key, std::uint64_t write_id) const {
  Value v(bytes_);
  const std::uint64_t k = key;
  std::memcpy(v.data(), &k, 8);
  std::memcpy(v.data() + 8, &write_id, 8);
  if (!body_.empty()) std::memcpy(v.data() + 16, body_.data(), body_.size());
  return v;
}

bool ValueCodec::check(const Value& v, std::uint32_t key, std::uint64_t* write_id) const {
  if (v.size() != bytes_) return false;
  std::uint64_t k = 0;
  std::memcpy(&k, v.data(), 8);
  std::memcpy(write_id, v.data() + 8, 8);
  if (k != key) return false;
  return body_.empty() || std::memcmp(v.data() + 16, body_.data(), body_.size()) == 0;
}

namespace {

/// Splits one key's history at points where the register's state is known
/// and checks each piece. A cut before op j is taken when every earlier
/// completed op responded before j was invoked and the one that responded
/// last overlapped none of the others: it is then linearized last among them,
/// so the state after the prefix is its value, which the next piece starts
/// from as a synthetic completed put. A failed or unanswered put may take
/// effect at any later time, so it is carried into every later piece as an
/// optional op. This keeps each search small on hot keys.
void check_key(std::vector<LinOp>& ops, OracleResult& out, std::uint32_t key) {
  std::sort(ops.begin(), ops.end(),
            [](const LinOp& a, const LinOp& b) { return a.invoked < b.invoked; });
  std::vector<LinOp> seg, carried;
  std::int64_t max1 = -1, max2 = -1;  // largest and second-largest response of seg's completed ops
  std::size_t arg1 = 0;
  auto flush = [&] {
    if (seg.empty()) return;
    ++out.segments;
    auto r = kompics::cats::check_register_history(seg, 2'000'000);
    if (!r.linearizable) {
      if (r.budget_exceeded) {
        ++out.inconclusive;
      } else {
        if (out.violations++ == 0) {
          out.first_violation = "key " + std::to_string(key) + ": " + r.explanation;
        }
      }
    }
  };
  for (const LinOp& op : ops) {
    if (max1 >= 0 && op.invoked > max1) {
      const LinOp& last = seg[arg1];
      const std::optional<std::uint32_t> state = last.value;
      if (last.invoked > max2 && state.has_value()) {
        flush();
        seg.clear();
        LinOp start;
        start.is_put = true;
        start.value = state;
        start.responded = op.invoked - 1;
        start.invoked = op.invoked - 2;
        seg.push_back(start);
        seg.insert(seg.end(), carried.begin(), carried.end());
        max1 = start.responded;
        max2 = -1;
        arg1 = 0;
      }
    }
    seg.push_back(op);
    if (op.optional) {
      carried.push_back(op);
      continue;
    }
    if (op.responded >= max1) {
      max2 = max1;
      max1 = op.responded;
      arg1 = seg.size() - 1;
    } else if (op.responded > max2) {
      max2 = op.responded;
    }
  }
  flush();
}

}  // namespace

OracleResult check_history(const Records& recs) {
  OracleResult out;
  const std::uint64_t n = recs.size();
  out.ops = n;
  std::unordered_map<std::uint32_t, std::vector<LinOp>> per_key;
  auto violation = [&out](const std::string& what) {
    if (out.violations++ == 0) out.first_violation = what;
  };
  for (std::uint64_t i = 0; i < n; ++i) {
    const OpRec& r = recs.at(i);
    LinOp op;
    op.invoked = r.issue_ns;
    op.responded = r.done_ns == 0 ? -1 : r.done_ns;
    if (r.is_put) {
      op.is_put = true;
      op.value = static_cast<std::uint32_t>(i + 1);
      op.optional = r.done_ns == 0 || !r.ok;
    } else {
      if (r.done_ns == 0 || !r.ok) continue;  // unanswered reads constrain nothing
      ++out.gets_checked;
      if (r.found) {
        const std::uint64_t w = r.observed;
        if (!r.bytes_ok) {
          violation("op " + std::to_string(i) + ": get of key " + std::to_string(r.key) +
                    " returned bytes that do not match any put's encoding");
          continue;
        }
        if (w == 0 || w > n || !recs.at(w - 1).is_put || recs.at(w - 1).key != r.key) {
          violation("op " + std::to_string(i) + ": get of key " + std::to_string(r.key) +
                    " read write id " + std::to_string(w) + ", which no put of that key wrote");
          continue;
        }
        op.value = static_cast<std::uint32_t>(w);
      }
    }
    per_key[r.key].push_back(op);
  }
  out.keys = per_key.size();
  for (auto& [key, ops] : per_key) check_key(ops, out, key);
  return out;
}

}  // namespace catsbench
