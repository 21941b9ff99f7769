#pragma once

// Operation records and the correctness oracle of the CATS serving benchmark.
//
// Every put writes a value that encodes its key index and a unique write id
// (the put's record index + 1); the remaining bytes are text-like words
// drawn from the run's seed. Each get's bytes are checked when the get
// completes, and after the run every key's timestamped history is checked
// for linearizability with the in-tree check_register_history.

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "cats/ports.hpp"

namespace catsbench {

enum class Phase : std::uint8_t { kSeed, kWarmup, kMeasure, kProbe };

struct OpRec {
  std::int64_t due_ns = 0;    ///< when the op was due (open loop); = issue_ns otherwise
  std::int64_t issue_ns = 0;  ///< when put()/get() was called
  std::int64_t done_ns = 0;   ///< callback time; 0 = unanswered
  std::uint64_t observed = 0; ///< get: write id read back (0 = not found)
  std::uint32_t key = 0;      ///< key index
  std::uint8_t is_put = 0;
  std::uint8_t ok = 0;
  std::uint8_t found = 0;
  std::uint8_t bytes_ok = 0;  ///< get: value bytes matched their encoding
  Phase phase = Phase::kSeed;
};

/// Append-only, thread-safe store of OpRec. Slots are stable, so a callback
/// on a worker thread can fill in the record its op was issued with.
class Records {
 public:
  static constexpr std::size_t kChunkBits = 14;
  static constexpr std::size_t kChunks = 1024;

  Records();
  ~Records();
  Records(const Records&) = delete;
  Records& operator=(const Records&) = delete;

  /// Reserves a slot; returns false when the store is full.
  bool alloc(std::uint64_t* index);
  OpRec& at(std::uint64_t index) const {
    return chunks_[index >> kChunkBits].load(std::memory_order_acquire)[index & ((1u << kChunkBits) - 1)];
  }
  std::uint64_t size() const { return next_.load(std::memory_order_acquire); }

 private:
  std::atomic<std::uint64_t> next_{0};
  std::mutex grow_mu_;
  std::atomic<OpRec*> chunks_[kChunks];
};

/// Value layout: [u64 key index][u64 write id][seeded words...].
class ValueCodec {
 public:
  ValueCodec(std::uint64_t seed, std::size_t value_bytes);
  kompics::cats::Value make(std::uint32_t key, std::uint64_t write_id) const;
  /// Checks the layout for `key`; sets *write_id on success.
  bool check(const kompics::cats::Value& v, std::uint32_t key, std::uint64_t* write_id) const;
  std::size_t size() const { return bytes_; }

 private:
  std::size_t bytes_;
  std::vector<std::uint8_t> body_;
};

struct OracleResult {
  std::uint64_t ops = 0;
  std::uint64_t gets_checked = 0;
  std::uint64_t keys = 0;
  std::uint64_t segments = 0;
  std::uint64_t violations = 0;
  std::uint64_t inconclusive = 0;  ///< segments whose search hit its budget
  std::string first_violation;
};

/// Checks every recorded op: get bytes, write-id provenance, and per-key
/// linearizability. Call with no op in flight.
OracleResult check_history(const Records& recs);

}  // namespace catsbench
