// Metrics registry: lock-free per-thread counters, gauges, and log-bucketed
// histograms, snapshotted to JSONL at run end.
//
// Hot-path writes never take a lock: each Counter/Histogram owns a fixed
// array of cache-line-padded shards and a thread writes only the shard its
// stable thread index hashes to (threads beyond kShards share shards via
// relaxed atomics, which stays correct — just contended). Welford mean/M2
// state inside a histogram shard is the one exception: it is guarded by a
// per-shard spinlock that is uncontended unless two threads collide on one
// shard. Snapshots merge shards with the Chan/Welford parallel-combine
// formula, so mean and variance are exact regardless of sharding.
//
// Registration (Registry::GetCounter & co.) takes a mutex but happens once
// per instrumentation site: the TSF_COUNTER_ADD macros cache the returned
// reference in a function-local static.
#pragma once

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "telemetry/spinlock.h"
#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace tsf::telemetry {

namespace internal {

extern std::atomic<bool> g_metrics_enabled;

// Stable per-thread shard index in [0, kShards); assigned round-robin on
// first use so concurrent threads spread over distinct shards.
std::size_t ThisThreadShard();

inline constexpr std::size_t kShards = 16;

}  // namespace internal

// Global runtime switch read by the TSF_* metric macros. Off by default so
// unexercised instrumentation costs one relaxed load + branch per site.
//
// memory_order_relaxed is sound here because the flag publishes no data:
// every structure reachable after the branch is independently synchronized
// (registry lookups under a mutex, counter cells and histogram buckets are
// atomics, histogram moments sit behind a per-shard spinlock). A thread
// observing a stale flag value merely records or skips a few extra samples
// around the toggle, which SetEnabled's callers (run setup/teardown) accept.
inline bool Enabled() {
  return internal::g_metrics_enabled.load(std::memory_order_relaxed);
}
void SetEnabled(bool enabled);

// Monotonic counter; Add is a relaxed fetch_add on the caller's shard.
class Counter {
 public:
  void Add(std::int64_t delta) {
    cells_[internal::ThisThreadShard()].value.fetch_add(
        delta, std::memory_order_relaxed);
  }

  std::int64_t Total() const {
    std::int64_t total = 0;
    for (const Cell& cell : cells_)
      total += cell.value.load(std::memory_order_relaxed);
    return total;
  }

 private:
  struct alignas(64) Cell {
    std::atomic<std::int64_t> value{0};
  };
  std::array<Cell, internal::kShards> cells_;
};

// Last-writer-wins instantaneous value (e.g. a queue depth).
class Gauge {
 public:
  void Set(double value) { value_.store(value, std::memory_order_relaxed); }
  double Value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0.0};
};

// Merged histogram state: log-bucketed counts plus exact Welford moments.
struct HistogramSnapshot {
  static constexpr std::size_t kBuckets = 64;

  std::uint64_t count = 0;
  double mean = 0.0;
  double m2 = 0.0;  // sum of squared deviations from the mean
  double min = 0.0;
  double max = 0.0;
  std::array<std::uint64_t, kBuckets> buckets{};  // bucket b: see BucketLowerBound

  double Variance() const { return count > 1 ? m2 / static_cast<double>(count) : 0.0; }

  // Chan/Welford parallel combine: merging per-thread shards (or snapshots
  // from different runs) yields the exact moments of the concatenated
  // stream.
  void Merge(const HistogramSnapshot& other);

  // Estimated q-quantile (q in [0, 1]) from the log-bucketed counts: finds
  // the bucket holding rank q*count, linearly interpolates across that
  // bucket's [lower, upper) span, and clamps into the observed [min, max].
  //
  // Error bound: a sample v >= 1 lands in bucket [2^(b-1), 2^b), so the
  // estimate and the true quantile always share a bucket — the absolute
  // error is less than the bucket width and the relative error is < 2x.
  // The estimate is exact when every sample in the target bucket has the
  // same value (the [min, max] clamp collapses the interpolation), which
  // covers single-sample histograms and power-of-two boundary values.
  // Bucket counts add exactly under Merge, so merge-then-quantile equals
  // quantile-of-the-merged-stream. Returns 0 for an empty histogram.
  double Quantile(double q) const;
};

// Log-bucketed histogram. Bucket 0 holds values < 1 (including negatives);
// bucket b >= 1 holds [2^(b-1), 2^b). Values are recorded into the caller's
// shard; Snapshot() merges all shards.
class Histogram {
 public:
  static constexpr std::size_t kBuckets = HistogramSnapshot::kBuckets;

  // Lower bound of bucket b (0 for bucket 0).
  static double BucketLowerBound(std::size_t bucket);
  static std::size_t BucketIndex(double value);

  void Record(double value);
  HistogramSnapshot Snapshot() const;

 private:
  struct alignas(64) Shard {
    mutable SpinLock lock;  // guards the Welford moments below
    std::uint64_t count TSF_GUARDED_BY(lock) = 0;
    double mean TSF_GUARDED_BY(lock) = 0.0;
    double m2 TSF_GUARDED_BY(lock) = 0.0;
    double min TSF_GUARDED_BY(lock) = 0.0;
    double max TSF_GUARDED_BY(lock) = 0.0;
    std::array<std::atomic<std::uint64_t>, kBuckets> buckets{};  // lock-free
  };
  std::array<Shard, internal::kShards> shards_;
};

// Flat snapshot of the whole registry, for writers and tools.
struct MetricsSnapshot {
  std::vector<std::pair<std::string, std::int64_t>> counters;
  std::vector<std::pair<std::string, double>> gauges;
  std::vector<std::pair<std::string, HistogramSnapshot>> histograms;
};

// Process-wide named-metric registry. Lookup is mutex-guarded (once per
// site thanks to the macro-side static caching); the returned references
// stay valid for the process lifetime.
class Registry {
 public:
  static Registry& Get();

  Counter& GetCounter(std::string_view name);
  Gauge& GetGauge(std::string_view name);
  Histogram& GetHistogram(std::string_view name);

  MetricsSnapshot Snapshot() const;

  // Writes one JSON object per line:
  //   {"type":"counter","name":...,"value":...}
  //   {"type":"gauge","name":...,"value":...}
  //   {"type":"histogram","name":...,"count":...,"mean":...,"variance":...,
  //    "min":...,"max":...,"buckets":[{"ge":...,"count":...},...]}
  // Returns false if the file cannot be written.
  bool WriteJsonlSnapshot(const std::string& path) const;

  // Drops every registered metric. Only safe when no cached macro reference
  // can still be used (tests only).
  void ResetForTest();

 private:
  Registry() = default;

  mutable Mutex mutex_;
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters_
      TSF_GUARDED_BY(mutex_);
  std::map<std::string, std::unique_ptr<Gauge>, std::less<>> gauges_
      TSF_GUARDED_BY(mutex_);
  std::map<std::string, std::unique_ptr<Histogram>, std::less<>> histograms_
      TSF_GUARDED_BY(mutex_);
};

// Appends a JSON-escaped copy of `text` (quotes excluded) to `out`.
void AppendJsonEscaped(std::string& out, std::string_view text);

}  // namespace tsf::telemetry
