#include "telemetry/metrics.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>

#include "telemetry/spinlock.h"

namespace tsf::telemetry {

namespace internal {

std::atomic<bool> g_metrics_enabled{false};

std::size_t ThisThreadShard() {
  static std::atomic<std::size_t> next{0};
  thread_local const std::size_t shard =
      next.fetch_add(1, std::memory_order_relaxed) % kShards;
  return shard;
}

}  // namespace internal

void SetEnabled(bool enabled) {
  internal::g_metrics_enabled.store(enabled, std::memory_order_relaxed);
}

void HistogramSnapshot::Merge(const HistogramSnapshot& other) {
  if (other.count == 0) return;
  if (count == 0) {
    *this = other;
    return;
  }
  const auto na = static_cast<double>(count);
  const auto nb = static_cast<double>(other.count);
  const double delta = other.mean - mean;
  mean += delta * nb / (na + nb);
  m2 += other.m2 + delta * delta * na * nb / (na + nb);
  count += other.count;
  min = std::min(min, other.min);
  max = std::max(max, other.max);
  for (std::size_t b = 0; b < kBuckets; ++b) buckets[b] += other.buckets[b];
}

double HistogramSnapshot::Quantile(double q) const {
  if (count == 0) return 0.0;
  if (q <= 0.0) return min;
  if (q >= 1.0) return max;
  // Continuous rank in (0, count); the loop finds the first bucket whose
  // cumulative count reaches it.
  const double rank = q * static_cast<double>(count);
  std::uint64_t seen = 0;
  for (std::size_t b = 0; b < kBuckets; ++b) {
    if (buckets[b] == 0) continue;
    const auto before = static_cast<double>(seen);
    seen += buckets[b];
    if (static_cast<double>(seen) < rank) continue;
    // Interpolate across the bucket span. Bucket 0 has no finite lower
    // bound of its own (it holds everything below 1, negatives included),
    // so it is anchored at the observed minimum; the top bucket's upper
    // bound is the observed maximum.
    double lo = b == 0 ? min : Histogram::BucketLowerBound(b);
    double hi =
        b + 1 < kBuckets ? Histogram::BucketLowerBound(b + 1) : max;
    if (hi < lo) hi = lo;  // top bucket with max below the lower bound edge
    const double frac = (rank - before) / static_cast<double>(buckets[b]);
    return std::clamp(lo + frac * (hi - lo), min, max);
  }
  return max;  // unreachable unless rank rounds past the last bucket
}

double Histogram::BucketLowerBound(std::size_t bucket) {
  if (bucket == 0) return 0.0;
  return std::ldexp(1.0, static_cast<int>(bucket) - 1);  // 2^(bucket-1)
}

std::size_t Histogram::BucketIndex(double value) {
  if (!(value >= 1.0)) return 0;  // negatives and NaN also land here
  // Values at or above 2^63 would overflow the uint64 cast; they belong in
  // the top bucket regardless.
  if (value >= std::ldexp(1.0, 63)) return kBuckets - 1;
  const auto truncated = static_cast<std::uint64_t>(value);
  // bit_width(t) = floor(log2 t) + 1, so [2^(b-1), 2^b) maps to bucket b.
  return std::min<std::size_t>(std::bit_width(truncated), kBuckets - 1);
}

void Histogram::Record(double value) {
  Shard& shard = shards_[internal::ThisThreadShard()];
  shard.buckets[BucketIndex(value)].fetch_add(1, std::memory_order_relaxed);
  const SpinGuard guard(shard.lock);
  if (shard.count == 0) {
    shard.min = value;
    shard.max = value;
  } else {
    shard.min = std::min(shard.min, value);
    shard.max = std::max(shard.max, value);
  }
  ++shard.count;
  const double delta = value - shard.mean;
  shard.mean += delta / static_cast<double>(shard.count);
  shard.m2 += delta * (value - shard.mean);
}

HistogramSnapshot Histogram::Snapshot() const {
  HistogramSnapshot merged;
  for (const Shard& shard : shards_) {
    HistogramSnapshot piece;
    {
      const SpinGuard guard(shard.lock);
      piece.count = shard.count;
      piece.mean = shard.mean;
      piece.m2 = shard.m2;
      piece.min = shard.min;
      piece.max = shard.max;
    }
    for (std::size_t b = 0; b < kBuckets; ++b)
      piece.buckets[b] = shard.buckets[b].load(std::memory_order_relaxed);
    merged.Merge(piece);
  }
  return merged;
}

Registry& Registry::Get() {
  static Registry* registry = new Registry;  // never destroyed: macro refs outlive main
  return *registry;
}

Counter& Registry::GetCounter(std::string_view name) {
  const MutexLock lock(mutex_);
  auto it = counters_.find(name);
  if (it == counters_.end())
    it = counters_.emplace(std::string(name), std::make_unique<Counter>()).first;
  return *it->second;
}

Gauge& Registry::GetGauge(std::string_view name) {
  const MutexLock lock(mutex_);
  auto it = gauges_.find(name);
  if (it == gauges_.end())
    it = gauges_.emplace(std::string(name), std::make_unique<Gauge>()).first;
  return *it->second;
}

Histogram& Registry::GetHistogram(std::string_view name) {
  const MutexLock lock(mutex_);
  auto it = histograms_.find(name);
  if (it == histograms_.end())
    it = histograms_.emplace(std::string(name), std::make_unique<Histogram>())
             .first;
  return *it->second;
}

MetricsSnapshot Registry::Snapshot() const {
  const MutexLock lock(mutex_);
  MetricsSnapshot snapshot;
  snapshot.counters.reserve(counters_.size());
  for (const auto& [name, counter] : counters_)
    snapshot.counters.emplace_back(name, counter->Total());
  snapshot.gauges.reserve(gauges_.size());
  for (const auto& [name, gauge] : gauges_)
    snapshot.gauges.emplace_back(name, gauge->Value());
  snapshot.histograms.reserve(histograms_.size());
  for (const auto& [name, histogram] : histograms_)
    snapshot.histograms.emplace_back(name, histogram->Snapshot());
  return snapshot;
}

void AppendJsonEscaped(std::string& out, std::string_view text) {
  for (const char c : text) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buffer[8];
          std::snprintf(buffer, sizeof(buffer), "\\u%04x", c);
          out += buffer;
        } else {
          out += c;
        }
    }
  }
}

namespace {

void AppendDouble(std::string& out, double value) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  out += buffer;
}

}  // namespace

bool Registry::WriteJsonlSnapshot(const std::string& path) const {
  const MetricsSnapshot snapshot = Snapshot();
  std::FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) return false;
  std::string line;
  auto flush_line = [&] {
    line += '\n';
    std::fwrite(line.data(), 1, line.size(), file);
    line.clear();
  };
  for (const auto& [name, value] : snapshot.counters) {
    line += "{\"type\":\"counter\",\"name\":\"";
    AppendJsonEscaped(line, name);
    line += "\",\"value\":" + std::to_string(value) + "}";
    flush_line();
  }
  for (const auto& [name, value] : snapshot.gauges) {
    line += "{\"type\":\"gauge\",\"name\":\"";
    AppendJsonEscaped(line, name);
    line += "\",\"value\":";
    AppendDouble(line, value);
    line += "}";
    flush_line();
  }
  for (const auto& [name, histogram] : snapshot.histograms) {
    line += "{\"type\":\"histogram\",\"name\":\"";
    AppendJsonEscaped(line, name);
    line += "\",\"count\":" + std::to_string(histogram.count);
    line += ",\"mean\":";
    AppendDouble(line, histogram.mean);
    line += ",\"variance\":";
    AppendDouble(line, histogram.Variance());
    line += ",\"min\":";
    AppendDouble(line, histogram.min);
    line += ",\"max\":";
    AppendDouble(line, histogram.max);
    line += ",\"buckets\":[";
    bool first = true;
    for (std::size_t b = 0; b < HistogramSnapshot::kBuckets; ++b) {
      if (histogram.buckets[b] == 0) continue;
      if (!first) line += ',';
      first = false;
      line += "{\"ge\":";
      AppendDouble(line, Histogram::BucketLowerBound(b));
      line += ",\"count\":" + std::to_string(histogram.buckets[b]) + "}";
    }
    line += "]}";
    flush_line();
  }
  const bool ok = std::fclose(file) == 0;
  return ok;
}

void Registry::ResetForTest() {
  const MutexLock lock(mutex_);
  counters_.clear();
  gauges_.clear();
  histograms_.clear();
}

}  // namespace tsf::telemetry
