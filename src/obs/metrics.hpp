// Deterministic low-overhead metrics: named counters, gauges and
// fixed-bucket histograms behind pointer-sized handles.
//
// Design rules, in force everywhere a metric is recorded:
//
//  * The hot path is a relaxed atomic add through a cached handle — no
//    locks, no lookups, no allocation. Registration (the name lookup)
//    happens once, outside the measured region.
//  * Every stored value is an *integer* derived from deterministic
//    quantities (counts, sizes, ids). Never record wall-clock time into
//    the registry: timing belongs in the trace (obs/trace.hpp), metric
//    snapshots must be bitwise identical across reruns and thread
//    counts. Integer atomic adds commute, so concurrent recording (e.g.
//    under stats::ReplicationPolicy::threads) cannot perturb a
//    snapshot.
//  * A default-constructed handle is inert: recording through it is one
//    null check, which is all an unobserved engine pays.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace manet::obs {

/// Monotonic event count. Handle into a Registry cell; copyable, inert
/// when default-constructed.
class Counter {
 public:
  Counter() = default;
  void add(std::uint64_t n = 1) const noexcept {
    if (cell_) cell_->fetch_add(n, std::memory_order_relaxed);
  }

 private:
  friend class Registry;
  explicit Counter(std::atomic<std::uint64_t>* cell) : cell_(cell) {}
  std::atomic<std::uint64_t>* cell_ = nullptr;
};

/// Last-write-wins scalar (e.g. "quiescence round"). Set it from one
/// thread only — unlike counters, concurrent sets race by design.
class Gauge {
 public:
  Gauge() = default;
  void set(std::int64_t v) const noexcept {
    if (cell_) cell_->store(v, std::memory_order_relaxed);
  }

 private:
  friend class Registry;
  explicit Gauge(std::atomic<std::int64_t>* cell) : cell_(cell) {}
  std::atomic<std::int64_t>* cell_ = nullptr;
};

/// Backing storage of one histogram: `edges` (strictly increasing upper
/// bounds) split the value axis into edges.size()+1 cells —
/// bucket 0 = underflow (v < edges[0]), bucket i = [edges[i-1],
/// edges[i]), last bucket = overflow (v >= edges.back()).
struct HistogramCells {
  std::vector<std::uint64_t> edges;
  std::unique_ptr<std::atomic<std::uint64_t>[]> buckets;
  std::atomic<std::uint64_t> count{0};
  std::atomic<std::uint64_t> sum{0};
};

/// Fixed-bucket distribution of deterministic integer values.
class Histogram {
 public:
  Histogram() = default;
  void record(std::uint64_t value) const noexcept {
    if (!cells_) return;
    const auto& e = cells_->edges;
    const auto idx = static_cast<std::size_t>(
        std::upper_bound(e.begin(), e.end(), value) - e.begin());
    cells_->buckets[idx].fetch_add(1, std::memory_order_relaxed);
    cells_->count.fetch_add(1, std::memory_order_relaxed);
    cells_->sum.fetch_add(value, std::memory_order_relaxed);
  }

  /// Records `count` identical samples in O(1) — the flush half of the
  /// accumulate-locally-flush-per-tick pattern hot loops use to keep
  /// per-event instrumentation off their critical path.
  void record_many(std::uint64_t value, std::uint64_t count) const noexcept {
    if (!cells_ || count == 0) return;
    const auto& e = cells_->edges;
    const auto idx = static_cast<std::size_t>(
        std::upper_bound(e.begin(), e.end(), value) - e.begin());
    cells_->buckets[idx].fetch_add(count, std::memory_order_relaxed);
    cells_->count.fetch_add(count, std::memory_order_relaxed);
    cells_->sum.fetch_add(value * count, std::memory_order_relaxed);
  }

 private:
  friend class Registry;
  explicit Histogram(HistogramCells* cells) : cells_(cells) {}
  HistogramCells* cells_ = nullptr;
};

/// Point-in-time copy of every registered metric, sorted by name.
/// Byte-identical serialization for byte-identical values — the unit of
/// the determinism contract.
struct MetricsSnapshot {
  struct CounterValue {
    std::string name;
    std::uint64_t value = 0;
    bool operator==(const CounterValue&) const = default;
  };
  struct GaugeValue {
    std::string name;
    std::int64_t value = 0;
    bool operator==(const GaugeValue&) const = default;
  };
  struct HistogramValue {
    std::string name;
    std::vector<std::uint64_t> edges;
    std::vector<std::uint64_t> buckets;  ///< underflow .. overflow
    std::uint64_t count = 0;
    std::uint64_t sum = 0;
    bool operator==(const HistogramValue&) const = default;
  };

  std::vector<CounterValue> counters;
  std::vector<GaugeValue> gauges;
  std::vector<HistogramValue> histograms;

  bool operator==(const MetricsSnapshot&) const = default;

  /// Counter value by exact name; `fallback` when absent.
  std::uint64_t counter_or(std::string_view name,
                           std::uint64_t fallback = 0) const;

  /// Copy with the scheduling/wall-clock metrics removed: any metric
  /// whose name contains ".lane." or ".pool." records which thread did
  /// what or how long it took, which legitimately varies across thread
  /// counts and reruns. Everything else is covered by the determinism
  /// contract — compare `deterministic()` snapshots, not full ones,
  /// when asserting cross-thread-count equality.
  MetricsSnapshot deterministic() const;

  /// Compact single-line JSON (fixed key order, integers only) — embeds
  /// verbatim as the `metrics` block of bench records.
  std::string to_json() const;

  /// to_json() straight to a file (bench metric artifacts).
  void write_json_file(const std::string& path) const;

  /// Human-readable multi-line dump (flight-recorder stderr reports).
  std::string to_text() const;
};

/// Named metric store. Registration is mutex-protected and returns
/// stable handles (the cells live in node-based maps); recording through
/// a handle never touches the registry again. First registration wins:
/// re-registering a histogram name returns the existing cells.
class Registry {
 public:
  Registry() = default;
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  Counter counter(std::string_view name);
  Gauge gauge(std::string_view name);
  /// `edges` must be non-empty and strictly increasing.
  Histogram histogram(std::string_view name,
                      std::vector<std::uint64_t> edges);

  /// Zeroes every value; registrations (and handles) stay valid.
  void reset();

  MetricsSnapshot snapshot() const;

 private:
  mutable std::mutex mu_;
  std::map<std::string, std::atomic<std::uint64_t>, std::less<>> counters_;
  std::map<std::string, std::atomic<std::int64_t>, std::less<>> gauges_;
  std::map<std::string, HistogramCells, std::less<>> histograms_;
};

/// Process-wide registry for ambient instrumentation (the broadcast
/// protocol zoo records here). Prefer an explicit per-run Registry /
/// Session when results must be isolated, and reset() this one before
/// measuring against it.
Registry& global_registry();

}  // namespace manet::obs
