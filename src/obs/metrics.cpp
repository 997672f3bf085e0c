#include "obs/metrics.hpp"

#include <fstream>
#include <sstream>

#include "common/assert.hpp"

namespace manet::obs {
namespace {

void append_json_string(std::string& out, std::string_view s) {
  out += '"';
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default: out += c;
    }
  }
  out += '"';
}

void append_uint_list(std::string& out,
                      const std::vector<std::uint64_t>& values) {
  out += '[';
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (i) out += ',';
    out += std::to_string(values[i]);
  }
  out += ']';
}

}  // namespace

MetricsSnapshot MetricsSnapshot::deterministic() const {
  const auto is_scheduling = [](std::string_view name) {
    return name.find(".lane.") != std::string_view::npos ||
           name.find(".pool.") != std::string_view::npos;
  };
  MetricsSnapshot out;
  for (const auto& c : counters)
    if (!is_scheduling(c.name)) out.counters.push_back(c);
  for (const auto& g : gauges)
    if (!is_scheduling(g.name)) out.gauges.push_back(g);
  for (const auto& h : histograms)
    if (!is_scheduling(h.name)) out.histograms.push_back(h);
  return out;
}

std::uint64_t MetricsSnapshot::counter_or(std::string_view name,
                                          std::uint64_t fallback) const {
  for (const auto& c : counters)
    if (c.name == name) return c.value;
  return fallback;
}

std::string MetricsSnapshot::to_json() const {
  std::string out = "{\"counters\":{";
  for (std::size_t i = 0; i < counters.size(); ++i) {
    if (i) out += ',';
    append_json_string(out, counters[i].name);
    out += ':';
    out += std::to_string(counters[i].value);
  }
  out += "},\"gauges\":{";
  for (std::size_t i = 0; i < gauges.size(); ++i) {
    if (i) out += ',';
    append_json_string(out, gauges[i].name);
    out += ':';
    out += std::to_string(gauges[i].value);
  }
  out += "},\"histograms\":{";
  for (std::size_t i = 0; i < histograms.size(); ++i) {
    const auto& h = histograms[i];
    if (i) out += ',';
    append_json_string(out, h.name);
    out += ":{\"edges\":";
    append_uint_list(out, h.edges);
    out += ",\"buckets\":";
    append_uint_list(out, h.buckets);
    out += ",\"count\":";
    out += std::to_string(h.count);
    out += ",\"sum\":";
    out += std::to_string(h.sum);
    out += '}';
  }
  out += "}}";
  return out;
}

void MetricsSnapshot::write_json_file(const std::string& path) const {
  std::ofstream out(path);
  MANET_REQUIRE(out.good(), "cannot open metrics output file: " + path);
  out << to_json() << '\n';
}

std::string MetricsSnapshot::to_text() const {
  std::ostringstream os;
  for (const auto& c : counters)
    os << "counter   " << c.name << " = " << c.value << '\n';
  for (const auto& g : gauges)
    os << "gauge     " << g.name << " = " << g.value << '\n';
  for (const auto& h : histograms) {
    os << "histogram " << h.name << ": count=" << h.count << " sum=" << h.sum
       << " buckets=[";
    for (std::size_t i = 0; i < h.buckets.size(); ++i)
      os << (i ? "," : "") << h.buckets[i];
    os << "]\n";
  }
  return os.str();
}

Counter Registry::counter(std::string_view name) {
  const std::lock_guard<std::mutex> lock(mu_);
  const auto [it, inserted] = counters_.try_emplace(std::string(name));
  (void)inserted;
  return Counter(&it->second);
}

Gauge Registry::gauge(std::string_view name) {
  const std::lock_guard<std::mutex> lock(mu_);
  const auto [it, inserted] = gauges_.try_emplace(std::string(name));
  (void)inserted;
  return Gauge(&it->second);
}

Histogram Registry::histogram(std::string_view name,
                              std::vector<std::uint64_t> edges) {
  MANET_REQUIRE(!edges.empty(), "histogram needs at least one bucket edge");
  MANET_REQUIRE(std::is_sorted(edges.begin(), edges.end()) &&
                    std::adjacent_find(edges.begin(), edges.end()) ==
                        edges.end(),
                "histogram edges must be strictly increasing");
  const std::lock_guard<std::mutex> lock(mu_);
  const auto [it, inserted] = histograms_.try_emplace(std::string(name));
  if (inserted) {
    it->second.edges = std::move(edges);
    it->second.buckets =
        std::make_unique<std::atomic<std::uint64_t>[]>(
            it->second.edges.size() + 1);
    for (std::size_t i = 0; i <= it->second.edges.size(); ++i)
      it->second.buckets[i].store(0, std::memory_order_relaxed);
  }
  return Histogram(&it->second);
}

void Registry::reset() {
  const std::lock_guard<std::mutex> lock(mu_);
  for (auto& [name, cell] : counters_)
    cell.store(0, std::memory_order_relaxed);
  for (auto& [name, cell] : gauges_)
    cell.store(0, std::memory_order_relaxed);
  for (auto& [name, cells] : histograms_) {
    for (std::size_t i = 0; i <= cells.edges.size(); ++i)
      cells.buckets[i].store(0, std::memory_order_relaxed);
    cells.count.store(0, std::memory_order_relaxed);
    cells.sum.store(0, std::memory_order_relaxed);
  }
}

MetricsSnapshot Registry::snapshot() const {
  MetricsSnapshot snap;
  const std::lock_guard<std::mutex> lock(mu_);
  snap.counters.reserve(counters_.size());
  for (const auto& [name, cell] : counters_)
    snap.counters.push_back({name, cell.load(std::memory_order_relaxed)});
  snap.gauges.reserve(gauges_.size());
  for (const auto& [name, cell] : gauges_)
    snap.gauges.push_back({name, cell.load(std::memory_order_relaxed)});
  snap.histograms.reserve(histograms_.size());
  for (const auto& [name, cells] : histograms_) {
    MetricsSnapshot::HistogramValue h;
    h.name = name;
    h.edges = cells.edges;
    h.buckets.resize(cells.edges.size() + 1);
    for (std::size_t i = 0; i <= cells.edges.size(); ++i)
      h.buckets[i] = cells.buckets[i].load(std::memory_order_relaxed);
    h.count = cells.count.load(std::memory_order_relaxed);
    h.sum = cells.sum.load(std::memory_order_relaxed);
    snap.histograms.push_back(std::move(h));
  }
  return snap;
}

Registry& global_registry() {
  static Registry registry;
  return registry;
}

}  // namespace manet::obs
