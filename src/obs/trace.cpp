#include "obs/trace.hpp"

#include <cstdio>
#include <fstream>
#include <ostream>
#include <unordered_set>

#include "common/assert.hpp"
#include "obs/journal.hpp"

namespace manet::obs {

TraceRecorder::TraceRecorder(std::size_t capacity)
    : capacity_(capacity), epoch_(std::chrono::steady_clock::now()) {
  MANET_REQUIRE(capacity_ > 0, "trace recorder needs a positive capacity");
  ring_.reserve(std::min<std::size_t>(capacity_, 1024));
}

std::uint64_t TraceRecorder::now_ns() const {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - epoch_)
          .count());
}

void TraceRecorder::push(const TraceEvent& e) {
  if (ring_.size() < capacity_) {
    ring_.push_back(e);
  } else {
    ring_[next_] = e;
  }
  if (++next_ == capacity_) next_ = 0;
  ++total_;
}

void TraceRecorder::instant(const char* cat, const char* name,
                            std::uint64_t tick, std::uint32_t tid,
                            const char* arg_name, std::uint64_t arg) {
  instant_at(now_ns(), cat, name, tick, tid, arg_name, arg);
}

void TraceRecorder::instant_at(std::uint64_t ts_ns, const char* cat,
                               const char* name, std::uint64_t tick,
                               std::uint32_t tid, const char* arg_name,
                               std::uint64_t arg) {
  push({cat, name, 'i', tid, ts_ns, 0, tick, arg_name, arg});
}

void TraceRecorder::complete(const char* cat, const char* name,
                             std::uint64_t ts_ns, std::uint64_t dur_ns,
                             std::uint64_t tick, std::uint32_t tid,
                             const char* arg_name, std::uint64_t arg) {
  push({cat, name, 'X', tid, ts_ns, dur_ns, tick, arg_name, arg});
}

void TraceRecorder::flow_begin_at(std::uint64_t ts_ns, const char* cat,
                                  const char* name, std::uint64_t flow_id,
                                  std::uint64_t tick, std::uint32_t tid) {
  push({cat, name, 's', tid, ts_ns, 0, tick, nullptr, 0, flow_id});
}

void TraceRecorder::flow_step_at(std::uint64_t ts_ns, const char* cat,
                                 const char* name, std::uint64_t flow_id,
                                 std::uint64_t tick, std::uint32_t tid) {
  push({cat, name, 't', tid, ts_ns, 0, tick, nullptr, 0, flow_id});
}

void TraceRecorder::flow_end_at(std::uint64_t ts_ns, const char* cat,
                                const char* name, std::uint64_t flow_id,
                                std::uint64_t tick, std::uint32_t tid) {
  push({cat, name, 'f', tid, ts_ns, 0, tick, nullptr, 0, flow_id});
}

std::size_t TraceRecorder::size() const { return ring_.size(); }

void TraceRecorder::clear() {
  ring_.clear();
  next_ = 0;
  total_ = 0;
}

template <typename Fn>
void TraceRecorder::for_each(Fn&& fn) const {
  if (ring_.size() < capacity_) {
    for (const auto& e : ring_) fn(e);
    return;
  }
  for (std::size_t i = 0; i < ring_.size(); ++i)
    fn(ring_[(next_ + i) % capacity_]);
}

void TraceRecorder::write_chrome_trace(std::ostream& out,
                                       const Journal* journal) const {
  // Ring-wrap orphan repair: a flow step/end whose begin was overwritten
  // would render as a dangling arrow from nowhere, so collect the flow
  // ids that still have their 's' in the retained window and drop the
  // rest at export (the ring itself keeps everything it was given).
  std::unordered_set<std::uint64_t> live_flows;
  for_each([&](const TraceEvent& e) {
    if (e.phase == 's') live_flows.insert(e.flow_id);
  });
  // Same repair for synthesized flows: a journal event's 'f' (the arrow
  // from its parent) is only emitted when the parent's own event — and
  // thus its 's' — survives in the journal window.
  std::unordered_set<std::uint64_t> journal_ids;
  if (journal != nullptr)
    journal->for_each(
        [&](const JournalEvent& je) { journal_ids.insert(je.trace_id); });

  out << "{\"traceEvents\":[";
  bool first = true;
  char buf[64];
  const auto emit = [&](const TraceEvent& e) {
    const bool flow = e.phase == 's' || e.phase == 't' || e.phase == 'f';
    if (!first) out << ',';
    first = false;
    out << "{\"name\":\"" << e.name << "\",\"cat\":\"" << e.cat
        << "\",\"ph\":\"" << e.phase << "\",\"pid\":0,\"tid\":" << e.tid;
    std::snprintf(buf, sizeof(buf), "%.3f",
                  static_cast<double>(e.ts_ns) / 1000.0);
    out << ",\"ts\":" << buf;
    if (e.phase == 'X') {
      std::snprintf(buf, sizeof(buf), "%.3f",
                    static_cast<double>(e.dur_ns) / 1000.0);
      out << ",\"dur\":" << buf;
    }
    if (e.phase == 'i') out << ",\"s\":\"t\"";
    if (flow) {
      out << ",\"id\":" << e.flow_id;
      if (e.phase == 'f') out << ",\"bp\":\"e\"";
    }
    out << ",\"args\":{\"tick\":" << e.tick;
    if (e.arg_name)
      out << ",\"" << e.arg_name << "\":" << e.arg;
    out << "}}";
  };

  if (journal != nullptr)
    journal->for_each([&](const JournalEvent& je) {
      const std::uint64_t ts = std::uint64_t{je.round} * kRoundNs;
      emit({"net", je.type, 'i', je.node, ts, 0, je.round, "from", je.node});
      emit({"proto", "wave", 's', je.node, ts, 0, je.round, nullptr, 0,
            je.trace_id});
      if (je.parent_id != 0 && journal_ids.contains(je.parent_id))
        emit({"proto", "wave", 'f', je.node, ts, 0, je.round, nullptr, 0,
              je.parent_id});
    });

  for_each([&](const TraceEvent& e) {
    const bool flow = e.phase == 's' || e.phase == 't' || e.phase == 'f';
    if (flow && e.phase != 's' && !live_flows.contains(e.flow_id))
      return;  // orphaned by ring wrap
    emit(e);
  });
  out << "],\"displayTimeUnit\":\"ms\"}\n";
}

void TraceRecorder::write_chrome_trace_file(const std::string& path,
                                            const Journal* journal) const {
  std::ofstream out(path);
  MANET_REQUIRE(out.good(), "cannot open trace output file: " + path);
  write_chrome_trace(out, journal);
}

void TraceRecorder::dump_tail(std::ostream& out,
                              std::size_t max_events) const {
  const std::size_t held = ring_.size();
  const std::size_t shown = std::min(held, max_events);
  out << "trace tail: last " << shown << " of " << total_
      << " recorded events\n";
  std::size_t index = 0;
  char buf[64];
  for_each([&](const TraceEvent& e) {
    ++index;
    if (held - index >= shown) return;  // skip events before the tail
    out << "  [tick " << e.tick << "] " << e.cat << '/' << e.name;
    if (e.phase == 'X') {
      std::snprintf(buf, sizeof(buf), "%.1f",
                    static_cast<double>(e.dur_ns) / 1000.0);
      out << ' ' << buf << "us";
    }
    if (e.phase == 's' || e.phase == 't' || e.phase == 'f')
      out << " flow=" << e.flow_id;
    if (e.arg_name) out << ' ' << e.arg_name << '=' << e.arg;
    if (e.tid != 0) out << " (tid " << e.tid << ')';
    out << '\n';
  });
}

}  // namespace manet::obs
