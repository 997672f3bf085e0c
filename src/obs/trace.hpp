// Flight recorder: phase spans and instant events in a fixed-size ring
// buffer, exportable as Chrome-trace / Perfetto JSON or as a plain-text
// tail dump for crash reports.
//
// The recorder keeps the *last* `capacity` events — a long churn soak
// overwrites its own history and the tail always holds the ticks that
// led up to an oracle mismatch or exception. Timestamps come from a
// steady clock relative to the recorder's construction (or are supplied
// explicitly, e.g. "one simulator round = 1 ms" for deterministic
// protocol traces). Wall-clock values live only here, never in the
// metrics registry, so metric snapshots stay bitwise-deterministic.
//
// Event names and categories are stored as borrowed `const char*` — pass
// string literals (or strings that outlive the recorder) containing only
// JSON-safe characters.
//
// Not thread-safe: one recorder per instrumented single-threaded engine.
#pragma once

#include <chrono>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

namespace manet::obs {

class Journal;

/// One recorded event. `phase` follows the Chrome trace-event format:
/// 'X' = complete span (ts + dur), 'i' = instant, 's'/'t'/'f' = flow
/// start/step/finish (rendered as arrows between the flow's events).
struct TraceEvent {
  const char* cat = "";
  const char* name = "";
  char phase = 'i';
  std::uint32_t tid = 0;       ///< Chrome "thread" — used as a track id
  std::uint64_t ts_ns = 0;
  std::uint64_t dur_ns = 0;    ///< spans only
  std::uint64_t tick = 0;      ///< engine tick / simulator round
  const char* arg_name = nullptr;  ///< optional extra argument
  std::uint64_t arg = 0;
  std::uint64_t flow_id = 0;   ///< flow phases only ('s'/'t'/'f')
};

/// Fixed-capacity event ring ("flight recorder").
class TraceRecorder {
 public:
  static constexpr std::size_t kDefaultCapacity = 1 << 16;

  explicit TraceRecorder(std::size_t capacity = kDefaultCapacity);

  /// Nanoseconds since this recorder was constructed.
  std::uint64_t now_ns() const;

  void instant(const char* cat, const char* name, std::uint64_t tick,
               std::uint32_t tid = 0, const char* arg_name = nullptr,
               std::uint64_t arg = 0);

  /// Instant event at an explicit timestamp (deterministic traces).
  void instant_at(std::uint64_t ts_ns, const char* cat, const char* name,
                  std::uint64_t tick, std::uint32_t tid = 0,
                  const char* arg_name = nullptr, std::uint64_t arg = 0);

  /// Complete span [ts_ns, ts_ns + dur_ns).
  void complete(const char* cat, const char* name, std::uint64_t ts_ns,
                std::uint64_t dur_ns, std::uint64_t tick,
                std::uint32_t tid = 0, const char* arg_name = nullptr,
                std::uint64_t arg = 0);

  /// Flow events: all events of one flow must share (cat, name, id) —
  /// Chrome binds them into a chain of arrows across tracks. Begin once
  /// per flow; steps/ends whose begin has been evicted from the ring are
  /// dropped at export time (no dangling arrows).
  void flow_begin_at(std::uint64_t ts_ns, const char* cat, const char* name,
                     std::uint64_t flow_id, std::uint64_t tick,
                     std::uint32_t tid = 0);
  void flow_step_at(std::uint64_t ts_ns, const char* cat, const char* name,
                    std::uint64_t flow_id, std::uint64_t tick,
                    std::uint32_t tid = 0);
  void flow_end_at(std::uint64_t ts_ns, const char* cat, const char* name,
                   std::uint64_t flow_id, std::uint64_t tick,
                   std::uint32_t tid = 0);

  /// Events currently held (<= capacity).
  std::size_t size() const;
  std::size_t capacity() const { return capacity_; }
  /// Events ever recorded (size() plus overwritten ones).
  std::uint64_t total_recorded() const { return total_; }

  void clear();

  /// Chrome trace-event JSON ({"traceEvents":[...]}) — open in
  /// chrome://tracing or https://ui.perfetto.dev.
  ///
  /// When a `journal` is supplied, its protocol events are synthesized
  /// into the export alongside the ring's own events: one instant per
  /// transmission on the sender's track (ts = round x kRoundNs) plus the
  /// causal flow pair — an 's' opening the message's own flow and, for
  /// caused messages whose parent is still in the journal window, an 'f'
  /// closing the parent's flow (the arrow from parent to child).
  /// Synthesis keeps the simulator's per-send hot path down to a single
  /// journal write; the renderable events only exist at export time.
  void write_chrome_trace(std::ostream& out,
                          const Journal* journal = nullptr) const;
  void write_chrome_trace_file(const std::string& path,
                               const Journal* journal = nullptr) const;

  /// Last `max_events` events as readable text (crash / mismatch dumps).
  void dump_tail(std::ostream& out, std::size_t max_events) const;

 private:
  void push(const TraceEvent& e);
  /// Invokes `fn(event)` oldest-first.
  template <typename Fn>
  void for_each(Fn&& fn) const;

  std::vector<TraceEvent> ring_;
  std::size_t capacity_;
  std::size_t next_ = 0;
  std::uint64_t total_ = 0;
  std::chrono::steady_clock::time_point epoch_;
};

/// RAII phase span: records a complete event covering its lifetime into
/// `rec` (nullptr = disabled). The optional argument value can be filled
/// in mid-span once the phase knows it (e.g. rows recomputed).
class Span {
 public:
  Span(TraceRecorder* rec, const char* cat, const char* name,
       std::uint64_t tick, const char* arg_name = nullptr)
      : rec_(rec), cat_(cat), name_(name), arg_name_(arg_name), tick_(tick) {
    if (rec_) start_ns_ = rec_->now_ns();
  }
  ~Span() {
    if (rec_)
      rec_->complete(cat_, name_, start_ns_, rec_->now_ns() - start_ns_,
                     tick_, 0, arg_name_, arg_);
  }
  void set_arg(std::uint64_t v) { arg_ = v; }

  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  TraceRecorder* rec_;
  const char* cat_;
  const char* name_;
  const char* arg_name_;
  std::uint64_t tick_;
  std::uint64_t start_ns_ = 0;
  std::uint64_t arg_ = 0;
};

}  // namespace manet::obs
