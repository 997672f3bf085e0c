// In-memory span recorder for the benchmark's traced runs.
//
// A span is (name, start, end, parent) around one public call into a
// layer. Spans are appended to a vector while the workload runs and
// written out once at exit, so recording costs one clock read and one
// push_back per boundary. run.py turns them into self time per layer.
#pragma once

#include <chrono>
#include <cstdint>
#include <fstream>
#include <string>
#include <vector>

namespace perfbench {

class SpanRecorder {
 public:
  struct Span {
    const char* name;
    std::int64_t start_ns;
    std::int64_t end_ns;
    std::int32_t parent;  ///< index of the enclosing span, -1 at the root
  };

  /// Closes its span on destruction; inert when the recorder is off.
  class Scope {
   public:
    Scope(SpanRecorder* recorder, const char* name)
        : recorder_(recorder != nullptr && recorder->on_ ? recorder : nullptr),
          index_(recorder_ != nullptr ? recorder_->open(name) : -1) {}
    ~Scope() {
      if (recorder_ != nullptr) recorder_->close(index_);
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    SpanRecorder* recorder_;
    std::int32_t index_;
  };

  /// Recording is switched per tick, so traced and untraced ticks of one
  /// run can be compared (the tracing overhead).
  void set_on(bool on) { on_ = on; }

  /// Writes one JSON object per line: name, start, end (ns), parent.
  bool write(const std::string& path) const {
    std::ofstream out(path);
    for (const Span& s : spans_)
      out << "{\"name\": \"" << s.name << "\", \"start\": " << s.start_ns
          << ", \"end\": " << s.end_ns << ", \"parent\": " << s.parent
          << "}\n";
    return static_cast<bool>(out);
  }

 private:
  std::int64_t now_ns() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now() - epoch_)
        .count();
  }
  std::int32_t open(const char* name) {
    const auto index = static_cast<std::int32_t>(spans_.size());
    spans_.push_back({name, now_ns(), 0, current_});
    current_ = index;
    return index;
  }
  void close(std::int32_t index) {
    Span& s = spans_[static_cast<std::size_t>(index)];
    s.end_ns = now_ns();
    current_ = s.parent;
  }

  std::chrono::steady_clock::time_point epoch_ =
      std::chrono::steady_clock::now();
  std::vector<Span> spans_;
  std::int32_t current_ = -1;
  bool on_ = false;
};

}  // namespace perfbench
