#include "obs/journal.hpp"

#include <algorithm>
#include <fstream>
#include <ostream>
#include <sstream>

#include "common/assert.hpp"

namespace manet::obs {

Journal::Journal(std::size_t capacity) : capacity_(capacity) {
  MANET_REQUIRE(capacity_ > 0, "journal needs a positive capacity");
  ring_.reserve(std::min<std::size_t>(capacity_, 1024));
}

void Journal::clear() {
  ring_.clear();
  next_ = 0;
  total_ = 0;
}

std::optional<JournalEvent> Journal::find_trace(
    std::uint64_t trace_id) const {
  std::optional<JournalEvent> hit;
  if (trace_id == 0) return hit;
  for_each([&](const JournalEvent& e) {
    if (e.trace_id == trace_id) hit = e;
  });
  return hit;
}

std::vector<JournalEvent> Journal::causal_chain(
    std::uint64_t trace_id) const {
  std::vector<JournalEvent> chain;
  std::uint64_t cursor = trace_id;
  // Parent ids strictly precede their children (assigned by a monotonic
  // send counter), so the walk terminates; the size bound is defensive.
  while (cursor != 0 && chain.size() <= size()) {
    const auto e = find_trace(cursor);
    if (!e) break;  // ancestor overwritten by ring wrap
    chain.push_back(*e);
    cursor = e->parent_id;
  }
  std::reverse(chain.begin(), chain.end());
  return chain;
}

std::optional<JournalEvent> Journal::last_event_of(
    std::uint32_t node) const {
  std::optional<JournalEvent> hit;
  for_each([&](const JournalEvent& e) {
    if (e.node == node) hit = e;
  });
  return hit;
}

void Journal::write_jsonl(std::ostream& out) const {
  for_each([&](const JournalEvent& e) {
    out << "{\"tick\":" << e.tick << ",\"round\":" << e.round
        << ",\"node\":" << e.node << ",\"type\":\"" << e.type
        << "\",\"trace\":" << e.trace_id << ",\"parent\":" << e.parent_id
        << ",\"depth\":" << e.depth << ",\"a\":" << e.a << ",\"b\":" << e.b
        << "}\n";
  });
}

void Journal::write_jsonl_file(const std::string& path) const {
  std::ofstream out(path);
  MANET_REQUIRE(out.good(), "cannot open journal output file: " + path);
  write_jsonl(out);
}

std::string Journal::format_event(const JournalEvent& e) {
  std::ostringstream os;
  os << "[tick " << e.tick << " round " << e.round << "] node " << e.node
     << ' ' << e.type << " trace=" << e.trace_id
     << " parent=" << e.parent_id << " depth=" << e.depth << " a=" << e.a
     << " b=" << e.b;
  return os.str();
}

}  // namespace manet::obs
