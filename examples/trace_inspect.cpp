// Query CLI over the protocol event journal (obs::Journal JSONL, as
// written by `bench/churn_maintenance --engine=proto --journal-out=...`
// or Journal::write_jsonl_file).
//
// The journal records every transmission of the maintenance protocol
// with its causal envelope (trace id, parent id, wave depth), so repair
// waves can be walked backward from any message to the beacon that
// started them — the same parent links the Perfetto flow arrows render.
//
// Modes:
//  * timeline (default): events grouped by engine tick, optionally
//    filtered by --node=<id> and/or --tick=<k>.
//  * --trace-id=<id>: the causal chain of that message — every retained
//    ancestor back to the wave root, oldest first.
//  * --deepest: finds the deepest wave in the journal (max causal depth)
//    and prints its chain — the go-to smoke query when no trace id is
//    known a priori (CI runs it against the bench's journal artifact).
//  * --demo: no input file needed — runs a 4-node head-merge repair
//    in-process (two clusters drift into range, rule 1 resigns the
//    larger head, its member re-affiliates) and inspects the resulting
//    journal, demonstrating a connected multi-node causal chain.
//
// Usage: trace_inspect <journal.jsonl> [--node=v] [--tick=k]
//                      [--trace-id=id | --deepest] [--limit=k]
//        trace_inspect --demo
#include <cstdio>
#include <fstream>
#include <optional>
#include <set>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/flags.hpp"
#include "obs/journal.hpp"
#include "obs/session.hpp"
#include "proto/engine.hpp"

namespace {

using namespace manet;

/// Parses one write_jsonl line (fixed key order) into a JournalEvent.
/// `types` interns the type strings so the events' borrowed pointers
/// stay valid for the program's lifetime.
std::optional<obs::JournalEvent> parse_line(const std::string& line,
                                            std::set<std::string>& types) {
  const auto field = [&](const char* key) -> std::optional<std::uint64_t> {
    const std::string needle = std::string("\"") + key + "\":";
    const auto pos = line.find(needle);
    if (pos == std::string::npos) return std::nullopt;
    return std::strtoull(line.c_str() + pos + needle.size(), nullptr, 10);
  };
  const auto tick = field("tick");
  const auto round = field("round");
  const auto node = field("node");
  const auto trace = field("trace");
  const auto parent = field("parent");
  const auto depth = field("depth");
  const auto a = field("a");
  const auto b = field("b");
  const auto tpos = line.find("\"type\":\"");
  if (!tick || !round || !node || !trace || !parent || !depth || !a || !b ||
      tpos == std::string::npos)
    return std::nullopt;
  const auto tstart = tpos + 8;
  const auto tend = line.find('"', tstart);
  if (tend == std::string::npos) return std::nullopt;
  const auto& interned =
      *types.insert(line.substr(tstart, tend - tstart)).first;
  obs::JournalEvent e;
  e.tick = *tick;
  e.round = static_cast<std::uint32_t>(*round);
  e.node = static_cast<std::uint32_t>(*node);
  e.type = interned.c_str();
  e.trace_id = *trace;
  e.parent_id = *parent;
  e.depth = static_cast<std::uint32_t>(*depth);
  e.a = *a;
  e.b = *b;
  return e;
}

/// Parent-link walk result: the retained slice of a wave, oldest first.
/// When the walk hits a parent id that is no longer in the window (the
/// journal ring wrapped past it), `missing_ancestor` records that id so
/// the output can say exactly where — and why — the chain stops.
struct Chain {
  std::vector<obs::JournalEvent> events;
  std::uint64_t missing_ancestor = 0;
};

/// Parent-link walk from `trace_id` back to the wave root, oldest first.
Chain chain_of(const std::vector<obs::JournalEvent>& events,
               const std::unordered_map<std::uint64_t, std::size_t>& by_trace,
               std::uint64_t trace_id) {
  Chain chain;
  std::uint64_t cursor = trace_id;
  while (cursor != 0 && chain.events.size() <= events.size()) {
    const auto it = by_trace.find(cursor);
    if (it == by_trace.end()) {
      // Ancestor evicted by ring wrap: stop here and report it, rather
      // than pretending the retained prefix is the whole wave.
      chain.missing_ancestor = cursor;
      break;
    }
    chain.events.push_back(events[it->second]);
    cursor = events[it->second].parent_id;
  }
  std::reverse(chain.events.begin(), chain.events.end());
  return chain;
}

void print_chain(const Chain& chain) {
  if (chain.events.empty()) {
    std::puts("  (trace id not in the journal window)");
    return;
  }
  if (chain.missing_ancestor != 0)
    std::printf("  (ancestor trace %llu evicted from the journal ring — "
                "older part of the wave is lost)\n",
                static_cast<unsigned long long>(chain.missing_ancestor));
  for (std::size_t i = 0; i < chain.events.size(); ++i)
    std::printf("  %*s%s\n", static_cast<int>(2 * i), "",
                obs::Journal::format_event(chain.events[i]).c_str());
  std::printf("  wave: %zu message(s), depth %u, %s -> final sender %u\n",
              chain.events.size(), chain.events.back().depth,
              chain.events.front().parent_id == 0 ? "rooted" : "truncated",
              chain.events.back().node);
}

int inspect(const std::vector<obs::JournalEvent>& events,
            const Flags& flags) {
  if (events.empty()) {
    std::puts("journal is empty");
    return 1;
  }
  std::unordered_map<std::uint64_t, std::size_t> by_trace;
  by_trace.reserve(events.size());
  for (std::size_t i = 0; i < events.size(); ++i)
    by_trace.emplace(events[i].trace_id, i);

  if (flags.has("trace-id")) {
    const auto id = static_cast<std::uint64_t>(flags.get_count("trace-id", 0));
    std::printf("causal chain of trace %llu:\n",
                static_cast<unsigned long long>(id));
    print_chain(chain_of(events, by_trace, id));
    return 0;
  }

  if (flags.get_bool("deepest")) {
    std::size_t best = 0;
    for (std::size_t i = 1; i < events.size(); ++i)
      if (events[i].depth > events[best].depth) best = i;
    std::printf("deepest wave (depth %u, trace %llu):\n", events[best].depth,
                static_cast<unsigned long long>(events[best].trace_id));
    print_chain(chain_of(events, by_trace, events[best].trace_id));
    return 0;
  }

  // Timeline: events grouped by engine tick, filtered by node/tick.
  const bool filter_node = flags.has("node");
  const bool filter_tick = flags.has("tick");
  const auto want_node = static_cast<std::uint32_t>(flags.get_count("node", 0));
  const auto want_tick = static_cast<std::uint64_t>(flags.get_count("tick", 0));
  const auto limit = flags.get_count("limit", 200);
  std::uint64_t last_tick = ~std::uint64_t{0};
  std::size_t shown = 0, matched = 0;
  for (const auto& e : events) {
    if (filter_node && e.node != want_node) continue;
    if (filter_tick && e.tick != want_tick) continue;
    ++matched;
    if (shown >= limit) continue;
    if (e.tick != last_tick) {
      std::printf("--- tick %llu ---\n",
                  static_cast<unsigned long long>(e.tick));
      last_tick = e.tick;
    }
    std::printf("%s\n", obs::Journal::format_event(e).c_str());
    ++shown;
  }
  if (matched > shown)
    std::printf("... %zu more event(s) (raise --limit)\n", matched - shown);
  std::printf("%zu of %zu event(s) matched\n", matched, events.size());
  return 0;
}

/// In-process demo: the 4-node head-merge scenario. Nodes 0-1 and 2-3
/// form two clusters (heads 0 and 2); node 2 drifts into node 1's range,
/// head 2 hears head 0's beacon, resigns by rule 1, and node 3
/// re-affiliates by rule 2 — a causal chain spanning three node tracks.
int run_demo(const Flags& flags) {
  std::vector<geom::Point> pts{{0, 0}, {1, 0}, {10, 0}, {11, 0}};
  proto::EngineOptions opts;
  opts.oracle_check = true;
  obs::Session session;
  opts.obs = &session;
  proto::MaintenanceEngine engine(pts, 1.5, 20.0, 5.0, opts);
  engine.stage_move(2, {1.4, 0});
  engine.tick();

  std::vector<obs::JournalEvent> events;
  session.journal.for_each(
      [&](const obs::JournalEvent& e) { events.push_back(e); });
  std::puts("demo: 4-node head merge (node 2 drifts next to cluster 0-1)\n");
  const int rc = inspect(events, flags);
  if (!events.empty() && !flags.has("trace-id") && !flags.get_bool("deepest")) {
    std::puts("\ndeepest repair wave:");
    std::size_t best = 0;
    for (std::size_t i = 1; i < events.size(); ++i)
      if (events[i].depth > events[best].depth) best = i;
    std::unordered_map<std::uint64_t, std::size_t> by_trace;
    for (std::size_t i = 0; i < events.size(); ++i)
      by_trace.emplace(events[i].trace_id, i);
    print_chain(chain_of(events, by_trace, events[best].trace_id));
  }
  return rc;
}

}  // namespace

int main(int argc, char** argv) {
  const Flags flags(argc, argv);
  if (flags.get_bool("demo")) return run_demo(flags);

  const std::string path = flags.positional_count() > 0
                               ? flags.positional(0)
                               : flags.get("journal", "");
  if (path.empty()) {
    std::fprintf(stderr,
                 "usage: trace_inspect <journal.jsonl> [--node=v] [--tick=k]"
                 " [--trace-id=id | --deepest] [--limit=k]\n"
                 "       trace_inspect --demo\n");
    return 2;
  }
  std::ifstream in(path);
  if (!in.good()) {
    std::fprintf(stderr, "cannot open %s\n", path.c_str());
    return 2;
  }
  std::set<std::string> types;
  std::vector<obs::JournalEvent> events;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    if (auto e = parse_line(line, types)) events.push_back(*e);
  }
  return inspect(events, flags);
}
