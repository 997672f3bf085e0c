// One benchmark run of manetcast, on one thread: generates a workload's
// inputs from a seed, times engine setup and ticks, checks the results,
// and prints the raw samples as one JSON object on stdout.
// perfbench/run.py builds this program and turns its output into the
// benchmark's metrics; run that script, not this binary.
//
//   perfbench_runner --workload <name> --seed <n> --seconds <s>
//                    [--spans <path>]
//   perfbench_runner --probe
//
// --seconds fixes the amount of work (ticks = seconds * the workload's
// nominal tick rate), so every count is a pure function of the seed and
// the run length. --spans records a span around each public call into a
// layer, on every other tick, and writes them to <path> at exit.
// --probe times the host probe alone, in a process of its own so that
// its table stays out of the workload's peak RSS.
#include <algorithm>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <map>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "broadcast/si_cds.hpp"
#include "common/rng.hpp"
#include "common/rss.hpp"
#include "core/dynamic_broadcast.hpp"
#include "core/state_hash.hpp"
#include "core/static_backbone.hpp"
#include "exp/mobility_mix.hpp"
#include "graph/algorithms.hpp"
#include "incr/pipeline.hpp"
#include "proto/engine.hpp"
#include "spans.hpp"

namespace {

using namespace manet;
using perfbench::SpanRecorder;
using Scope = SpanRecorder::Scope;
using Clock = std::chrono::steady_clock;

double ms_since(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

constexpr double kSide = 100.0;  // the paper's 100 x 100 working space
constexpr auto kMode = core::CoverageMode::kTwoPointFiveHop;
constexpr auto kGrid = geom::GridIndex::kSparse;

struct Workload {
  std::string_view name;
  bool proto;                 ///< proto::MaintenanceEngine, else incr
  std::size_t nodes;
  double degree;              ///< target mean degree
  std::size_t movers;         ///< nodes moved per tick
  double ticks_per_second;    ///< nominal rate: ticks = seconds * rate
  std::size_t setups;         ///< constructions behind the setup median
  std::size_t sources;        ///< SD + SI broadcasts inside every tick
  std::size_t connect_attempts;
};

constexpr Workload kWorkloads[] = {
    {"proto-1m-steady", true, 1000000, 6.0, 100, 10.0, 3, 0, 1},
    {"incr-300k-churn", false, 300000, 6.0, 1000, 14.0, 7, 0, 1},
    {"bcast-100k-d18", false, 100000, 18.0, 20, 2.8, 9, 1, 3},
};

/// Everything the program under test receives: the initial layout and,
/// per tick, the (node, new position) moves to stage.
struct Inputs {
  std::vector<geom::Point> initial;
  double range = 0.0;
  bool connected = false;
  std::vector<std::size_t> tick_begin;  ///< tick t: [tick_begin[t], [t+1])
  std::vector<NodeId> mover;
  std::vector<geom::Point> target;
  std::vector<NodeId> sources;  ///< broadcast sources, tick-major
  std::uint64_t fingerprint = 0;

  std::size_t ticks() const { return tick_begin.size() - 1; }
};

std::uint64_t fold_point(std::uint64_t h, geom::Point p) {
  h = core::state_hash_mix(h, std::bit_cast<std::uint64_t>(p.x));
  return core::state_hash_mix(h, std::bit_cast<std::uint64_t>(p.y));
}

/// Waypoint mobility over a streaming cell-major placement, all drawn
/// from `seed`; the digest of the result is the input fingerprint.
Inputs make_inputs(const Workload& w, std::uint64_t seed, std::size_t ticks) {
  exp::ChurnConfig c;
  c.nodes = w.nodes;
  c.degree = w.degree;
  c.move_fraction =
      static_cast<double>(w.movers) / static_cast<double>(w.nodes);
  c.seed = seed;
  c.mode = kMode;
  c.connect_attempts = w.connect_attempts;
  c.grid = kGrid;
  c.streaming_build = true;
  c.streaming_placement = true;
  exp::MobilityMix mix(c);

  Inputs in;
  in.initial = mix.positions();
  in.range = mix.range();
  in.connected = mix.connected();
  std::uint64_t h = 14695981039346656037ULL;
  h = core::state_hash_mix(h, w.nodes);
  h = core::state_hash_mix(h, std::bit_cast<std::uint64_t>(in.range));
  for (const geom::Point& p : in.initial) h = fold_point(h, p);
  in.tick_begin.reserve(ticks + 1);
  for (std::size_t t = 0; t < ticks; ++t) {
    in.tick_begin.push_back(in.mover.size());
    for (const NodeId v : mix.advance(w.movers)) {
      in.mover.push_back(v);
      in.target.push_back(mix.positions()[v]);
      h = fold_point(core::state_hash_mix(h, v), in.target.back());
    }
  }
  in.tick_begin.push_back(in.mover.size());
  Rng source_rng(derive_seed(seed, 1, 0));
  for (std::size_t i = 0; i < ticks * w.sources; ++i) {
    in.sources.push_back(static_cast<NodeId>(source_rng.below(w.nodes)));
    h = core::state_hash_mix(h, in.sources.back());
  }
  in.fingerprint = h;
  return in;
}

proto::EngineOptions proto_options() {
  proto::EngineOptions o;
  o.mode = kMode;
  o.grid = kGrid;
  o.streaming_build = true;
  o.threads = 1;
  return o;
}

incr::PipelineOptions incr_options() {
  incr::PipelineOptions o;
  o.mode = kMode;
  o.grid = kGrid;
  o.streaming_build = true;
  o.threads = 1;
  return o;
}

volatile std::uint64_t probe_sink = 0;

/// Fixed compute-plus-memory kernel: xorshift arithmetic, then a
/// dependent random walk over a 256 MiB table filled beforehand (so page
/// faults stay out of the timing); the median of five timings. The table
/// is larger than the last-level cache because memory latency drifts on
/// a shared host as much as clock speed does. Timed before and after a
/// run: run.py scales the run's times by it.
double host_probe_ms() {
  constexpr std::size_t kWords = std::size_t{1} << 25;
  std::vector<std::uint64_t> table(kWords);
  std::uint64_t x = 0x9e3779b97f4a7c15ULL;
  for (std::uint64_t& word : table) word = x += 0x9e3779b97f4a7c15ULL;
  std::vector<double> ms;
  for (int repeat = 0; repeat < 5; ++repeat) {
    const auto start = Clock::now();
    for (std::size_t i = 0; i < (std::size_t{1} << 24); ++i) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
    }
    std::uint64_t at = x;
    for (std::size_t i = 0; i < (std::size_t{1} << 19); ++i)
      at = table[(at * 0x2545f4914f6cdd1dULL + i) >> 39];
    probe_sink = at;  // the work must finish before the clock is read
    ms.push_back(ms_since(start));
  }
  std::nth_element(ms.begin(), ms.begin() + 2, ms.end());
  return ms[2];
}

/// Raw measurements of one run.
struct Run {
  Run(const Workload& workload, const Inputs& inputs, SpanRecorder* recorder)
      : w(workload), in(inputs), spans(recorder) {}

  const Workload& w;
  const Inputs& in;
  SpanRecorder* spans;  ///< nullptr when untraced

  std::vector<double> setup_s, tick_ms, traced_tick_ms;
  std::map<std::string, double> tick_counts;   ///< totals over all ticks
  std::map<std::string, double> bcast_counts;  ///< totals over broadcasts
  std::map<std::string, double> phase_ms;      ///< totals, traced ticks
  std::size_t broadcasts = 0;
  std::size_t rss_bytes = 0;
  std::uint64_t state_hash = 0;
  std::size_t attempted = 0, failed = 0;
  std::vector<std::string> errors;

  void fail(std::string why) {
    ++failed;
    errors.push_back(std::move(why));
  }
  /// Spans cover setup and every other tick, not the correctness gates.
  void trace(bool on) {
    if (spans != nullptr) spans->set_on(on);
  }
};

/// Times one tick: `body` stages the tick's moves and ticks the engine.
template <class Body>
void timed_tick(Run& r, std::size_t t, Body&& body) {
  const bool traced = r.spans != nullptr && t % 2 == 0;
  r.trace(traced);
  const auto start = Clock::now();
  {
    Scope s(r.spans, "tick");
    body();
  }
  (traced ? r.traced_tick_ms : r.tick_ms).push_back(ms_since(start));
  ++r.attempted;
}

/// One tick's broadcasts: each source once through SD-CDS and once
/// through SI-CDS, over the tick's snapshot.
struct Broadcasts {
  std::vector<NodeId> sources;
  std::vector<core::BroadcastResult> sd;
  std::vector<broadcast::BroadcastStats> si;
};

void broadcast_all(Run& r, const graph::Graph& g, const NodeSet& cds,
                   const core::DynamicBackbone& dyn, Broadcasts& out) {
  for (const NodeId source : out.sources) {
    {
      Scope s(r.spans, "core.sd");
      out.sd.push_back(core::dynamic_broadcast(g, dyn, source));
    }
    Scope s(r.spans, "broadcast.si");
    out.si.push_back(broadcast::si_cds_broadcast(g, cds, source));
  }
}

/// Every broadcast must reach the whole component of its source.
void check_broadcasts(Run& r, const graph::Graph& g, const Broadcasts& b) {
  if (b.sources.empty()) return;
  const auto [label, components] = graph::components(g);
  std::vector<double> size(components, 0.0);
  for (const std::uint32_t c : label) size[c] += 1.0;
  const auto reached = [](const std::vector<char>& received) {
    return static_cast<double>(
        std::count(received.begin(), received.end(), char{1}));
  };
  auto& c = r.bcast_counts;
  for (std::size_t i = 0; i < b.sources.size(); ++i) {
    const NodeId source = b.sources[i];
    const double component = size[label[source]];
    const core::BroadcastResult& sd = b.sd[i];
    const broadcast::BroadcastStats& si = b.si[i];
    const double sd_reached = reached(sd.received);
    const double si_reached = reached(si.received);
    r.attempted += 2;
    ++r.broadcasts;
    for (const auto& [what, got] :
         {std::pair{"SD-CDS", sd_reached}, std::pair{"SI-CDS", si_reached}})
      if (got != component)
        r.fail(std::string(what) + " broadcast from " +
               std::to_string(source) + " reached " + std::to_string(got) +
               " of its component's " + std::to_string(component) + " nodes");
    c["reached"] += sd_reached + si_reached;
    c["component_nodes"] += 2.0 * component;
    c["core.sd.forward_nodes"] += static_cast<double>(sd.forward_count());
    c["core.sd.transmissions"] += static_cast<double>(sd.trace.size());
    c["core.sd.latency_hops"] += sd.latency_hops();
    c["broadcast.si.forward_nodes"] += static_cast<double>(si.forward_count());
    c["broadcast.si.transmissions"] += static_cast<double>(si.transmissions);
    c["broadcast.si.latency_hops"] += si.latency_hops();
  }
}

std::uint64_t state_hash_of(const incr::IncrementalBackbone& b) {
  return core::backbone_state_hash(b.clustering(), b.tables(), b.coverage(),
                                   b.selection(), b.gateways(), b.cds());
}

/// Final state hash of an untimed, untraced incr::IncrementalPipeline
/// replaying the inputs' moves: the state every run must end on.
std::uint64_t replay_state_hash(const Inputs& in) {
  incr::IncrementalPipeline witness(in.initial, in.range, kSide, kSide,
                                    incr_options());
  for (std::size_t t = 0; t < in.ticks(); ++t) {
    for (std::size_t k = in.tick_begin[t]; k < in.tick_begin[t + 1]; ++k)
      witness.stage_move(in.mover[k], in.target[k]);
    witness.tick();
  }
  return state_hash_of(witness.backbone());
}

void run_proto(Run& r) {
  const Inputs& in = r.in;
  std::unique_ptr<proto::MaintenanceEngine> engine;
  for (std::size_t i = 0; i < r.w.setups; ++i) {
    engine.reset();
    std::vector<geom::Point> positions = in.initial;
    r.trace(true);
    const auto start = Clock::now();
    {
      Scope s(r.spans, "proto.setup");
      engine = std::make_unique<proto::MaintenanceEngine>(
          std::move(positions), in.range, kSide, kSide, proto_options());
    }
    r.setup_s.push_back(ms_since(start) / 1000.0);
  }

  auto& c = r.tick_counts;
  for (std::size_t t = 0; t < in.ticks(); ++t) {
    proto::MaintTickStats st;
    timed_tick(r, t, [&] {
      {
        Scope s(r.spans, "proto.stage");
        for (std::size_t k = in.tick_begin[t]; k < in.tick_begin[t + 1]; ++k)
          engine->stage_move(in.mover[k], in.target[k]);
      }
      Scope s(r.spans, "proto.tick");
      st = engine->tick();
    });
    c["net.rounds"] += st.rounds;
    c["net.deliveries"] += static_cast<double>(st.delivery.deliveries);
    c["net.dispatches"] += static_cast<double>(st.delivery.dispatches);
    c["proto.msgs.hello"] += static_cast<double>(st.messages.maint_hello);
    c["proto.msgs.repair"] +=
        static_cast<double>(st.messages.r1_status + st.messages.r2_status);
    c["proto.msgs.rows"] +=
        static_cast<double>(st.messages.ch_hop1 + st.messages.ch_hop2);
    c["proto.msgs.gateway"] += static_cast<double>(st.messages.gateway);
    c["proto.msgs"] += static_cast<double>(st.messages.maintenance_total());
    c["proto.link_changes"] += static_cast<double>(st.link_changes);
    c["proto.head_changes"] += static_cast<double>(st.head_changes);
    c["proto.rows_changed"] += static_cast<double>(st.rows_changed);
    c["proto.heads_refreshed"] += static_cast<double>(st.heads_refreshed);
    if (r.spans != nullptr && t % 2 == 0) {
      r.phase_ms["proto.deliver_ms"] += st.deliver_ms;
      r.phase_ms["proto.node_step_ms"] += st.node_step_ms;
      r.phase_ms["proto.mirror_ms"] += st.mirror_ms;
    }
  }
  r.rss_bytes = peak_rss_bytes();
  r.state_hash = engine->state_hash();
  engine.reset();

  // Witness: the incremental engine replays the same moves and must land
  // on the same state.
  if (replay_state_hash(in) != r.state_hash)
    r.fail("proto state hash differs from the incremental replay's");
}

/// The incremental engine as a run drives it: the IncrementalPipeline
/// facade when untraced, or, when traced, its two layers called directly
/// — DeltaTracker::commit then IncrementalBackbone::apply, the calls
/// tick() makes at threads=1 — so each gets its own span.
class IncrEngine {
 public:
  IncrEngine(std::vector<geom::Point> positions, double range,
             SpanRecorder* spans)
      : spans_(spans) {
    if (spans == nullptr) {
      pipeline_.emplace(std::move(positions), range, kSide, kSide,
                        incr_options());
      return;
    }
    {
      Scope s(spans, "incr.setup.tracker");
      tracker_.emplace(std::move(positions), range, kSide, kSide, kGrid,
                       true);
    }
    Scope s(spans, "incr.setup.backbone");
    backbone_.emplace(tracker_->adjacency(), kMode);
  }

  void stage_move(NodeId v, geom::Point p) {
    if (pipeline_) {
      pipeline_->stage_move(v, p);
    } else {
      tracker_->stage_move(v, p);
    }
  }

  incr::TickStats tick() {
    if (pipeline_) return pipeline_->tick();
    incr::EdgeDelta delta;
    {
      Scope s(spans_, "incr.commit");
      incr::CommitOptions opts;
      opts.regions = &partition_;
      delta = tracker_->commit(opts);
    }
    Scope s(spans_, "incr.repair");
    return backbone_->apply(tracker_->adjacency(), delta);
  }

  const incr::IncrementalBackbone& backbone() const {
    return pipeline_ ? pipeline_->backbone() : *backbone_;
  }

  graph::Graph freeze_graph() const {
    Scope s(spans_, "incr.freeze");
    return pipeline_ ? pipeline_->freeze_graph()
                     : tracker_->adjacency().freeze();
  }

  core::StaticBackbone materialize() const {
    Scope s(spans_, "incr.materialize");
    return backbone().materialize();
  }

 private:
  SpanRecorder* spans_;
  std::optional<incr::IncrementalPipeline> pipeline_;
  std::optional<incr::DeltaTracker> tracker_;
  std::optional<incr::IncrementalBackbone> backbone_;
  incr::RegionPartition partition_;
};

void run_incr(Run& r) {
  const Inputs& in = r.in;
  std::optional<IncrEngine> engine;
  for (std::size_t i = 0; i < r.w.setups; ++i) {
    engine.reset();
    std::vector<geom::Point> positions = in.initial;
    r.trace(true);
    const auto start = Clock::now();
    engine.emplace(std::move(positions), in.range, r.spans);
    r.setup_s.push_back(ms_since(start) / 1000.0);
  }

  auto& c = r.tick_counts;
  for (std::size_t t = 0; t < in.ticks(); ++t) {
    incr::TickStats st;
    graph::Graph g;
    Broadcasts b;
    b.sources.assign(in.sources.begin() + t * r.w.sources,
                     in.sources.begin() + (t + 1) * r.w.sources);
    timed_tick(r, t, [&] {
      {
        Scope s(r.spans, "incr.stage");
        for (std::size_t k = in.tick_begin[t]; k < in.tick_begin[t + 1]; ++k)
          engine->stage_move(in.mover[k], in.target[k]);
      }
      st = engine->tick();
      if (b.sources.empty()) return;
      // The snapshot the broadcasts read, then the broadcasts.
      g = engine->freeze_graph();
      core::StaticBackbone sb = engine->materialize();
      const core::DynamicBackbone dyn{sb.mode, std::move(sb.clustering),
                                      std::move(sb.tables),
                                      std::move(sb.coverage)};
      broadcast_all(r, g, sb.cds, dyn, b);
    });
    check_broadcasts(r, g, b);
    c["incr.link_changes"] += static_cast<double>(st.link_changes);
    c["incr.head_changes"] += static_cast<double>(st.head_changes);
    c["incr.backbone_changes"] += static_cast<double>(st.backbone_changes);
    c["incr.rows_recomputed"] += static_cast<double>(st.rows_recomputed);
    c["incr.heads_reselected"] += static_cast<double>(st.heads_reselected);
  }
  r.rss_bytes = peak_rss_bytes();
  r.state_hash = state_hash_of(engine->backbone());

  // Gate: the final maintained backbone satisfies Theorem 1.
  r.trace(false);
  const std::string invalid = core::validate_static_backbone(
      engine->freeze_graph(), engine->materialize());
  if (!invalid.empty()) r.fail("final backbone invalid: " + invalid);

  // A traced run drives DeltaTracker and IncrementalBackbone directly; it
  // must land on the state the untraced run's pipeline reaches.
  if (r.spans != nullptr) {
    engine.reset();
    if (replay_state_hash(in) != r.state_hash)
      r.fail("traced state hash differs from the pipeline replay's");
  }
}

void print_array(const char* key, const std::vector<double>& values) {
  std::printf("\"%s\": [", key);
  for (std::size_t i = 0; i < values.size(); ++i)
    std::printf("%s%.17g", i == 0 ? "" : ", ", values[i]);
  std::printf("], ");
}

void print_map(const char* key, const std::map<std::string, double>& m) {
  std::printf("\"%s\": {", key);
  bool first = true;
  for (const auto& [name, value] : m) {
    std::printf("%s\"%s\": %.17g", first ? "" : ", ", name.c_str(), value);
    first = false;
  }
  std::printf("}, ");
}

/// Error text safe inside a JSON string (the messages are plain ASCII).
std::string json_escape(const std::string& s) {
  std::string out;
  for (const char ch : s) {
    if (ch == '"' || ch == '\\') out += '\\';
    out += ch;
  }
  return out;
}

void print_run(const Run& r, std::uint64_t seed) {
  std::printf("{\"workload\": \"%s\", \"seed\": %llu, \"nodes\": %zu, ",
              std::string(r.w.name).c_str(),
              static_cast<unsigned long long>(seed), r.w.nodes);
  std::printf("\"ticks\": %zu, \"broadcasts\": %zu, \"connected\": %s, ",
              r.in.ticks(), r.broadcasts, r.in.connected ? "true" : "false");
  std::printf("\"fingerprint\": \"%016llx\", \"state_hash\": \"%016llx\", ",
              static_cast<unsigned long long>(r.in.fingerprint),
              static_cast<unsigned long long>(r.state_hash));
  print_array("setup_s", r.setup_s);
  print_array("tick_ms", r.tick_ms);
  print_array("traced_tick_ms", r.traced_tick_ms);
  print_map("tick_counts", r.tick_counts);
  print_map("bcast_counts", r.bcast_counts);
  print_map("phase_ms", r.phase_ms);
  std::printf("\"rss_bytes\": %zu, ", r.rss_bytes);
  std::printf("\"attempted\": %zu, \"failed\": %zu, \"errors\": [",
              r.attempted, r.failed);
  for (std::size_t i = 0; i < r.errors.size(); ++i)
    std::printf("%s\"%s\"", i == 0 ? "" : ", ",
                json_escape(r.errors[i]).c_str());
  std::printf("]}\n");
}

int usage(const char* why) {
  std::fprintf(stderr,
               "perfbench_runner: %s\nusage: perfbench_runner --workload "
               "<name> --seed <n> --seconds <s> [--spans <path>]\n"
               "       perfbench_runner --probe\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc == 2 && std::string_view(argv[1]) == "--probe") {
    std::printf("%.17g\n", host_probe_ms());
    return 0;
  }
  std::map<std::string, std::string> args;
  for (int i = 1; i + 1 < argc; i += 2) args[argv[i]] = argv[i + 1];
  if (argc % 2 != 1 || !args.contains("--workload") ||
      !args.contains("--seed") || !args.contains("--seconds"))
    return usage("missing or unpaired arguments");
  const Workload* w = nullptr;
  for (const Workload& candidate : kWorkloads)
    if (candidate.name == args["--workload"]) w = &candidate;
  if (w == nullptr) return usage("unknown workload");
  std::uint64_t seed = 0;
  double seconds = 0.0;
  try {
    seed = std::stoull(args["--seed"]);
    seconds = std::stod(args["--seconds"]);
  } catch (const std::exception&) {
    return usage("--seed and --seconds take numbers");
  }
  if (!(seconds > 0.0 && seconds <= 600.0))
    return usage("--seconds must be in (0, 600]");
  const std::string spans_path =
      args.contains("--spans") ? args["--spans"] : "";

  const auto ticks = std::max<std::size_t>(
      1, static_cast<std::size_t>(std::llround(seconds * w->ticks_per_second)));
  const Inputs in = make_inputs(*w, seed, ticks);
  SpanRecorder recorder;
  Run run(*w, in, spans_path.empty() ? nullptr : &recorder);
  try {
    if (w->proto) {
      run_proto(run);
    } else {
      run_incr(run);
    }
  } catch (const std::exception& e) {
    run.fail(std::string("exception: ") + e.what());
  }
  if (!spans_path.empty() && !recorder.write(spans_path))
    run.fail("cannot write " + spans_path);
  print_run(run, seed);
  return 0;
}
