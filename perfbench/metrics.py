"""Pure metric arithmetic of the benchmark: percentiles, span self
times, and the mapping from the runner's raw samples of one run to the
end-to-end and per-layer metrics named in BENCHMARK.json."""

import re
import statistics

NAME_PATTERN = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")

# Host probe reading that end-to-end times are scaled to (host_scale).
PROBE_REF_MS = 50.0

WORKLOADS = ("proto-1m-steady", "incr-300k-churn", "bcast-100k-d18")
PROTO, INCR, BCAST = WORKLOADS
TICK = "tick_norm_ms_*"

# Every per-layer metric: the end-to-end metric it should move, the
# workload it should move it on, and where its value comes from:
#   ("span", name)        mean self time per call of span `name`, in ms
#   ("phase", key)        the engine's own phase time, per traced tick
#   ("tick", key)         a count the runner totals over ticks, per tick
#   ("bcast", key)        a count the runner totals over broadcasts, per
#                         broadcast
#   ("span_pct", (n, q))  q-th percentile of span `n`'s durations, in ms
#   ("tick_pct", q)       q-th percentile of the untraced ticks, in ms,
#                         as measured (not scaled)
#   ("derived", None)     computed from the others in per_layer
# A layer a workload does not call reads 0 on that workload.
LAYER_TARGETS = {
    "proto.setup_ms": ("setup_s", PROTO, ("span", "proto.setup")),
    "proto.tick_ms": (TICK, PROTO, ("span", "proto.tick")),
    "proto.deliver_ms": (TICK, PROTO, ("phase", "proto.deliver_ms")),
    "proto.node_step_ms": (TICK, PROTO, ("phase", "proto.node_step_ms")),
    "proto.mirror_ms": (TICK, PROTO, ("phase", "proto.mirror_ms")),
    "proto.other_ms": (TICK, PROTO, ("derived", None)),
    "net.rounds": (TICK, PROTO, ("tick", "net.rounds")),
    "net.deliveries": (TICK, PROTO, ("tick", "net.deliveries")),
    "net.dispatches": (TICK, PROTO, ("tick", "net.dispatches")),
    "proto.msgs.hello": (TICK, PROTO, ("tick", "proto.msgs.hello")),
    "proto.msgs.repair": (TICK, PROTO, ("tick", "proto.msgs.repair")),
    "proto.msgs.rows": (TICK, PROTO, ("tick", "proto.msgs.rows")),
    "proto.msgs.gateway": (TICK, PROTO, ("tick", "proto.msgs.gateway")),
    "msgs_per_node_tick": (TICK, PROTO, ("derived", None)),
    "proto.link_changes": (TICK, PROTO, ("tick", "proto.link_changes")),
    "proto.head_changes": (TICK, PROTO, ("tick", "proto.head_changes")),
    "proto.rows_changed": (TICK, PROTO, ("tick", "proto.rows_changed")),
    "proto.heads_refreshed": (TICK, PROTO, ("tick", "proto.heads_refreshed")),
    "incr.setup.tracker_ms": ("setup_s", f"{INCR}, {BCAST}",
                              ("span", "incr.setup.tracker")),
    "incr.setup.backbone_ms": ("setup_s", f"{INCR}, {BCAST}",
                               ("span", "incr.setup.backbone")),
    "incr.commit_ms": (TICK, INCR, ("span", "incr.commit")),
    "incr.repair_ms": (TICK, INCR, ("span", "incr.repair")),
    "incr.link_changes": (TICK, INCR, ("tick", "incr.link_changes")),
    "incr.head_changes": (TICK, INCR, ("tick", "incr.head_changes")),
    "incr.backbone_changes": (TICK, INCR, ("tick", "incr.backbone_changes")),
    "incr.rows_recomputed": (TICK, INCR, ("tick", "incr.rows_recomputed")),
    "incr.heads_reselected": (TICK, INCR, ("tick", "incr.heads_reselected")),
    "incr.freeze_ms": (TICK, BCAST, ("span", "incr.freeze")),
    "incr.materialize_ms": (TICK, BCAST, ("span", "incr.materialize")),
    "sd_bcast_ms_p50": (TICK, BCAST, ("span_pct", ("core.sd", 50))),
    "sd_bcast_ms_p90": (TICK, BCAST, ("span_pct", ("core.sd", 90))),
    "si_bcast_ms_p50": (TICK, BCAST, ("span_pct", ("broadcast.si", 50))),
    "sd_fwd_per_bcast": (TICK, BCAST, ("bcast", "core.sd.forward_nodes")),
    "si_fwd_per_bcast": (TICK, BCAST, ("bcast", "broadcast.si.forward_nodes")),
    "core.sd.transmissions": (TICK, BCAST, ("bcast", "core.sd.transmissions")),
    "core.sd.latency_hops": (TICK, BCAST, ("bcast", "core.sd.latency_hops")),
    "broadcast.si.transmissions": (TICK, BCAST,
                                   ("bcast", "broadcast.si.transmissions")),
    "broadcast.si.latency_hops": (TICK, BCAST,
                                  ("bcast", "broadcast.si.latency_hops")),
    "delivery_ratio": ("correct", BCAST, ("derived", None)),
    "tick_ms_p50": (TICK, "all", ("tick_pct", 50)),
    "tick_ms_p90": (TICK, "all", ("tick_pct", 90)),
    "host.probe_ms": ("setup_s and tick_norm_ms_* (their scale)", "all",
                      ("derived", None)),
    "trace.overhead_ratio": ("none (tracing cost)", "all", ("derived", None)),
}


def valid_name(name):
    """A metric or workload name: a letter or digit, then at most 63
    letters, digits, '_', '.' or '-'."""
    return NAME_PATTERN.fullmatch(name) is not None


def percentile(values, q):
    """The q-th percentile (0..100) of `values`, interpolating linearly
    between the two closest ranks."""
    if not values:
        raise ValueError("percentile of no values")
    if not 0 <= q <= 100:
        raise ValueError("percentile rank outside 0..100")
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q / 100.0
    low = int(pos)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (pos - low)


def spread(values):
    """Distance between the first and third quartile as a share of the
    median, with statistics.quantiles(values, n=4)."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2


def self_times(spans):
    """Per span name: (total self time in ns, number of calls). A span's
    self time is its duration minus the durations of its child spans."""
    child_ns = [0] * len(spans)
    for span in spans:
        if span["parent"] >= 0:
            child_ns[span["parent"]] += span["end"] - span["start"]
    totals = {}
    for span, children in zip(spans, child_ns):
        total, calls = totals.get(span["name"], (0, 0))
        totals[span["name"]] = (
            total + span["end"] - span["start"] - children, calls + 1)
    return totals


def durations_ms(spans, name):
    """Durations in ms of every span called `name`."""
    return [(s["end"] - s["start"]) / 1e6 for s in spans if s["name"] == name]


def host_scale(raw):
    """Factor that puts a run's times on a host whose probe reads
    PROBE_REF_MS: the shared host's clock and memory latency drift by a
    quarter or more over tens of minutes, and the probe before and after
    the run follows that drift."""
    return PROBE_REF_MS / statistics.fmean(raw["probe_ms"])


def end_to_end(raw):
    """The end-to-end metrics of an untraced run, by name.

    setup_s and tick_norm_ms_* are probe-normalised: scaled by
    host_scale, so they read as on a host whose probe takes PROBE_REF_MS.
    The tick is reported at its lower quartile, which moves only when
    nearly all of a run fell in one of the host's slow phases, and at
    its mean, which any slower share of ticks moves."""
    scale = host_scale(raw)
    return {
        "setup_s": statistics.median(raw["setup_s"]) * scale,
        "tick_norm_ms_p25": percentile(raw["tick_ms"], 25) * scale,
        "tick_norm_ms_mean": statistics.fmean(raw["tick_ms"]) * scale,
        "rss_b_per_node": raw["rss_bytes"] / raw["nodes"],
    }


def measured(raw):
    """The run's times as measured, unscaled: figures to cite, not
    metrics with a bound."""
    ticks = raw["tick_ms"]
    return {"ticks_timed": len(ticks),
            "setup_s": statistics.median(raw["setup_s"]),
            "tick_ms_p25": percentile(ticks, 25),
            "tick_ms_p50": percentile(ticks, 50),
            "tick_ms_p90": percentile(ticks, 90),
            "tick_ms_mean": statistics.fmean(ticks),
            "host_scale": host_scale(raw)}


def per_layer(raw, spans):
    """The per-layer metrics of a traced run, by name. A layer the
    workload does not call reads 0."""
    selfs = self_times(spans)
    ticks, broadcasts = raw["ticks"], raw["broadcasts"]
    traced_ticks = len(raw["traced_tick_ms"])
    counts = raw["bcast_counts"]
    out = {}
    for name, (_, _, (kind, key)) in LAYER_TARGETS.items():
        if kind == "span":
            total_ns, calls = selfs.get(key, (0, 0))
            out[name] = total_ns / calls / 1e6 if calls else 0.0
        elif kind == "phase":
            out[name] = raw["phase_ms"].get(key, 0.0) / traced_ticks
        elif kind == "tick":
            out[name] = raw["tick_counts"].get(key, 0) / ticks
        elif kind == "bcast":
            out[name] = counts.get(key, 0) / broadcasts if broadcasts else 0.0
        elif kind == "span_pct":
            samples = durations_ms(spans, key[0])
            out[name] = percentile(samples, key[1]) if samples else 0.0
        elif kind == "tick_pct":
            out[name] = percentile(raw["tick_ms"], key)
    phases = [n for n, (_, _, (kind, _)) in LAYER_TARGETS.items()
              if kind == "phase"]
    out["proto.other_ms"] = (
        out["proto.tick_ms"] - sum(out[p] for p in phases)
        if out["proto.tick_ms"] else 0.0)
    out["msgs_per_node_tick"] = (
        raw["tick_counts"].get("proto.msgs", 0) / (ticks * raw["nodes"]))
    out["delivery_ratio"] = (counts["reached"] / counts["component_nodes"]
                             if broadcasts else 0.0)
    out["host.probe_ms"] = statistics.fmean(raw["probe_ms"])
    out["trace.overhead_ratio"] = (
        statistics.median(raw["traced_tick_ms"])
        / statistics.median(raw["tick_ms"]))
    return out


def deterministic_record(raw):
    """What must repeat exactly across runs of one workload, seed and run
    length, traced or not."""
    return {
        "fingerprint": raw["fingerprint"],
        "state_hash": raw["state_hash"],
        "ticks": raw["ticks"],
        "broadcasts": raw["broadcasts"],
        "tick_counts": raw["tick_counts"],
        "bcast_counts": raw["bcast_counts"],
    }


def drift(expected, got):
    """Keys whose values differ between two deterministic records."""
    return sorted(k for k in expected.keys() & got.keys()
                  if expected[k] != got[k])
