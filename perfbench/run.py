#!/usr/bin/env python3
"""The repository benchmark.

    python3 perfbench/run.py --workload paper|corpus|served --seed N \\
        --seconds S --trace 0|1

Run from the root of a checkout. Builds perfbench/ (and the analysis
libraries under src/) into $CARGO_TARGET_DIR or .bench_build, runs the
driver on the workload, checks the outputs, prints every metric by name
with its unit, and ends with one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics, --trace 1 the per-layer metrics
of a traced run. NOTES.md describes the workloads and the metrics.
"""

import argparse
import json
import os
import signal
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import answers  # noqa: E402
import stats  # noqa: E402

DRIVER_TIMEOUT_S = 170
# Width of the windows whose median round trips make served's p50s.
SERVED_WINDOW_S = 0.1


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_driver(build_root):
    """Configures once, then builds incrementally. Returns the driver path."""
    build = build_root / "perfbench"
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not (build / "CMakeCache.txt").exists():
        subprocess.run(["cmake", "-S", str(HERE), "-B", str(build),
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", str(build), "-j", jobs,
                    "--target", "perfbench_driver"],
                   check=True, stdout=sys.stderr)
    return build / "perfbench_driver"


# ---------------------------------------------------------------------------
# End-to-end metrics (untraced run)
# ---------------------------------------------------------------------------

def e2e_common(doc, out, attempted, failed):
    out["setup_s"] = (stats.median(doc["setup_s"]), "s", len(doc["setup_s"]))
    out["peak_rss_mb"] = (doc["peak_rss_mb"], "MB", 1)
    out["ok_frac"] = (1.0 - failed / attempted if attempted else 0.0,
                      "ratio", attempted)


def latency_metrics(out, warm_ms, cold_ms):
    """Medians, plus the warm tail by the percentile rule. When even p75
    has fewer than ten samples beyond it, the tail is p75 all the same: it
    has the most samples beyond it of the rule's percentiles, where the
    maximum has none and jumps with a single slow sample."""
    warm = stats.summarize(warm_ms)
    out["edit_p50_ms"] = (warm["p50"], "ms", warm["n"])
    tail = warm["tail"] if warm["tail"] is not None else \
        stats.percentile(warm_ms, stats.TAIL_PERCENTILES[-1])
    out["edit_p99_ms"] = (tail, "ms", warm["n"], warm["tail_p"])
    out["full_p50_ms"] = (stats.median(cold_ms), "ms", len(cold_ms))


def paper_e2e(doc, failures):
    cold, warm = defaultdict(list), defaultdict(list)
    expected = json.loads(answers.EXPECTED.read_text())
    attempted = doc["attempted"]
    for run in doc["runs"]:
        name = run["name"]
        if run.get("child_failed"):
            failures.append("%s: the cold child failed" % name)
            continue
        c = run["cold"]
        problems = []
        if not c["ok"]:
            problems.append(c["error"])
        elif not c["converged"]:
            problems.append("did not converge")
        if run["guard"]:
            problems.append("cold isolation: " + run["guard"])
        if run["mismatch"]:
            problems.append(run["mismatch"])
        if c["ok"]:
            problems += answers.check(name, run["answer"], expected)
        if problems:
            failures.append("%s: %s" % (name, "; ".join(problems)))
        cold[name].append(c["seconds"])
        warm[name].extend(run["warm"])
    out = {}
    if cold:
        out["cold_s"] = (sum(stats.median(v) for v in cold.values()), "s",
                         sum(map(len, cold.values())))
        out["warm_s"] = (sum(stats.median(v) for v in warm.values()), "s",
                         sum(map(len, warm.values())))
        n_cold = sum(map(len, cold.values()))
        n_warm = sum(map(len, warm.values()))
        out["programs_per_s"] = (n_cold / doc["wall_s"], "1/s", n_cold)
        out["requests_per_s"] = ((n_cold + n_warm) / doc["wall_s"], "1/s",
                                 n_cold + n_warm)
        # The paper programs differ by four orders of magnitude, so a
        # percentile over single programs only says which program sits at
        # the rank. A latency sample here is one pass over the suite: all
        # programs cold, or one warm repeat of all of them.
        runs = [r for r in doc["runs"] if not r.get("child_failed")]
        cold_pass, warm_pass = defaultdict(float), defaultdict(float)
        for r in runs:
            p = r["pass"]
            cold_pass[p] += 1e3 * r["cold"]["seconds"]
            for i, t in enumerate(r["warm"]):
                warm_pass[(p, i)] += 1e3 * t
        latency_metrics(out, list(warm_pass.values()),
                        list(cold_pass.values()))
    e2e_common(doc, out, attempted, len(failures))
    return out, attempted, len(failures)


def corpus_e2e(doc, failures):
    files = doc["files"]
    passes = doc["file_s"]
    if doc["failed"]:
        failures.append("%d failed file verifications (%d not converged); "
                        "soundness violations: %s"
                        % (doc["failed"], doc["not_converged"],
                           doc["soundness_violations"]))
    if not doc["deterministic"]:
        failures.append("corpus generation is not deterministic")
    if not doc["verdicts_repeat"]:
        failures.append("verdict counts differ between passes")
    # Every file verification starts from nothing (program, graph,
    # transformers, oracle), so all passes are cold; passes after the
    # first run with the process's caches, allocator and pool warm. (The
    # first pass alone, one sample per file, moves too much run to run.)
    later = passes[1:] or passes
    out = {
        "cold_s": (sum(stats.median([p[i] for p in passes])
                       for i in range(files)), "s", files * len(passes)),
        "warm_s": (sum(stats.median([p[i] for p in later])
                       for i in range(files)), "s", files * len(later)),
        "programs_per_s": (stats.median([files / t for t in doc["pass_s"]]),
                           "1/s", len(doc["pass_s"])),
        "requests_per_s": (doc["attempted"] / sum(doc["pass_s"]), "1/s",
                           doc["attempted"]),
    }
    latency_metrics(out, [1e3 * t for p in later for t in p],
                    [1e3 * t for p in passes for t in p])
    attempted = doc["attempted"]
    failed = doc["failed"] + (not doc["deterministic"]) + \
        (not doc["verdicts_repeat"])
    e2e_common(doc, out, attempted, failed)
    return out, attempted, failed


def served_e2e(doc, failures):
    if "error" in doc:
        failures.append(doc["error"])
        return {}, 1, 1
    for e in doc["errors"]:
        failures.append(e)
    if doc["final_mismatches"]:
        failures.append("%d sessions: last warm fingerprint differs from a "
                        "cold:true analyze" % doc["final_mismatches"])
    if doc["below_reuse_floor"]:
        failures.append("%d warm analyzes below the transformer-reuse floor"
                        % doc["below_reuse_floor"])
    # Round trips per (client, program state) and session, and when each
    # started. The machine switches between a fast and a slow speed for
    # seconds at a time, so the round trips of a run fall into two modes
    # and the median of the whole run jumps between them from run to run.
    # Means, and medians taken per 100 ms and averaged, follow the share
    # of each mode instead (stats.windowed_median).
    edit = [v for by_session in doc["edit_ms"] for v in by_session]
    full = [v for by_session in doc["full_ms"] for v in by_session]
    edit_at = [v for by_session in doc["edit_at"] for v in by_session]
    full_at = [v for by_session in doc["full_at"] for v in by_session]
    out = {
        "cold_s": (sum(stats.mean(v) for v in full if v) / 1e3, "s",
                   sum(map(len, full))),
        "warm_s": (sum(stats.mean(v) for v in edit if v) / 1e3, "s",
                   sum(map(len, edit))),
        "programs_per_s": (doc["cycles"] / doc["wall_s"], "1/s",
                           doc["cycles"]),
        "requests_per_s": (doc["requests"] / doc["wall_s"], "1/s",
                           doc["requests"]),
    }
    latency_metrics(out, [t for v in edit for t in v],
                    [t for v in full for t in v])
    for key, ms, at in (("edit_p50_ms", edit, edit_at),
                        ("full_p50_ms", full, full_at)):
        pairs = [p for v, t in zip(ms, at) for p in zip(t, v)]
        out[key] = (stats.windowed_median(pairs, SERVED_WINDOW_S), "ms",
                    len(pairs))
    # One unit for both: edit+analyze cycles (each fails at most once) and
    # the end-of-run warm-versus-cold check of each session.
    attempted = doc["cycles"] + doc["final_checks"]
    failed = doc["failed"] + doc["final_mismatches"]
    e2e_common(doc, out, attempted, failed)
    return out, attempted, failed


# ---------------------------------------------------------------------------
# Per-layer metrics (traced run)
# ---------------------------------------------------------------------------

LAYER_SPANS = {
    "core.solve.self_s": "core.solve",
    "core.precompile.self_s": "core.precompile",
    "lang.parse.self_s": "lang.parse",
    "analysis.lint.self_s": "analysis.lint",
    "cfg.lower.self_s": "cfg.lower",
    "cfg.wto.self_s": "cfg.wto",
    "checks.check.self_s": "checks.check",
    "domains.render.self_s": "domains.render",
    "concrete.oracle.self_s": "concrete.oracle",
    "server.session.edit.self_s": "server.session.edit",
    "server.session.analyze.self_s": "server.session.analyze",
}

PER_LAYER_UNITS = {
    "core.solve.self_s": "s", "core.precompile.self_s": "s",
    "core.node_updates": "count", "core.widenings": "count",
    "core.interpret_calls": "count", "poly.chernikova_calls": "count",
    "poly.escalations": "count",
    "poly.conv_hit_ratio.cold": "ratio", "poly.conv_hit_ratio.cold.base": "count",
    "poly.conv_hit_ratio.warm": "ratio", "poly.conv_hit_ratio.warm.base": "count",
    "lang.parse.self_s": "s", "analysis.lint.self_s": "s",
    "cfg.lower.self_s": "s", "cfg.wto.self_s": "s",
    "checks.check.self_s": "s", "domains.render.self_s": "s",
    "concrete.oracle.self_s": "s", "support.pool.busy_frac": "ratio",
    "checks.verdicts.safe": "count", "checks.verdicts.unproved": "count",
    "checks.verdicts.violated": "count",
    "server.wire.self_s": "s", "server.session.edit.self_s": "s",
    "server.session.analyze.self_s": "s",
    "server.transformer_reuse": "ratio", "server.transformer_reuse.base": "count",
    "server.nodes_reused": "ratio", "server.nodes_reused.base": "count",
    "server.threads_end": "count",
}


def span_totals(path, root=None):
    """Self seconds and durations per span name (see stats.span_file_totals)."""
    selfs, durs = stats.span_file_totals(path, root)
    return ({k: v * 1e-9 for k, v in selfs.items()},
            defaultdict(float, {k: v * 1e-9 for k, v in durs.items()}))


def conv_ratio(out, phase, hits, misses):
    r = stats.ratio(hits, hits + misses)
    out["poly.conv_hit_ratio." + phase] = r["value"]
    out["poly.conv_hit_ratio.%s.base" % phase] = r["base"]


def per_layer(workload, doc, spans):
    """Per-layer values per unit of work: a pass over the programs for
    paper and corpus, one edit+analyze cycle for served."""
    out = {name: 0.0 for name in PER_LAYER_UNITS}
    if workload == "paper":
        units = doc["passes"]
        selfs, _ = span_totals(spans, root="paper.cold")
        runs = [r for r in doc["runs"] if not r.get("child_failed")]
        for key, field in (("core.node_updates", "node_updates"),
                           ("core.widenings", "widenings"),
                           ("core.interpret_calls", "interpret_calls"),
                           ("poly.chernikova_calls", "chernikova"),
                           ("poly.escalations", "escalations")):
            out[key] = sum(r["cold"][field] for r in runs) / units
        for v in ("safe", "unproved", "violated"):
            out["checks.verdicts." + v] = sum(
                r["cold"]["verdicts"][v] for r in runs) / units
        conv_ratio(out, "cold", sum(r["cold"]["conv_hits"] for r in runs),
                   sum(r["cold"]["conv_misses"] for r in runs))
        conv_ratio(out, "warm", sum(r["warm_conv_hits"] for r in runs),
                   sum(r["warm_conv_misses"] for r in runs))
    elif workload == "corpus":
        units = len(doc["pass_s"])
        selfs, _ = span_totals(spans)
        counters = doc["pass_counters"]
        for key, field in (("core.node_updates", "node_updates"),
                           ("core.widenings", "widenings"),
                           ("core.interpret_calls", "interpret_calls"),
                           ("poly.chernikova_calls", "chernikova"),
                           ("poly.escalations", "escalations")):
            out[key] = sum(c[field] for c in counters) / units
        for v in ("safe", "unproved", "violated"):
            out["checks.verdicts." + v] = doc["verdicts_pass"][v]
        conv_ratio(out, "cold", counters[0]["conv_hits"],
                   counters[0]["conv_misses"])
        later = counters[1:]
        conv_ratio(out, "warm", sum(c["conv_hits"] for c in later),
                   sum(c["conv_misses"] for c in later))
        out["support.pool.busy_frac"] = stats.median(doc["busy_frac"])
    else:
        units = max(1, doc.get("cycles", 0))
        selfs, durs = span_totals(spans)
        solve = doc.get("solve_s", 0.0)
        out["core.solve.self_s"] = solve / units
        for key, field in (("core.node_updates", "node_updates"),
                           ("core.widenings", "widenings"),
                           ("core.interpret_calls", "interpret_calls")):
            out[key] = doc.get(field, 0) / units
        session = durs["server.session.edit"] + durs["server.session.analyze"]
        requests = durs["server.request.edit"] + durs["server.request.analyze"]
        out["server.wire.self_s"] = (requests - session) / units
        r = stats.ratio(doc.get("transformers_reused", 0),
                        doc.get("transformers_total", 0))
        out["server.transformer_reuse"] = r["value"]
        out["server.transformer_reuse.base"] = r["base"] / max(
            1, doc.get("warm_analyzes", 0))
        r = stats.ratio(doc.get("nodes_reused", 0), doc.get("nodes_total", 0))
        out["server.nodes_reused"] = r["value"]
        out["server.nodes_reused.base"] = r["base"] / max(
            1, doc.get("warm_analyzes", 0))
        out["server.threads_end"] = doc.get("threads_end", 0)
    for key, name in LAYER_SPANS.items():
        if key != "core.solve.self_s" or workload != "served":
            out[key] = selfs.get(name, 0.0) / units
    if workload == "served":
        # The solve runs inside the session's analyze; the server reports
        # its duration, which is taken out of the analyze self time.
        out["server.session.analyze.self_s"] -= out["core.solve.self_s"]
    return out


# ---------------------------------------------------------------------------

def print_table(title, rows):
    print(title)
    for name, value, unit, detail in rows:
        print("  %-32s %16.6g %-6s %s" % (name, value, unit, detail))


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=("paper", "corpus", "served"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        log("perfbench: no analysis sources next to perfbench/ (expected "
            "src/CMakeLists.txt); run from the root of a full checkout")
        return 2
    build_root = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not build_root.is_absolute():
        build_root = ROOT / build_root
    try:
        driver = build_driver(build_root)
    except (subprocess.CalledProcessError, OSError) as e:
        log("perfbench: build failed: %s" % e)
        return 2

    out_dir = build_root / "perfbench-out"
    out_dir.mkdir(parents=True, exist_ok=True)
    out = out_dir / ("%s-%d-%d.json" % (args.workload, args.seed, args.trace))
    cmd = [str(driver), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--out", str(out)]
    started = time.monotonic()
    # Its own process group, so a timeout also stops the paper children.
    proc = subprocess.Popen(cmd, stdout=sys.stderr, start_new_session=True)
    try:
        code = proc.wait(timeout=DRIVER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        log("perfbench: driver timed out after %d s" % DRIVER_TIMEOUT_S)
        return 1
    if code != 0:
        log("perfbench: driver exited with %d" % code)
        return 1
    log("perfbench: driver ran %.1f s" % (time.monotonic() - started))
    doc = json.loads(out.read_text())

    failures = []
    e2e, attempted, failed = {"paper": paper_e2e, "corpus": corpus_e2e,
                              "served": served_e2e}[args.workload](doc,
                                                                   failures)
    correct = not failures and not failed

    rows = []
    for k, (value, unit, n, *tail) in e2e.items():
        detail = "n=%d" % n
        if tail:
            detail += ", percentile p%g" % tail[0] if tail[0] else \
                ", percentile p75 (fewer than 10 samples beyond it)"
        rows.append((k, value, unit, detail))
    # A traced run still measures end to end; its difference from an
    # untraced run of the same seed is the tracing overhead.
    print_table("end-to-end metrics (%s%s)" % (
        args.workload, ", traced" if args.trace else ""), rows)
    if args.trace:
        layers = per_layer(args.workload, doc, str(out) + ".spans")
        metrics = {k: {"value": v, "unit": PER_LAYER_UNITS[k]}
                   for k, v in layers.items()}
        print_table("per-layer metrics (%s, per %s)" % (
            args.workload, "cycle" if args.workload == "served" else "pass"),
            [(k, v, PER_LAYER_UNITS[k], "") for k, v in layers.items()])
    else:
        metrics = {k: {"value": v[0], "unit": v[1]} for k, v in e2e.items()}
    for f in failures[:20]:
        print("FAIL: " + f)
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
