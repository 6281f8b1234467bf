"""Closed-loop benchmark of the nablamu command line.

    python3 perfbench/run.py --workload interpolate|entails|modelcheck|all \
        --seed N --seconds S --trace 0|1

One client, one request in flight: each request runs ``nablamu.cli.main``
with ``--format structured`` in a fresh interpreter (every CLI call starts
with cold process-wide caches), and the next request starts when it ends.
The run repeats the workload's request list (a pass) a fixed number of
times, ``--seconds`` over PASS_NOMINAL_S and at least twice, so the sample
count and the percentile ``latency_tail_s`` reads do not depend on how fast
the code under test runs.  Outputs are then checked
against the oracle and against hand-written verdicts, and each output's hash
is compared with earlier runs of the same inputs on the same code.

Times are reported at a fixed reference speed.  After every request a fixed
interpreter start-up (reference.py) is timed; each time metric is
multiplied by REFERENCE_NOMINAL_S over the run's median reference time.
The small shared machines this runs on change speed by up to 2x from one
minute to the next, and the reference moves with them, so the scaled
figures stay comparable between runs; the report also prints the raw ones.

The last line of stdout is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` (end-to-end metrics with ``--trace 0``, per-layer
metrics from spans with ``--trace 1``).  Lines before it are a report.
Everything is written under ``.perfbench/`` in the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import marshal
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import checks
import tracer
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
STATE = ROOT / ".perfbench"

REQUEST_LIMIT_S = 60.0  # a request running longer is killed and fails
RUN_DEADLINE_S = 100.0  # no request starts later, so runs end within 180 s
PASS_NOMINAL_S = 11.0  # a pass's time at the seed; sets the pass count
HASH_SEED = "0"  # it moves timings; see baseline.json for the measurement
REFERENCE_NOMINAL_S = 0.090  # reference.py's typical time on a 2-core VM

CHILD_ENV = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED=HASH_SEED)


class Record:
    __slots__ = ("req", "wall_s", "verdict_s", "rc", "rss_kb", "stdout", "crash",
                 "input_key", "trace")


def _input_key(argv, workdir: Path) -> str:
    h = hashlib.sha256(json.dumps(argv).encode())
    for arg in argv:
        path = workdir / arg
        if path.is_file():
            h.update(path.read_bytes())
    return h.hexdigest()


def spawn(req, index: int, workdir: Path, trace: bool) -> Record:
    """Run one request in a child interpreter; wait for it to end."""
    result = workdir / f"result{index}.json"
    spans = workdir / f"result{index}.json.trace"
    out_path = workdir / f"stdout{index}.txt"
    for p in (result, spans, out_path):
        if p.exists():
            p.unlink()
    argv = req.argv + ["--format", "structured"]
    cmd = [sys.executable, str(HERE / "child.py"), str(result),
           "1" if trace else "0", str(index), "--", *argv]
    rec = Record()
    rec.req, rec.input_key = req, _input_key(argv, workdir)
    with open(out_path, "wb") as out:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=workdir, env=CHILD_ENV, stdout=out,
                                stderr=subprocess.DEVNULL)
        timer = threading.Timer(REQUEST_LIMIT_S, os.kill, (proc.pid, signal.SIGKILL))
        timer.start()
        # wait without reaping, so the timer can never signal a reused pid
        os.waitid(os.P_PID, proc.pid, os.WEXITED | os.WNOWAIT)
        rec.wall_s = time.perf_counter() - start
        timer.cancel()
        timer.join()
        _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    rec.rss_kb = usage.ru_maxrss
    rec.stdout = out_path.read_text(encoding="utf-8", errors="replace")
    rec.rc, rec.verdict_s, rec.trace, rec.crash = proc.returncode, None, None, None
    if proc.returncode == -signal.SIGKILL:
        rec.crash = f"killed after the {REQUEST_LIMIT_S:.0f} s request limit"
    elif not result.is_file():
        rec.crash = f"no result record (exit {proc.returncode})"
    else:
        data = json.loads(result.read_text())
        rec.crash = data["crash"]
        rec.verdict_s = data["verdict_s"]
        if spans.is_file():
            with open(spans, "rb") as fh:
                rec.trace = marshal.load(fh)  # written by our own child
    return rec


def _save_output(req, rec: Record, workdir: Path) -> None:
    field, name = req.save
    try:
        text = json.loads(rec.stdout)[field]
    except (ValueError, KeyError, TypeError):
        text = ""
    (workdir / name).write_text(text)


def reference_s() -> float:
    """Wall time of one run of reference.py."""
    start = time.perf_counter()
    subprocess.run([sys.executable, "-I", str(HERE / "reference.py")], check=True)
    return time.perf_counter() - start


def pass_count(seconds: float) -> int:
    """Passes per run: fixed by ``--seconds`` alone, never by measured speed."""
    return max(2, round(seconds / PASS_NOMINAL_S))


def run_passes(wl, workdir: Path, passes_wanted: int, trace: bool):
    """Run the pass ``passes_wanted`` times, or until RUN_DEADLINE_S cuts it
    short (the requests not started then count as failed).  A pass's time is
    the sum of its requests' wall times.  Returns (passes, reference times);
    each pass is (time or None if cut short, records)."""
    passes, refs = [], []
    t0 = time.perf_counter()
    index = 0
    while len(passes) < passes_wanted:
        recs = []
        for req in wl.requests:
            if time.perf_counter() - t0 > RUN_DEADLINE_S:
                break
            rec = spawn(req, index, workdir, trace)
            index += 1
            if req.save:
                _save_output(req, rec, workdir)
            recs.append(rec)
            refs.append(reference_s())
        complete = len(recs) == len(wl.requests)
        passes.append((sum(r.wall_s for r in recs) if complete else None, recs))
        if not complete:
            break
    return passes, refs


# --------------------------------------------------------------------------
# Correctness


def _code_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "nablamu").rglob("*.py")):
        h.update(path.relative_to(SRC).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def verify(records, workdir: Path, planned: int):
    """Returns (failures, known_failures) as lists of (record, reason)."""
    store_path = STATE / "output-hashes.json"
    digest = _code_digest()
    try:
        store = json.loads(store_path.read_text())
    except (OSError, ValueError):
        store = {}
    if store.get("code") != digest:
        store = {"code": digest, "outputs": {}}
    seen = store["outputs"]
    failures, known = [], []
    for rec in records:
        reason = rec.crash
        if reason is None:
            reason = checks.judge(rec.req, rec.rc, rec.stdout, workdir)
            if reason is not None and rec.req.known_failure:
                known.append((rec, reason))
                reason = None
        sha = hashlib.sha256(rec.stdout.encode()).hexdigest()
        first = seen.setdefault(rec.input_key, sha)
        if reason is None and first != sha:
            reason = "output differs from an earlier run of the same input"
        if reason is not None:
            failures.append((rec, reason))
    for _ in range(planned - len(records)):
        failures.append((None, "not started before the run deadline"))
    STATE.mkdir(exist_ok=True)
    store_path.write_text(json.dumps(store))
    return failures, known


# --------------------------------------------------------------------------
# Metrics


def tail(values):
    """The highest percentile with at least ten samples beyond it, as
    (value, percentile); the maximum when there are ten or fewer."""
    xs = sorted(values)
    n = len(xs)
    if n <= 10:
        return xs[-1], 100.0
    return xs[n - 11], 100.0 * (n - 10) / n


def end_to_end(passes, scale: float = 1.0):
    """End-to-end metrics, times multiplied by ``scale``."""
    records = [r for _, recs in passes for r in recs if r.verdict_s is not None]
    verdicts = [r.verdict_s for r in records]
    tail_s, pct = tail(verdicts)
    times = [t for t, _ in passes if t is not None]
    return {
        "batch_s": (scale * statistics.median(times), "s"),
        "latency_p50_s": (scale * statistics.median(verdicts), "s"),
        "latency_tail_s": (scale * tail_s, "s"),
        "setup_s": (scale * statistics.median(r.wall_s - r.verdict_s for r in records), "s"),
        "peak_rss_mb": (max(r.rss_kb for _, recs in passes for r in recs) / 1024, "MB"),
    }, {"samples": len(verdicts), "tail_percentile": pct, "passes": len(times)}


# Per-layer metrics, named function.field after the traced function, and
# their units.
LAYER_METRICS = {
    "automata.normalize.self_s": "s",
    "automata.normalize.incl_s": "s",
    "automata.build_arena.calls": "count",
    "automata.build_arena.self_s": "s",
    "automata.build_arena.positions": "count",
    "automata.accepts.self_s": "s",
    "games.solve_parity.calls": "count",
    "games.solve_parity.self_s": "s",
    "games.solve_parity.positions": "count",
    "functors.minimal_witnesses.calls": "count",
    "functors.minimal_witnesses.self_s": "s",
    "functors.minimal_witnesses.distinct_frac": "ratio",
    "coalgebra.canonical_models.self_s": "s",
    "coalgebra.canonical_models.models": "count",
    "coalgebra.greatest_bisimulation.self_s": "s",
    "coalgebra.parse_model.self_s": "s",
    "logic.eval_formula.calls": "count",
    "logic.eval_formula.self_s": "s",
    "logic.eval_formula.calls_per_model": "ratio",
    "logic.parse_formula.self_s": "s",
    "translation.formula_to_automaton.self_s": "s",
    "translation.formula_to_automaton.states": "count",
    "translation.automaton_to_formula.self_s": "s",
    "translation.automaton_to_formula.chars": "count",
    "projection.project_automaton.self_s": "s",
    "projection.project_automaton.elems_in": "count",
    "projection.project_automaton.elems_out": "count",
    "interpolation.entails_bounded.self_s": "s",
    "interpolation.entails_bounded.points": "count",
    "interpolation.uniform_interpolant.self_s": "s",
    "cli.main.self_s": "s",
}


def layer_totals(records) -> tuple:
    """Sum span summaries and counters over requests; returns (per-function
    totals, missing function names)."""
    totals, missing = {}, set()
    for rec in records:
        t = rec.trace
        if t is None:
            continue
        missing.update(t["missing"])
        names, spans = t["names"], t["spans"]
        rows = tracer.summarize(names, spans)
        for name, c in t["counts"].items():
            rows[name].update(c)
        rows["interpolation.entails_bounded"]["points"] = tracer.count_under(
            names, spans, "logic.satisfies", "interpolation.entails_bounded")
        for name, row in rows.items():
            acc = totals.setdefault(name, {})
            for k, v in row.items():
                acc[k] = acc.get(k, 0) + v
    mw = totals.get("functors.minimal_witnesses", {})
    if mw.get("calls"):
        mw["distinct_frac"] = mw.get("keys", 0) / mw["calls"]
    ev = totals.get("logic.eval_formula", {})
    if ev.get("calls"):
        ev["calls_per_model"] = ev["calls"] / max(1, ev.get("models", 0))
    return totals, sorted(missing)


def per_layer(passes, failures, known, attempted, scale):
    records = [r for _, recs in passes for r in recs]
    n = max(1, len([t for t, _ in passes if t is not None]))
    totals, missing = layer_totals(records)
    metrics = {}
    for metric, unit in LAYER_METRICS.items():
        fn, field = metric.rsplit(".", 1)
        value = totals.get(fn, {}).get(field, 0)
        if unit != "ratio":
            value = value / n
        if unit == "s":
            value *= scale
        metrics[metric] = (value, unit)
    chars = 0
    for r in records:
        try:
            out = json.loads(r.stdout)
        except ValueError:
            continue
        chars += len(out.get("interpolant") or out.get("formula") or "")
    metrics["requests.fail_frac"] = ((len(failures) + len(known)) / attempted, "ratio")
    metrics["requests.known_failures"] = (len(known) / n, "count")
    metrics["requests.output_chars"] = (chars / n, "count")
    times = [t for t, _ in passes if t is not None]
    metrics["trace.batch_s"] = (scale * statistics.median(times) if times else 0.0, "s")
    return metrics, totals, missing


# --------------------------------------------------------------------------
# Driver


def run_workload(name: str, seed: int, seconds: float, trace: bool, report):
    wl = workloads.WORKLOADS[name](seed)
    workdir = STATE / "work" / name
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    for fname, text in wl.files.items():
        (workdir / fname).write_text(text)
    t0 = time.perf_counter()
    # compile the package's bytecode before timing; users do not pay it per call
    subprocess.run([sys.executable, "-c", "import nablamu.cli"], cwd=workdir,
                   env=CHILD_ENV, check=True)
    wanted = pass_count(seconds)
    passes, refs = run_passes(wl, workdir, wanted, trace)
    records = [r for _, recs in passes for r in recs]
    planned = wanted * len(wl.requests)
    failures, known = verify(records, workdir, planned)
    scale = REFERENCE_NOMINAL_S / statistics.median(refs)
    e2e, info = end_to_end(passes, scale)
    raw, _ = end_to_end(passes)
    report(f"workload {name}  seed {seed}  trace {int(trace)}  "
           f"{info['passes']} passes of {len(wl.requests)} requests  "
           f"({time.perf_counter() - t0:.1f} s with checks)")
    report(f"  reference median {statistics.median(refs) * 1000:.2f} ms "
           f"(n={len(refs)}); times below are scaled by {scale:.4f}, raw in brackets")
    for metric, (value, unit) in e2e.items():
        note = ""
        if metric == "latency_p50_s":
            note = f"  (n={info['samples']})"
        elif metric == "latency_tail_s":
            note = f"  (p{info['tail_percentile']:.1f}, n={info['samples']})"
        elif metric == "batch_s":
            note = "  (passes: " + ", ".join(
                f"{t:.2f}" for t, _ in passes if t is not None) + ")"
        if unit == "s":
            note = f"  [{raw[metric][0]:.4f}]" + note
        report(f"  {metric:<16} {value:12.4f} {unit}{note}")
    by_key = {}
    for r in records:
        if r.verdict_s is not None:
            by_key.setdefault(r.req.key, []).append(r.verdict_s)
    report("  median verdict_s by request: " + ", ".join(
        f"{k} {statistics.median(v):.3f}" for k, v in by_key.items()))
    report(f"  attempted {planned}  failed {len(failures)}  "
           f"known seed failures {len(known)}")
    for rec, reason in failures + known:
        label = "known" if (rec is not None and rec.req.known_failure
                            and rec.crash is None) else "FAILED"
        report(f"  {label}: {rec.req.key if rec else '-'}: {reason}")
    metrics = e2e
    if trace:
        metrics, totals, missing = per_layer(passes, failures, known, planned, scale)
        n = max(1, info["passes"])
        report("  per pass, by traced function:   calls     self_s     incl_s")
        for fn in sorted(totals):
            row = totals[fn]
            if "calls" in row:
                report(f"    {fn:<34} {row['calls'] / n:9.0f} {row['self_s'] / n:10.4f}"
                       f" {row['incl_s'] / n:10.4f}")
        layers = {}
        for fn, row in totals.items():
            layers[fn.split(".")[0]] = layers.get(fn.split(".")[0], 0) + row.get("self_s", 0)
        report("  self time by layer per pass: " + ", ".join(
            f"{k} {v / n:.3f} s" for k, v in sorted(layers.items(), key=lambda kv: -kv[1])))
        if missing:
            report("  missing (reported as 0): " + ", ".join(missing))
    return {
        "correct": not failures,
        "attempted": planned,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=sorted(workloads.WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "nablamu" / "cli.py").is_file():
        print(f"error: no package source at {SRC / 'nablamu'}", file=sys.stderr)
        return 2
    # Requests and reference loops must share a core, or the scaling would
    # compare two cores' speeds; children inherit this affinity.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    names = sorted(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    results = {n: run_workload(n, args.seed, args.seconds, bool(args.trace), print)
               for n in names}
    if len(results) == 1:
        summary = results[names[0]]
    else:
        summary = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}.{k}": v for n, r in results.items()
                        for k, v in r["metrics"].items()},
        }
    print(json.dumps(summary), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
