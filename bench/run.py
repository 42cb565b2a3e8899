"""The xprod benchmark: one command, three workloads, every output checked.

    python3 bench/run.py --workload ladder-q|search-fp|cli-small \\
        --seed N --seconds S --trace 0|1

Run it from the root of a source checkout; the package is imported from
``src/`` and nothing is installed.  Load comes from this one process, which
runs one ``python -m xprod`` child at a time (a closed loop with one client)
with ``XPROD_THREADS`` unset, so the default path is measured.

``--trace 0`` cycles through the workload's commands until ``--seconds`` have
elapsed (at least one pass) and prints the end-to-end metrics, each from every
command's median over its samples.
``--trace 1`` replays one pass in-process through ``xprod.cli.main`` three
times: plain, under the span tracer of ``spans.py``, and plain again.  It prints
the per-layer metrics of the traced replay and writes its spans to
``.bench_work/<workload>/spans.json``.

Human-readable lines come first; the last line of standard output is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

import gen  # noqa: E402

SETUP_SAMPLES = 21
SETUP_SAMPLE_S = 0.1
STARTUP_REPEATS = 7
COMMAND_TIMEOUT_S = 60

# metric name -> unit, as declared at the root of the checkout
_DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
END_TO_END = {m["name"]: m["unit"] for m in _DECLARED["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in _DECLARED["per_layer"]}


# -- checking one report -------------------------------------------------------------

def problem(op: gen.Op, code, out: bytes, err: bytes):
    """Why a command's outcome differs from its expectation, or None."""
    if code == -signal.SIGKILL:
        return f"killed after the {COMMAND_TIMEOUT_S} s timeout"
    if b"Traceback" in err:
        return "traceback: " + err.decode(errors="replace").strip().splitlines()[-1]
    if code != op.code:
        return f"exit code {code}, expected {op.code}"
    try:
        rep = json.loads(out)
    except ValueError:
        return "report is not JSON"
    if not isinstance(rep, dict) or not isinstance(rep.get("conditions"), list):
        return "report is not an object with a list of conditions"
    if rep.get("status") != op.status:
        return f"status {rep.get('status')!r}, expected {op.status!r}"
    c = op.checks
    failed = [e.get("name") for e in rep["conditions"]
              if not e.get("passed") and not e.get("informational")]
    if op.code == 0 and failed:
        return f"failed conditions {failed} in a passing report"
    if "failed" in c and failed != c["failed"]:
        return f"failed conditions {failed}, expected {c['failed']}"
    if "n_conditions" in c and len(rep["conditions"]) != c["n_conditions"]:
        return f"{len(rep['conditions'])} conditions, expected {c['n_conditions']}"
    outputs = rep.get("outputs", {})
    for key in ("algebra", "maps", "matrix", "failure"):
        if key in c and outputs.get(key) != c[key]:
            return f"outputs.{key} differs from the expected value"
    if "outputs" in c and outputs != c["outputs"]:
        return f"outputs {outputs}, expected {c['outputs']}"
    if "count" in c and outputs.get("count") != c["count"]:
        return f"count {outputs.get('count')}, expected {c['count']}"
    if "solutions" in c:
        sols = outputs.get("solutions")
        if not isinstance(sols, list) or outputs.get("count") != len(sols):
            return "count disagrees with the solutions listed"
        if sorted(json.dumps(s, sort_keys=True) for s in sols) != c["solutions"]:
            return (f"the {len(sols)} solutions listed differ from the "
                    f"{len(c['solutions'])} the oracle accepts")
    error_type = (rep.get("error") or {}).get("type")
    if "error_type" in c and error_type != c["error_type"]:
        return f"error type {error_type!r}, expected {c['error_type']!r}"
    return None


# -- children ----------------------------------------------------------------------

def child_env():
    env = dict(os.environ)
    env.pop("XPROD_THREADS", None)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"]
                                    if env.get("PYTHONPATH") else "")
    return env


@dataclass
class ChildResult:
    wall_s: float
    cpu_s: float    # user + system time of the child
    code: int
    out: bytes
    err: bytes
    maxrss_mb: float


class Children:
    """Runs one child at a time through ``launch.py``, which keeps this process's
    memory out of the children's peak RSS; reports wall time, CPU time, exit
    code, output and peak RSS."""

    def __init__(self, work: Path):
        self.out_path = work / "stdout"
        self.err_path = work / "stderr"
        self.launcher = subprocess.Popen(
            [sys.executable, str(HERE / "launch.py")], stdin=subprocess.PIPE,
            stdout=subprocess.PIPE, env=child_env(), cwd=ROOT, text=True)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.launcher.stdin.close()
        self.launcher.stdout.close()
        self.launcher.wait()

    def run(self, argv):
        self.launcher.stdin.write(json.dumps({
            "argv": argv, "cwd": str(ROOT), "out": str(self.out_path),
            "err": str(self.err_path), "timeout": COMMAND_TIMEOUT_S}) + "\n")
        self.launcher.stdin.flush()
        reply = self.launcher.stdout.readline()
        if not reply:
            raise SystemExit("the launcher ended before reporting on a child")
        r = json.loads(reply)
        return ChildResult(r["wall_s"], r["cpu_s"], r["code"], self.out_path.read_bytes(),
                           self.err_path.read_bytes(), r["maxrss_kb"] / 1024)

    def xprod(self, op: gen.Op, docs_dir: Path):
        return self.run([sys.executable, "-m", "xprod", op.args[0], "--in",
                         str(docs_dir / op.doc), *op.args[1:]])


# -- set-up --------------------------------------------------------------------------

def write_docs(wl: gen.Workload, docs_dir: Path):
    docs_dir.mkdir(parents=True, exist_ok=True)
    for fname, text in wl.docs.items():
        (docs_dir / fname).write_text(text, encoding="utf-8")


def setup(name, seed, docs_dir: Path):
    """Generate and write the documents.  Returns the workload and the median CPU
    time of one set-up over SETUP_SAMPLES samples; a sample repeats the set-up
    often enough to last about SETUP_SAMPLE_S, so a short set-up is not lost in
    clock and cache noise."""
    start = time.process_time()
    wl = gen.WORKLOADS[name](seed)
    write_docs(wl, docs_dir)
    batch = max(1, round(SETUP_SAMPLE_S / (time.process_time() - start)))
    times = []
    for _ in range(SETUP_SAMPLES):
        start = time.process_time()
        for _ in range(batch):
            wl = gen.WORKLOADS[name](seed)
            write_docs(wl, docs_dir)
        times.append((time.process_time() - start) / batch)
    return wl, statistics.median(times)


# -- untraced run: end-to-end metrics ---------------------------------------------------

def summarise(ops, samples, key):
    """One pass's total, the command percentiles and the per-stage totals of one
    timing, all from each command's median over its samples."""
    per_op = [statistics.median(getattr(r, key) for r in rs) for rs in samples]
    return {
        "total": sum(per_op),
        "p50_ms": 1e3 * statistics.median(per_op),
        "p90_ms": 1e3 * statistics.quantiles(per_op, n=10, method="inclusive")[8],
        "stages": [sum(x for op, x in zip(ops, per_op) if op.stage == s)
                   for s in range(3)],
    }


def measure(wl: gen.Workload, seconds, docs_dir, children: Children, log):
    """Cycle through the commands while the next one is expected to end within
    ``seconds``; every command runs at least once."""
    n = len(wl.ops)
    samples = [[] for _ in wl.ops]
    digests = [None] * n
    attempted = failed = 0
    start = time.perf_counter()
    while True:
        t = attempted % n
        op = wl.ops[t]
        r = children.xprod(op, docs_dir)
        attempted += 1
        why = problem(op, r.code, r.out, r.err)
        digest = hashlib.sha256(r.out).hexdigest()
        if why is None and digests[t] not in (None, digest):
            why = "report bytes differ from the first run of the command"
        digests[t] = digests[t] or digest
        if why is not None:
            failed += 1
            log(f"FAIL {op.doc} {' '.join(op.args)}: {why}")
        samples[t].append(r)
        following = samples[attempted % n]
        if (attempted >= n and
                time.perf_counter() - start + following[0].wall_s > seconds):
            break
    cpu = summarise(wl.ops, samples, "cpu_s")
    wall = summarise(wl.ops, samples, "wall_s")
    metrics = {
        "cpu_s": cpu["total"], "op_p50_cpu_ms": cpu["p50_ms"], "op_p90_cpu_ms": cpu["p90_ms"],
        "peak_rss_mb": max(r.maxrss_mb for rs in samples for r in rs),
    }
    for s in range(3):
        metrics[f"stage{s + 1}_cpu_s"] = cpu["stages"][s]
    log(f"commands {attempted}, {attempted / n:.2f} passes; samples per command "
        f"{min(map(len, samples))} to {max(map(len, samples))}; percentiles over the "
        f"{n} commands' medians")
    log("stages: " + ", ".join(f"{s + 1} = {name}" for s, name in enumerate(wl.stages)))
    log(f"failed_ratio {failed / attempted:.4f} ({failed}/{attempted})")
    log(f"wall clock: wall_s {wall['total']:.4f}, op_p50_ms {wall['p50_ms']:.2f}, "
        f"op_p90_ms {wall['p90_ms']:.2f}, "
        + ", ".join(f"stage{s + 1}_s {x:.4f}" for s, x in enumerate(wall["stages"])))
    if "candidates" in wl.ops[0].checks:
        accept = sum(op.checks["candidates"] for op in wl.ops if op.stage < 2)
        reject = sum(op.checks["candidates"] for op in wl.ops if op.stage == 2)
        for label, t in (("cpu", cpu), ("wall", wall)):
            log(f"accept_cands_per_{label}_s {accept / (t['stages'][0] + t['stages'][1]):.1f}, "
                f"reject_cands_per_{label}_s {reject / t['stages'][2]:.1f}")
    return metrics, attempted, failed


# -- traced run: per-layer metrics ---------------------------------------------------------

def run_in_process(main, ops, docs_dir, out_path):
    """Run every op through ``main``; returns CPU time and (problem, bytes) per op."""
    results = []
    start = time.process_time()
    for op in ops:
        err = io.StringIO()
        argv = [op.args[0], "--in", str(docs_dir / op.doc), *op.args[1:],
                "--out", str(out_path)]
        try:
            with contextlib.redirect_stderr(err):
                code = main(argv)
        except Exception as exc:  # a traceback is a failed command, not a crash
            results.append((f"traceback: {type(exc).__name__}: {exc}", b""))
            continue
        out = out_path.read_bytes()
        results.append((problem(op, code, out, err.getvalue().encode()), out))
    return time.process_time() - start, results


def traced(wl: gen.Workload, docs_dir, work, children: Children, log):
    import spans

    startup = [children.run([sys.executable, "-c", "import xprod.cli"])
               for _ in range(STARTUP_REPEATS)]
    if any(r.code != 0 for r in startup):
        raise SystemExit("import xprod.cli failed")
    sys.path.insert(0, str(SRC))
    os.environ.pop("XPROD_THREADS", None)
    import xprod.cli

    # plain replays before and after the traced one, so warm-up and drift
    # weigh on both sides of the overhead
    out_path = work / "report.json"
    before_s, plain = run_in_process(xprod.cli.main, wl.ops, docs_dir, out_path)
    tracer = spans.Tracer()
    tracer.install(spans.xprod_modules())
    try:
        traced_s, spanned = run_in_process(xprod.cli.main, wl.ops, docs_dir, out_path)
    finally:
        tracer.uninstall()
    after_s, again = run_in_process(xprod.cli.main, wl.ops, docs_dir, out_path)
    plain_s = (before_s + after_s) / 2
    tracer.dump(work / "spans.json")

    failed = 0
    for op, (why, out), (why_t, out_t), (why_a, out_a) in zip(wl.ops, plain, spanned, again):
        why = why or why_t or why_a or (
            None if out == out_t == out_a else "report bytes change under tracing")
        if why is not None:
            failed += 1
            log(f"FAIL {op.doc} {' '.join(op.args)}: {why}")
    got = tracer.metrics()
    metrics = {name: got.get(name, 0) for name in PER_LAYER}
    cands = metrics["constructions.candidates"]
    metrics["constructions.accept_ratio"] = (
        metrics["constructions.accepted"] / cands if cands else 0.0)
    metrics["cli.startup_ms"] = 1e3 * statistics.median(r.wall_s for r in startup)
    metrics["trace.overhead_s"] = traced_s - plain_s
    log(f"in-process CPU time: plain {before_s:.3f} s and {after_s:.3f} s, "
        f"traced {traced_s:.3f} s")
    log("self time per layer, ms, for each command:")
    for op, layers in zip(wl.ops, tracer.self_by_root()):
        log(f"  {op.doc} {' '.join(op.args)}: " + ", ".join(
            f"{layer} {1e3 * layers[layer]:.1f}" for layer in spans.LAYERS if layer in layers))
    return metrics, len(wl.ops), failed


# -- entry point ----------------------------------------------------------------------

def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(gen.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "xprod" / "cli.py").is_file():
        print(f"no xprod sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2

    def log(line):
        print(line, flush=True)

    work = ROOT / ".bench_work" / args.workload
    docs_dir = work / "docs"
    work.mkdir(parents=True, exist_ok=True)
    with Children(work) as children:
        # bytecode is compiled once, before anything is timed, as an installed package has it
        compiled = children.run([sys.executable, "-m", "compileall", "-q", str(SRC)])
        if compiled.code != 0:
            print(compiled.err.decode(errors="replace"), file=sys.stderr)
            return 2

        wl, setup_s = setup(args.workload, args.seed, docs_dir)
        # the search oracle decides every candidate, once, after the timed set-up
        for op in wl.ops:
            if op.args[0] == "search":
                op.checks["solutions"] = gen.search_solutions(json.loads(wl.docs[op.doc]))
        log(f"workload {args.workload}, seed {args.seed}, {len(wl.ops)} commands per pass, "
            f"python {sys.version.split()[0]}, nproc {os.cpu_count()}")
        if args.trace:
            metrics, attempted, failed = traced(wl, docs_dir, work, children, log)
            units = PER_LAYER
        else:
            metrics, attempted, failed = measure(wl, args.seconds, docs_dir, children, log)
            metrics["setup_s"] = setup_s
            units = END_TO_END
    for name, unit in units.items():
        log(f"{name:32s} {metrics[name]:>14.6g} {unit}")
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
