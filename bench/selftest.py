"""Self-test of the benchmark's generator, checks and tracer.

    python3 bench/selftest.py                 # run the checks; exit 1 on failure
    python3 bench/selftest.py --mutant-table  # print the pinned mutation outcomes

Checks:

* the generator is deterministic per seed and relabels bases across seeds;
* every traced counter repeats exactly across runs of one seed, and across
  seeds on commands whose work does not depend on the seed;
* for a passing ``check``, ``twosided.tuples_scanned`` equals the closed form
  (equiv6 contributes dim(V)^3 tuples, and so on), and the product scans really
  start from that many basis tuples;
* report bytes are identical with and without tracing, on passing, failing and
  rejected inputs alike;
* the search oracle accepts the pinned 256 frozen-flip F2 candidates, agrees
  with the search reports, and refuses a report that lists every candidate
  unchecked or drops a solution.
"""

from __future__ import annotations

import json
import random
import sys
import tempfile
from pathlib import Path

import run  # also puts this directory on sys.path
import gen
import spans

sys.path.insert(0, str(run.SRC))
import xprod.cli  # noqa: E402
import xprod.twosided  # noqa: E402

FAILURES = []


def work_root():
    path = run.ROOT / ".bench_work"
    path.mkdir(exist_ok=True)
    return path


def expect(ok, what):
    print(("ok   " if ok else "FAIL ") + what)
    if not ok:
        FAILURES.append(what)


def traced_counters(ops_by_workload, seed, work: Path):
    """Counters of one traced in-process replay, and whether every report held."""
    tracer = spans.Tracer()
    tracer.install(spans.xprod_modules())
    problems = []
    try:
        for name, select in ops_by_workload:
            wl = gen.WORKLOADS[name](seed)
            run.write_docs(wl, work / name)
            ops = [op for op in wl.ops if select(op)]
            _, results = run.run_in_process(xprod.cli.main, ops, work / name,
                                            work / "report.json")
            problems += [why for why, _ in results if why]
    finally:
        tracer.uninstall()
    metrics = tracer.metrics()
    return {k: v for k, v in metrics.items() if not k.endswith("_s")}, problems


def closed_form(na, nv, nc):
    units = (nc + na) + (na + nv) + (nc + nv) + 2 * nv
    scans = (nc * na * na + nc * nc * na + nv * na * na + nc * nc * nv + nc * nv * na
             + nv * nv * na + nc * nv * nv + nv ** 3)
    return units, scans


def test_generator():
    a, b, c = (gen.cli_small(7), gen.cli_small(7), gen.cli_small(8))
    expect(a.docs == b.docs and [o.args for o in a.ops] == [o.args for o in b.ops],
           "the same seed gives the same documents and commands")
    expect(a.docs["corpus-q-dual-flip.json"] != c.docs["corpus-q-dual-flip.json"]
           or a.docs["corpus-q-mixed-flip.json"] != c.docs["corpus-q-mixed-flip.json"],
           "another seed relabels the bases")


def test_counters_repeat(work: Path):
    seed_free = [("ladder-q", lambda op: op.stage == 0),
                 ("search-fp", lambda op: op.stage == 0)]
    seeded = seed_free + [("cli-small", lambda op: op.stage > 0 or "--dataset" in op.args)]
    first, problems = traced_counters(seeded, 3, work)
    again, _ = traced_counters(seeded, 3, work)
    expect(not problems, f"traced reports meet their expectations {problems[:3]}")
    expect(first == again, "counters repeat exactly across runs of one seed")
    one, _ = traced_counters(seed_free, 3, work)
    other, _ = traced_counters(seed_free, 4, work)
    expect(one == other, "counters repeat exactly across seeds on seed-free commands")


def test_tuples_closed_form(work: Path):
    cases = [("ladder-q", "ladder-N8.json", (2, 2, 2)),
             ("ladder-q", "ladder-N12.json", (2, 3, 2)),
             ("cli-small", "corpus-q-mixed-flip.json", (2, 2, 2)),
             ("cli-small", "corpus-f2-mixed-flip.json", (2, 2, 1))]
    for name, doc, dims in cases:
        wl = gen.WORKLOADS[name](5)
        run.write_docs(wl, work / name)
        op = next(o for o in wl.ops if o.doc == doc and o.args == ["check"])
        tracer = spans.Tracer()
        tracer.install(spans.xprod_modules())
        starts = []
        basis = xprod.twosided._Ten.basis.__func__
        xprod.twosided._Ten.basis = classmethod(
            lambda cls, *a: starts.append(1) or basis(cls, *a))
        try:
            _, results = run.run_in_process(xprod.cli.main, [op], work / name,
                                            work / "report.json")
        finally:
            xprod.twosided._Ten.basis = classmethod(basis)
            tracer.uninstall()
        units, scans = closed_form(*dims)
        got = tracer.metrics().get("twosided.tuples_scanned")
        expect(results[0][0] is None and got == units + scans,
               f"tuples_scanned on a passing check of {doc} is {got}, "
               f"closed form {units + scans} (equiv6: {dims[1] ** 3})")
        expect(len(starts) == scans,
               f"the product scans of {doc} start from {len(starts)} basis tuples, "
               f"closed form {scans}")


def test_bytes_unchanged_by_tracing(work: Path):
    wl = gen.cli_small(9)
    run.write_docs(wl, work / "cli-small")
    ops = [op for op in wl.ops if op.stage > 0 or op.doc == "corpus-q-dual-super.json"]
    _, plain = run.run_in_process(xprod.cli.main, ops, work / "cli-small",
                                  work / "report.json")
    tracer = spans.Tracer()
    tracer.install(spans.xprod_modules())
    try:
        _, traced = run.run_in_process(xprod.cli.main, ops, work / "cli-small",
                                       work / "report.json")
    finally:
        tracer.uninstall()
    same = [p[1] == t[1] and p[1] for p, t in zip(plain, traced)]
    expect(all(same), f"report bytes are identical with and without tracing "
                      f"({len(ops)} commands, exit codes 0, 1 and 2)")


def test_search_oracle(work: Path):
    wl = gen.search_fp(6)
    run.write_docs(wl, work / "search-fp")
    for op in wl.ops:
        op.checks["solutions"] = gen.search_solutions(json.loads(wl.docs[op.doc]))
    expect(len(wl.ops[0].checks["solutions"]) == gen.PINNED_FROZEN_F2,
           f"the oracle accepts {len(wl.ops[0].checks['solutions'])} frozen-flip F2 "
           f"candidates, pinned {gen.PINNED_FROZEN_F2}")
    ops = [wl.ops[1], wl.ops[2]]  # accept F3, and one reject document
    _, results = run.run_in_process(xprod.cli.main, ops, work / "search-fp",
                                    work / "report.json")
    expect(all(why is None for why, _ in results),
           f"search reports list exactly the solutions the oracle accepts "
           f"({[len(op.checks['solutions']) for op in ops]})")
    # every F3 candidate passes and no reject candidate does, so a search that
    # drops one F3 solution, or lists every reject candidate unchecked, must fail
    for op, (_, out), fake in zip(ops, results, ("drop one", "list all")):
        rep = json.loads(out)
        p, *_, candidates = gen.search_candidates(json.loads(wl.docs[op.doc]))
        sols = rep["outputs"]["solutions"][1:] if fake == "drop one" else [
            json.loads(gen.render_solution(p, m)) for m in candidates]
        rep["outputs"].update(count=len(sols), solutions=sols)
        why = run.problem(op, 0, json.dumps(rep).encode(), b"")
        expect(why is not None, f"{op.doc}: a report of {len(sols)} of "
                                f"{len(candidates)} candidates is refused ({why})")


def mutant_table():
    """Outcomes of every unit-pinned single-entry mutation, in the canonical basis."""
    table = {}
    corpus = {name: (p, data) for name, p, data in gen._corpus(random.Random(0))}
    with tempfile.TemporaryDirectory(dir=work_root()) as tmp:
        doc_path, out_path = Path(tmp) / "doc.json", Path(tmp) / "report.json"
        for base in gen.MUTATION_BASES:
            p, data = corpus[base]
            for map_name in ("R1", "R2", "R3", "E"):
                dom, cod, cols = gen.twosided_doc(p, data).maps[map_name]
                for col, row in gen.mutation_menu(gen.twosided_doc(p, data), map_name):
                    doc = gen.twosided_doc(p, data)
                    mutated = [list(c) for c in cols]
                    mutated[col][row] += 1
                    doc.maps[map_name] = (dom, cod, mutated)
                    doc_path.write_text(json.dumps(gen.render(doc)))
                    outcome = []
                    for args in (["check"], ["build", "--force"]):
                        xprod.cli.main([*args, "--in", str(doc_path), "--out", str(out_path)])
                        outcome.append(json.loads(out_path.read_text()))
                    failed = " ".join(c["name"] for c in outcome[0]["conditions"]
                                      if not c["passed"])
                    key = gen.mutation_key(base, map_name, col, row)
                    table[key] = f"{failed}|{outcome[1]['outputs']['failure']}"
    return table


def main():
    if sys.argv[1:] == ["--mutant-table"]:
        table = mutant_table()
        print("{\n" + ",\n".join(f" {json.dumps(k)}: {json.dumps(v)}"
                                  for k, v in table.items()) + "\n}")
        return 0
    with tempfile.TemporaryDirectory(dir=work_root()) as tmp:
        work = Path(tmp)
        test_generator()
        test_tuples_closed_form(work)
        test_bytes_unchanged_by_tracing(work)
        test_search_oracle(work)
        test_counters_repeat(work)
    pinned = {k: "|".join(v) for k, v in gen.load_mutant_outcomes().items()}
    expect(mutant_table() == pinned, "the pinned mutation outcomes still hold")
    print(f"{len(FAILURES)} failed")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
