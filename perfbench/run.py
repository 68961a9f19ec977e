"""Benchmark of lagtrace: one workload, repeated in fresh interpreters.

    python3 perfbench/run.py --workload suites|deep|basis|all --seed N \\
        --seconds S --trace 0|1

Run from the root of a checkout; lagtrace is imported from ``src/``.  Each
repetition runs the workload's fixed task list once, in a new interpreter
started by this process, one at a time (a closed loop with one client, one
thread).  A run makes the number of repetitions whose total time is nearest
to ``--seconds``, at least one, and every metric is the median over them.
After each untraced repetition it also starts ``SETUP_ONLY`` interpreters
that only set up, so that ``setup_s`` is the median of many set-ups.  Times
are scaled to a fixed machine speed by a reference loop timed during the
measured region (see ``child.py``); the human-readable lines also print the
medians of the times as measured, ``raw_wall_s`` and ``raw_setup_s``.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced repetitions and reports the per-layer metrics of the
traced repetition with the median wall time, together with
``trace.overhead_s``, its wall time minus the median untraced wall time.
Every repetition checks its outputs; the last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.

``--workload all`` runs every workload in turn and prints the end-to-end
metrics and ``fail_ratio`` of each.  The exit status is 1 when any check
failed, after the result line, and 0 otherwise.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
EXPECTED = os.path.join(HERE, "expected.json")
WORKLOADS = ["suites", "deep", "basis"]
UNITS = {"setup_s": "s", "wall_s": "s", "peak_rss_mib": "MiB"}
# a run ends within the 180 s every invocation is allowed, even when a
# repetition hangs
DEADLINE_S = 170.0
# in an untraced run, set-up-only interpreters started after each repetition
SETUP_ONLY = 3
# lagtrace hashes strings (a word's ambient, generator kinds), so the layout of
# its dicts and caches changes with the interpreter's hash seed; a fixed seed
# halved the spread of repetition times
CHILD_ENV = dict(os.environ, PYTHONHASHSEED="0")


class BenchError(Exception):
    pass


def repetition(workload: str, seed: int, mode: str, timeout: float) -> dict:
    """One fresh interpreter running the workload once; its JSON result.

    ``mode`` is ``"0"`` untraced, ``"1"`` traced, or ``"setup"`` to set up only.
    """
    cmd = [sys.executable, os.path.join(HERE, "child.py"), ROOT, workload, str(seed), mode]
    spawned = time.monotonic()
    try:
        proc = subprocess.run(cmd + [repr(spawned)], cwd=ROOT, env=CHILD_ENV,
                              capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{workload} repetition exceeded {timeout:.0f} s") from exc
    if proc.returncode != 0:
        raise BenchError(f"{workload} repetition exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.splitlines()[-1])


def gate(reps: list[dict], expected: dict) -> tuple[int, int, list[str]]:
    """Count every check of every repetition; a digest must match expected."""
    attempted = failed = 0
    wrong: list[str] = []
    for rep in reps:
        for key, ok, digest in rep["checks"]:
            if digest is not None and digest != expected.get(key):
                ok = False
            attempted += 1
            if not ok:
                failed += 1
                wrong.append(key)
    return attempted, failed, wrong


def run_workload(workload: str, seed: int, seconds: float, traced: bool) -> dict:
    start = time.monotonic()
    untraced: list[dict] = []
    traced_reps: list[dict] = []
    setups: list[dict] = []
    while True:
        # in a traced run, alternate so both kinds see the same machine state
        want_traced = traced and len(traced_reps) < len(untraced)
        left = DEADLINE_S - (time.monotonic() - start)
        rep = repetition(workload, seed, "1" if want_traced else "0", left)
        (traced_reps if want_traced else untraced).append(rep)
        if not traced:
            for _ in range(SETUP_ONLY):
                left = DEADLINE_S - (time.monotonic() - start)
                setups.append(repetition(workload, seed, "setup", left))
        elapsed = time.monotonic() - start
        per_rep = elapsed / (len(untraced) + len(traced_reps))
        # end the run at the repetition count whose total is nearest to seconds
        if elapsed + per_rep / 2 >= seconds and (traced_reps or not traced):
            break
        # stop early rather than overrun the deadline with one more repetition
        if elapsed + per_rep > DEADLINE_S:
            if traced and not traced_reps:
                raise BenchError("no time left for a traced repetition")
            break
    return {"untraced": untraced, "traced": traced_reps, "setups": setups}


def end_to_end(reps: list[dict], setups: list[dict]) -> dict:
    samples = {name: [r[name] for r in reps] for name in UNITS}
    samples["setup_s"] += [r["setup_s"] for r in setups]
    return {name: {"value": statistics.median(samples[name]), "unit": unit}
            for name, unit in UNITS.items()}


def raw_times(reps: list[dict], setups: list[dict]) -> dict:
    """Medians of the times as measured, before scaling: printed, not gated."""
    return {"raw_wall_s": statistics.median(r["raw_wall_s"] for r in reps),
            "raw_setup_s": statistics.median(r["raw_setup_s"] for r in reps + setups)}


def per_layer(untraced: list[dict], traced: list[dict]) -> dict:
    chosen = sorted(traced, key=lambda r: r["wall_s"])[(len(traced) - 1) // 2]
    layers = dict(chosen["layers"])
    layers["trace.overhead_s"] = chosen["wall_s"] - statistics.median(
        r["wall_s"] for r in untraced)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        units = {m["name"]: m["unit"] for m in json.load(fh)["per_layer"]}
    if set(units) != set(layers):
        raise BenchError(f"per-layer metrics differ from BENCHMARK.json: "
                         f"{sorted(set(units) ^ set(layers))}")
    return {name: {"value": layers[name], "unit": unit} for name, unit in units.items()}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    # on SIGTERM, unwind through subprocess.run, which kills and reaps the child
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(1))
    if not os.path.isfile(os.path.join(ROOT, "src", "lagtrace", "__init__.py")):
        print(f"no lagtrace sources under {ROOT}/src", file=sys.stderr)
        return 2
    with open(EXPECTED) as fh:
        expected = json.load(fh)

    names = WORKLOADS if args.workload == "all" else [args.workload]
    results = {}
    try:
        for w in names:
            reps = run_workload(w, args.seed, args.seconds, bool(args.trace))
            attempted, failed, wrong = gate(reps["untraced"] + reps["traced"], expected[w])
            for key in sorted(set(wrong))[:20]:
                print(f"{w}: check failed: {key}", file=sys.stderr)
            metrics = (per_layer(reps["untraced"], reps["traced"]) if args.trace
                       else end_to_end(reps["untraced"], reps["setups"]))
            results[w] = {"correct": failed == 0, "attempted": attempted,
                          "failed": failed, "metrics": metrics}
            n = len(reps["untraced"]) + len(reps["traced"])
            print(f"{w}: {n} repetitions, fail_ratio = {failed / attempted:.6g} ratio "
                  f"({failed}/{attempted} checks)")
            for name, m in sorted(metrics.items()):
                print(f"{w}: {name} = {m['value']:.6g} {m['unit']}")
            if not args.trace:
                for name, value in raw_times(reps["untraced"], reps["setups"]).items():
                    print(f"{w}: {name} = {value:.6g} s (as measured, not scaled)")
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(results if args.workload == "all" else results[args.workload]))
    # a wrong answer must never read as a result, even to a caller that only
    # looks at the exit status
    return 1 if any(r["failed"] for r in results.values()) else 0


if __name__ == "__main__":
    sys.exit(main())
