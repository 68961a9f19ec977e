"""The benchmark's three workloads: a fixed task list each, and its output gate.

Every workload runs a fixed list of calls into lagtrace's public functions.
The benchmark seed only fixes the order of the calls: the inputs that set
the amount of work (suite seeds, sampler seed, basis sizes) are fixed,
because sampled degree-3 classes differ so much in length that the
``deep`` task list takes 8 s at sampler seed 0 and 27 s at sampler seed 3.

Each workload has three parts:

* ``plan(seed)`` builds the inputs, during set-up;
* ``run(plan)`` makes the calls, and is the timed (and traced) region;
* ``check(outputs)`` yields ``(key, passed, digest)`` for every check, after
  timing.  A digest, where there is one, must equal the committed one in
  ``expected.json``; the output gate does not depend on which basis or word
  representation lagtrace picks.

Module attributes are looked up at call time, so the tracer's wrappers are
the functions called when it is installed.
"""

from __future__ import annotations

import hashlib
import json
import random

import lagtrace.cli as cli
import lagtrace.derivations as derivations
import lagtrace.johnson as johnson
import lagtrace.magnusrep as magnusrep

SUITES = ["thm-a", "thm-b", "eq1", "eq3", "crossed", "bracket-vanish", "equivariance", "morita-prop"]
SUITE_GENERA = (2, 3, 4)
SUITE_SEEDS = (0, 1, 2)
SUITE_COUNT = 10

DEEP_GENERA = (2, 3)
DEEP_K = 3
DEEP_COUNT = 4
DEEP_SAMPLER_SEED = 0

BASIS_TASKS = [("G", 3, 3), ("G", 4, 2), ("D", 2, 3)]

# Prime for the independence check: the rank modulo P is at most the rank
# over Q, so full rank modulo P proves the basis linearly independent.
P = (1 << 61) - 1


def _digest(obj) -> str:
    return hashlib.sha256(json.dumps(obj).encode()).hexdigest()[:16]


def _call(fn, *args):
    """Run one task; an exception becomes the task's output, and fails its checks."""
    try:
        return fn(*args)
    except Exception as exc:  # noqa: BLE001 - any error is a failed check
        return exc


# ---------------------------------------------------------------------------
# suites: the traffic of `lagtrace verify`


def suites_plan(seed: int):
    tasks = [(s, g, sd) for s in SUITES for g in SUITE_GENERA for sd in SUITE_SEEDS]
    random.Random(seed).shuffle(tasks)
    return tasks


def suites_run(plan):
    return [(task, _call(cli.run_suite, *task, SUITE_COUNT)) for task in plan]


def suites_check(outputs):
    for (suite, g, sd), reports in outputs:
        key = f"{suite}/g{g}/s{sd}"
        if isinstance(reports, Exception):
            yield f"{key}: {reports!r}", False, None
            continue
        for i, r in enumerate(reports):
            yield f"{key}/{i}", r["equal"] is True, None
        yield key, True, _digest([[r["claim"], r["detail"]] for r in reports])


# ---------------------------------------------------------------------------
# deep: long words from degree-3 samples


def deep_plan(seed: int):
    rng = random.Random(seed)
    genera = list(DEEP_GENERA)
    rng.shuffle(genera)
    return [(g, rng.sample(range(DEEP_COUNT), DEEP_COUNT)) for g in genera]


def _deep_checks(m):
    rep = magnusrep.verify_theorem_A(m, DEEP_K)
    return (
        rep["equal"],
        magnusrep.truncated_identity_check(m, DEEP_K),
        magnusrep.truncated_identity_check_A(m, DEEP_K),
    )


def deep_run(plan):
    outputs = []
    for g, order in plan:
        samples = _call(johnson.sample_Ak, g, DEEP_K, DEEP_COUNT, DEEP_SAMPLER_SEED)
        if isinstance(samples, Exception):
            outputs.append((g, samples, {}))
            continue
        results = {i: _call(_deep_checks, samples[i].rep) for i in order if i < len(samples)}
        outputs.append((g, samples, results))
    return outputs


def deep_check(outputs):
    for g, samples, results in outputs:
        key = f"g{g}"
        if isinstance(samples, Exception):
            yield f"{key}: {samples!r}", False, None
            continue
        yield f"{key}/count", len(samples) == DEEP_COUNT, None
        for i, fm in enumerate(samples):
            res = results.get(i)  # None: the sample was never checked
            for j in range(3):
                if res is None or isinstance(res, Exception):
                    yield f"{key}/s{i}/identity{j}: {res!r}", False, None
                else:
                    yield f"{key}/s{i}/identity{j}", res[j] is True, None
            try:
                coords = derivations.derivation_coordinates(johnson.tau(fm.rep, DEEP_K))
            except Exception as exc:  # noqa: BLE001
                yield f"{key}/s{i}: {exc!r}", False, None
            else:
                yield f"{key}/s{i}", True, _digest(coords)


# ---------------------------------------------------------------------------
# basis: the Lie and integer-kernel layer, no words


def basis_plan(seed: int):
    tasks = list(BASIS_TASKS)
    random.Random(seed).shuffle(tasks)
    return tasks


def basis_run(plan):
    fns = {"G": derivations.basis_G, "D": derivations.basis_D}
    return [((space, g, k), _call(fns[space], g, k)) for space, g, k in plan]


def _rank_mod_p(vectors) -> int:
    """Rank over Z/P by sparse elimination; pivot rows are kept monic."""
    pivots: dict[int, dict[int, int]] = {}
    for vec in vectors:
        row = {j: c % P for j, c in enumerate(vec) if c % P}
        while row:
            j = min(row)
            prow = pivots.get(j)
            if prow is None:
                inv = pow(row[j], -1, P)
                pivots[j] = {jj: c * inv % P for jj, c in row.items()}
                break
            c = row[j]
            for jj, pc in prow.items():
                v = (row.get(jj, 0) - c * pc) % P
                if v:
                    row[jj] = v
                else:
                    row.pop(jj, None)
    return len(pivots)


def _member(space: str, d, g: int, k: int) -> bool:
    if d.genus != g or d.degree != k:
        return False
    if space == "G":
        return derivations.is_in_G(d)
    return derivations.derivation_is_symplectic(d)


def basis_check(outputs):
    for (space, g, k), basis in outputs:
        key = f"{space}/g{g}/k{k}"
        if isinstance(basis, Exception):
            yield f"{key}: {basis!r}", False, None
            continue
        # dimension against the committed value, then membership of every
        # element and linear independence: together these hold for any
        # basis of the space, whichever one the algorithm returns
        yield key, True, len(basis)
        for i, d in enumerate(basis):
            try:
                yield f"{key}/member{i}", _member(space, d, g, k), None
            except Exception as exc:  # noqa: BLE001
                yield f"{key}/member{i}: {exc!r}", False, None
        vectors = [derivations.derivation_coordinates(d) for d in basis]
        yield f"{key}/independent", _rank_mod_p(vectors) == len(basis), None


WORKLOADS = {
    "suites": (suites_plan, suites_run, suites_check),
    "deep": (deep_plan, deep_run, deep_check),
    "basis": (basis_plan, basis_run, basis_check),
}
