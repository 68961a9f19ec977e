"""Every lagtrace name the benchmark in perfbench/ reaches still resolves.

The benchmark wraps the functions listed in ``perfbench/spans.py`` LAYERS by
name and calls the workload functions through module attributes, so a
deletion or rename in ``src/`` that would break it fails here instead.  The
test only reads ``perfbench/``.
"""

import ast
import hashlib
import importlib
import inspect
import json
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

# names the tracer and the child reach outside LAYERS and the workload imports
EXTRA = [
    ("johnson", "identity_map"),
    ("freegroup", "max_image_length"),
    ("derivations", "derivation_coordinates"),
    ("derivations", "is_in_G"),
    ("derivations", "derivation_is_symplectic"),
]


def _layers() -> dict:
    tree = ast.parse((PERFBENCH / "spans.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "LAYERS" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError("perfbench/spans.py defines no LAYERS")


def _workload_constant(name: str):
    tree = ast.parse((PERFBENCH / "workloads.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == name for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError(f"perfbench/workloads.py defines no {name}")


def _imported_names() -> set:
    """(module, name) for every lagtrace attribute the benchmark sources use."""
    out = set()
    for path in sorted(PERFBENCH.glob("*.py")):
        tree = ast.parse(path.read_text())
        aliases = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for a in node.names:
                    if a.name.startswith("lagtrace.") and a.asname:
                        aliases[a.asname] = a.name.split(".", 1)[1]
            elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("lagtrace."):
                for a in node.names:
                    out.add((node.module.split(".", 1)[1], a.name))
        for node in ast.walk(tree):
            if (
                isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id in aliases
            ):
                out.add((aliases[node.value.id], node.attr))
    return out


def _required() -> list:
    names = {(mod, fn) for mod, fns in _layers().values() for fn in fns}
    return sorted(names | _imported_names() | set(EXTRA))


def test_benchmark_names_resolve():
    missing = [
        f"lagtrace.{module}.{name}"
        for module, name in _required()
        if not callable(getattr(importlib.import_module("lagtrace." + module), name, None))
    ]
    assert not missing, f"the benchmark reaches names that are gone: {missing}"


def test_magnus_cache_is_inspectable():
    from lagtrace.tensorlie import magnus_of_word

    info = magnus_of_word.cache_info()
    assert info.hits >= 0 and info.misses >= 0
    # perfbench/child.py reads the hit ratio off cache_info; no workload
    # reaches the cache since tau memoizes on the class (the ratio reads 0),
    # and the public API keeps it at this size
    assert info.maxsize == 512


def test_contract_reads_the_layers():
    # the parse above found the tracer's table and the workload imports
    required = _required()
    assert ("magnusrep", "truncated_identity_check_A") in required
    assert ("cli", "run_suite") in required
    assert ("groupring", "fox_bar_expand_column") in required


def test_kernel_hook_reads_two_positional_arguments():
    # perfbench/spans.py's integer_kernel_basis hook unpacks its two positional
    # arguments and counts len(first) * second cells, which is columns x rows
    from lagtrace.intkernel import integer_kernel_basis

    params = list(inspect.signature(integer_kernel_basis).parameters.values())
    assert [p.kind for p in params] == [inspect.Parameter.POSITIONAL_OR_KEYWORD] * 2
    assert all(p.default is inspect.Parameter.empty for p in params)


def test_builtins_build_no_sampler_candidates(monkeypatch):
    # perfbench/spans.py counts johnson.identity_map calls as sample_Ak
    # candidates (johnson.sample.yield_ratio): the builtins and the sample
    # library must build none, or the ratio would read low
    from lagtrace import johnson

    calls = []
    identity_map = johnson.identity_map
    monkeypatch.setattr(johnson, "identity_map", lambda *a: calls.append(a) or identity_map(*a))
    for g in (2, 3, 4):
        for build in johnson.BUILTINS.values():
            build(g)
        johnson.handlebody_sample_library.cache_clear()
        assert len(johnson.handlebody_sample_library(g)) > 0
    assert calls == []


def test_the_workload_suites_are_the_cli_suites():
    # perfbench/workloads.py keeps its own copy of the suite list, which the
    # suites workload runs; a suite added to or dropped from cli.SUITES
    # would otherwise leave the workload running a stale list
    from lagtrace import cli

    assert _workload_constant("SUITES") == list(cli.SUITES)


@pytest.mark.parametrize("g,seed", [(2, 0), (3, 1), (4, 2)])
def test_suites_draw_each_sample_stream_once(monkeypatch, g, seed):
    # the 8 suites at one (genus, seed) sample degree 1 and 2 at counts 10
    # and 5; the calls share one stream per degree, so they make exactly the
    # candidates of the two streams drawn once to 10 samples, counted as
    # perfbench/spans.py counts them (one johnson.identity_map call each).
    # The samples carry their tau memos, and nothing else reads the Magnus
    # cache, so the suites leave magnus_of_word's cache as they found it.
    from lagtrace import cli, johnson
    from lagtrace.tensorlie import magnus_of_word

    calls = []
    identity_map = johnson.identity_map
    monkeypatch.setattr(johnson, "identity_map", lambda *a: calls.append(a) or identity_map(*a))
    count = _workload_constant("SUITE_COUNT")
    johnson._sample_stream.cache_clear()
    before = magnus_of_word.cache_info()
    for suite in _workload_constant("SUITES"):
        cli.run_suite(suite, g, seed, count)
    assert magnus_of_word.cache_info() == before
    drawn = len(calls)
    fresh = 0
    for k in (1, 2):
        johnson._sample_stream.cache_clear()
        calls.clear()
        johnson.sample_Ak(g, k, count, seed)
        fresh += len(calls)
    assert drawn == fresh > 0


def test_deep_digests_match_expected():
    # the deep workload gates derivation_coordinates(tau(m, 3)) on
    # sample_Ak(g, 3, 4, seed=0) by the digests in perfbench/expected.json:
    # sha256 of the JSON coordinate list, first 16 hex digits
    from lagtrace.derivations import derivation_coordinates
    from lagtrace.johnson import sample_Ak, tau

    expected = json.loads((PERFBENCH / "expected.json").read_text())["deep"]
    got = {}
    for g in (2, 3):
        for i, fm in enumerate(sample_Ak(g, 3, 4, seed=0)):
            coords = json.dumps(derivation_coordinates(tau(fm.rep, 3)))
            got[f"g{g}/s{i}"] = hashlib.sha256(coords.encode()).hexdigest()[:16]
    assert got == expected
