"""Rules on the package source that the other tests cannot see.

No certification may disappear under ``python -O``, which strips every
``assert`` statement: checks in the package raise typed errors instead.  The
one assert left is the arithmetic sanity check in ``witt_dimension`` (the
Moebius sum is divisible by k), allowed here by name.

The package carries no code without a caller: every public top-level function
and class is used somewhere in the package outside its own definition, and
no module imports a name it does not use.  A name kept only because the
benchmark traces it must be in the ``LAYERS`` of ``perfbench/spans.py``,
and one kept only because the benchmark imports it must be imported there.
Literal constructions that only the tests need live in ``tests/oracles.py``.

Imports sit at module level, where a reader finds a module's dependencies in
one place; the package has no import cycle that a function-local import would
have to break.

Above tensorlie, tensors are word -> coefficient dicts: the derivation layer
and the Fox-matrix verifiers build no TensorPoly, which stays at the public
boundary (magnus_expansion, the Fox columns, tensor_to_lie).

Importing the command line loads neither ``dataclasses`` nor ``inspect``,
which every command would pay for at start-up.

The packed Magnus expansion is private to ``packed``: no other module names
the kernel ``_packed_levels``, the lane width ``_lane_bytes``, the lane
count ``_lane_count`` or the lane arithmetic (``_multiply``, ``_conjugate``,
``_half``, ``_digits``, ``_times``).  Its interface is the lane budget
(``MAGNUS_LANE_BUDGET``, ``_check_lanes``), the decoder
``_expansion_terms``, through which every expansion the package reads is
made, and the packed comparison ``_expands_to``, through which the sampler,
the truncation identities and the conjugation checks compare an expansion
with expected terms; these two are the kernel's only readers.  Any other
question about an expansion, the filtration degree included, is asked of
the decoded terms, and in the ``eq1``, ``eq3`` and ``equivariance`` suites
only ``johnson.tau`` decodes.  ``packed`` imports nothing from
``tensorlie``, which wraps its decoder in ``magnus_expansion``.

Every module parses as the oldest Python that ``pyproject.toml`` admits
(``requires-python``), so syntax newer than that cannot enter unseen where
the tests run on a newer interpreter.

In ``derivations``, a derivation's tensor form is read in one place per
step: only ``_expanded`` and ``_kernel_columns`` expand a bracketing, and
``LiePoly`` is named only by ``Derivation.__init__``'s type check and by
``Derivation.values``, so no internal route builds one.

An immutable value is made one way: only the base ``freegroup.Frozen``
defines ``__setattr__`` or ``__delattr__``, and nothing in the package calls
``object.__setattr__``; slots are set through the setters the base resolves,
and only by a ``_fill`` method: no other code but the base's
``__init_subclass__``, which resolves the setters, reaches a slot's
``__set__`` or ``_SLOT_SETTERS``, so no slot is written after the fill.

Value equality has one rule: only ``Frozen`` defines ``__eq__`` (same type,
equal public slots), and only ``Frozen``, ``GroupWord`` and ``Sparse``
define ``__hash__``, each for the reason ``VALUE_METHODS`` gives.

Each product has one spelling: ``scale`` is the only integer product, so
no class defines ``__rmul__``, and only ``GroupWord`` (the group product),
``GroupRingElem`` and ``LaurentElem`` (the ring products) define
``__mul__``, each for the reason ``PRODUCT_METHODS`` gives; the tensor
product is ``TensorPoly.concat``.

The genus budget is checked in one place: ``GENUS_BUDGET`` is compared
only in ``johnson._genus_in_budget``, which the builtins, ``verify`` and
``parse_mapping_class`` all call.

Every substitution goes through the module-level ``freegroup.apply``, which
the benchmark's ``freegroup.apply`` span wraps by name: ``compose`` calls it
once per image, handing each call the seam table the images share (as
``mat_apply`` hands one table to every term of its entries), and no private
route substitutes past it.  The table lives for one ``compose``
call: ``FreeGroupMap`` keeps its images and substitution table only.
"""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from lagtrace import freegroup

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "lagtrace"
ALLOWED = {("tensorlie.py", "witt_dimension")}

TRACED = "the benchmark traces it by name (perfbench/spans.py)"
IMPORTED = "the benchmark imports it (perfbench/spans.py)"

# public names with no caller inside the package, and why each stays
UNCALLED = {
    ("johnson.py", "serialize_mapping_class"): "writes the --file format parse_mapping_class reads",
    ("groupring.py", "fox_expand_column"): TRACED,
    ("groupring.py", "fox_bar_expand_column"): TRACED,
    ("tensorlie.py", "lie_bracket"): TRACED,
    ("tensorlie.py", "magnus_of_word"): TRACED + " and perfbench/child.py reads its cache_info",
    ("freegroup.py", "max_image_length"): IMPORTED + " to record the samples' image lengths",
}
SPANS = PACKAGE.parent.parent / "perfbench" / "spans.py"

PACKED_READERS = {("packed.py", "_expansion_terms"), ("packed.py", "_expands_to")}
LANE_FORMAT = {
    "_packed_levels",
    "_lane_bytes",
    "_lane_count",
    "_multiply",
    "_conjugate",
    "_half",
    "_digits",
    "_times",
}
PYPROJECT = PACKAGE.parent.parent / "pyproject.toml"
EXPANDERS = {"_expanded", "_kernel_columns"}
LIE_POLY_SITES = {"Derivation.__init__", "Derivation.values"}
FROZEN_BASE = ("freegroup.py", "Frozen")
SLOT_SETTERS = {"__set__", "_SLOT_SETTERS"}
GENUS_BUDGET_CHECK = ("johnson.py", "_genus_in_budget")

# the only classes that define each value method, and why each does
VALUE_METHODS = {
    "__eq__": {
        ("freegroup.py", "Frozen"): "the one value rule: same type, equal public slots",
    },
    "__hash__": {
        ("freegroup.py", "Frozen"): "hashes the public slots that __eq__ compares",
        ("freegroup.py", "GroupWord"): "returns the hash cached at fill, which every dict of words reads",
        ("tensorlie.py", "Sparse"): "terms is a read-only view, which has no hash: hashes a frozenset of its items",
    },
}

# the only classes that define each product, and why each does: scale is
# the only integer product, so nothing defines __rmul__
PRODUCT_METHODS = {
    "__mul__": {
        ("freegroup.py", "GroupWord"): "the group product, which cancels at the seam",
        ("groupring.py", "GroupRingElem"): "the ring product, which tests/oracles.py multiplies with as the reference",
        ("groupring.py", "LaurentElem"): "the ring product, which tests/oracles.py multiplies with as the reference",
    },
    "__rmul__": {},
}


def _sources() -> dict:
    paths = sorted(PACKAGE.glob("*.py"))
    assert paths, f"no sources under {PACKAGE}"
    return {path.name: ast.parse(path.read_text(), filename=str(path)) for path in paths}


def _statements(tree: ast.AST, kinds):
    """(enclosing function name or None, line) of every statement of the given kinds."""
    found = []

    def visit(node, func):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            func = node.name
        if isinstance(node, kinds):
            found.append((func, node.lineno))
        for child in ast.iter_child_nodes(node):
            visit(child, func)

    visit(tree, None)
    return found


def _top_level(tree: ast.Module):
    return [node for node in tree.body if isinstance(node, (ast.FunctionDef, ast.ClassDef))]


def _uses(tree: ast.Module) -> set:
    """(enclosing top-level definition or None, name) of every name a module uses.

    A bare name counts when the module defines or imports it, so a local
    variable that shares a public name elsewhere does not; an attribute
    (``module.name``, ``obj.name``) always counts.
    """
    bound = {node.name for node in _top_level(tree)}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            bound.update(a.asname or a.name for a in node.names)
    uses = set()
    for top in tree.body:
        owner = top.name if isinstance(top, (ast.FunctionDef, ast.ClassDef)) else None
        for node in ast.walk(top):
            if isinstance(node, ast.Name) and node.id in bound:
                uses.add((owner, node.id))
            elif isinstance(node, ast.Attribute):
                uses.add((owner, node.attr))
    return uses


def _uncalled(sources: dict) -> set:
    """(file, name) of public top-level definitions used nowhere but in themselves."""
    uses = {(file, owner, name) for file, tree in sources.items() for owner, name in _uses(tree)}
    return {
        (file, node.name)
        for file, tree in sources.items()
        for node in _top_level(tree)
        if not node.name.startswith("_")
        and not any(
            name == node.name and (used_in, owner) != (file, node.name)
            for used_in, owner, name in uses
        )
    }


def _tensor_poly_lines(tree: ast.Module) -> list:
    """Lines that import, name or reach TensorPoly (its _trusted included)."""
    return sorted(
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and any(a.name == "TensorPoly" for a in node.names)
        or isinstance(node, ast.Name) and node.id == "TensorPoly"
        or isinstance(node, ast.Attribute) and node.attr == "TensorPoly"
    )


def _named_in(tree: ast.Module, name: str) -> set:
    """Dotted names (``Class.method``, ``function``) of the innermost
    definitions whose code names `name`, None for module level; an import
    does not name it."""
    found = set()

    def visit(node, owner):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            owner = f"{owner}.{node.name}" if owner else node.name
        named = isinstance(node, ast.Name) and node.id == name
        if named or isinstance(node, ast.Attribute) and node.attr == name:
            found.add(owner)
        for child in ast.iter_child_nodes(node):
            visit(child, owner)

    visit(tree, None)
    return found


def _class_defines(tree: ast.Module, names) -> list:
    """(line, "Class.name") of every definition or assignment of one of
    `names` in a class body."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef):
                    defined = [item.name]
                else:
                    targets = getattr(item, "targets", None) or [getattr(item, "target", None)]
                    defined = [t.id for t in targets if isinstance(t, ast.Name)]
                found += [(item.lineno, f"{node.name}.{name}") for name in defined if name in names]
    return sorted(found)


def _comparisons_naming(tree: ast.Module, name: str) -> list:
    """(line, innermost enclosing definition or None) of every comparison
    with `name`, bare or as an attribute, in one of its operands."""
    found = []

    def visit(node, owner):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            owner = f"{owner}.{node.name}" if owner else node.name
        if isinstance(node, ast.Compare) and any(
            isinstance(n, ast.Name) and n.id == name or isinstance(n, ast.Attribute) and n.attr == name
            for n in ast.walk(node)
        ):
            found.append((node.lineno, owner))
        for child in ast.iter_child_nodes(node):
            visit(child, owner)

    visit(tree, None)
    return found


def _immutability_breaches(tree: ast.Module) -> list:
    """(line, what) of every ``object.__setattr__`` and of every class that
    defines or assigns ``__setattr__`` or ``__delattr__``, named by class."""
    found = [
        (node.lineno, "object.__setattr__")
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and node.attr == "__setattr__"
        and isinstance(node.value, ast.Name)
        and node.value.id == "object"
    ]
    return sorted(found + _class_defines(tree, ("__setattr__", "__delattr__")))


def _slot_writes(tree: ast.Module) -> list:
    """(line, enclosing definition) of every reach for a slot setter, a
    ``__set__`` or ``_SLOT_SETTERS`` attribute, outside a ``_fill`` method
    and the base's ``__init_subclass__``."""
    allowed = f"{FROZEN_BASE[1]}.__init_subclass__"
    found = []

    def visit(node, owner):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            owner = f"{owner}.{node.name}" if owner else node.name
        if isinstance(node, ast.Attribute) and node.attr in SLOT_SETTERS:
            if owner != allowed and not (owner or "").endswith("._fill"):
                found.append((node.lineno, owner))
        for child in ast.iter_child_nodes(node):
            visit(child, owner)

    visit(tree, None)
    return found


def _unused_imports(tree: ast.Module) -> list:
    """(line, name) of every imported name the module never uses."""
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [(node.lineno, a.asname or a.name) for a in node.names]
        elif isinstance(node, ast.Import):
            imported += [(node.lineno, (a.asname or a.name).split(".")[0]) for a in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [(line, name) for line, name in imported if name not in used]


def test_no_assert_statements_in_the_package():
    offending = []
    allowed_seen = set()
    for file, tree in _sources().items():
        for func, line in _statements(tree, ast.Assert):
            if (file, func) in ALLOWED:
                allowed_seen.add((file, func))
            else:
                offending.append(f"{file}:{line} (in {func})")
    assert not offending, "assert statements vanish under python -O: " + ", ".join(offending)
    assert allowed_seen == ALLOWED, "the allow-list names an assert that no longer exists"


def test_every_public_name_has_a_caller():
    uncalled = _uncalled(_sources())
    unexpected = sorted(f"{file}:{name}" for file, name in uncalled - UNCALLED.keys())
    assert not unexpected, "public names with no caller in the package: " + ", ".join(unexpected)
    stale = sorted(f"{file}:{name}" for file, name in UNCALLED.keys() - uncalled)
    assert not stale, "the allow-list names a definition that is gone or has a caller: " + ", ".join(stale)


def _cited(reason: str) -> set:
    cited = {key for key, why in UNCALLED.items() if why.startswith(reason)}
    assert cited, f"no allow-list entry gives the reason {reason!r}"
    return cited


def test_benchmark_entries_say_why():
    # an entry that cites perfbench/spans.py says whether it is traced or imported
    vague = sorted(
        f"{file}:{name}"
        for (file, name), why in UNCALLED.items()
        if "perfbench/spans.py" in why and not why.startswith((TRACED, IMPORTED))
    )
    assert not vague, "allow-listed for the benchmark without saying how it is used: " + ", ".join(vague)


def test_traced_by_name_entries_are_traced():
    # read perfbench/spans.py, never import it: when the tracer moves, an
    # entry that only the benchmark kept goes stale here at once
    tree = ast.parse(SPANS.read_text())
    layers = next(
        ast.literal_eval(node.value)
        for node in tree.body
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "LAYERS" for t in node.targets)
    )
    traced = {(f"{module}.py", name) for module, names in layers.values() for name in names}
    untraced = sorted(f"{file}:{name}" for file, name in _cited(TRACED) - traced)
    assert not untraced, "allow-listed as traced, but not in LAYERS: " + ", ".join(untraced)


def test_imported_by_the_benchmark_entries_are_imported():
    tree = ast.parse(SPANS.read_text())
    imported = {
        (f"{node.module.rsplit('.', 1)[-1]}.py", alias.name)
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("lagtrace.")
        for alias in node.names
    }
    missing = sorted(f"{file}:{name}" for file, name in _cited(IMPORTED) - imported)
    assert not missing, "allow-listed as imported, but not imported by spans.py: " + ", ".join(missing)


def _readers(sources: dict, name: str) -> set:
    """(file, enclosing top-level definition) of every use of `name`."""
    return {(file, owner) for file, tree in sources.items() for owner, used in _uses(tree) if used == name}


def _names(tree: ast.AST) -> set:
    """Every identifier a module names: bare names, attributes, imported
    names and the names of its definitions."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.alias):
            found.update({node.name, node.asname} - {None})
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            found.add(node.name)
    return found


def _minimum_python() -> tuple[int, int]:
    found = re.search(r'^requires-python = ">=(\d+)\.(\d+)"$', PYPROJECT.read_text(), re.M)
    assert found, "pyproject.toml declares no requires-python lower bound"
    return int(found[1]), int(found[2])


def _too_new(sources: dict, version: tuple[int, int]) -> list:
    """file:line of every module text that does not parse as `version`."""
    found = []
    for file, text in sources.items():
        try:
            ast.parse(text, filename=file, feature_version=version)
        except SyntaxError as exc:
            found.append(f"{file}:{exc.lineno} {exc.msg}")
    return found


def test_only_two_readers_of_the_packed_kernel():
    readers = _readers(_sources(), "_packed_levels")
    assert readers == PACKED_READERS, "packed._packed_levels read by: " + ", ".join(
        sorted(f"{file}:{owner}" for file, owner in readers)
    )


def test_the_lane_format_is_private_to_packed():
    sources = _sources()
    assert LANE_FORMAT <= _names(sources["packed.py"]), "a name of the rule is gone from packed.py"
    leaks = sorted(
        f"{file}:{name}"
        for file, tree in sources.items()
        if file != "packed.py"
        for name in _names(tree) & LANE_FORMAT
    )
    assert not leaks, "the lane format named outside packed.py: " + ", ".join(leaks)


def test_every_module_parses_as_the_oldest_supported_python():
    texts = {path.name: path.read_text() for path in sorted(PACKAGE.glob("*.py"))}
    version = _minimum_python()
    too_new = _too_new(texts, version)
    assert not too_new, f"syntax newer than Python {version}: " + ", ".join(too_new)


def test_the_packed_module_imports_nothing_from_tensorlie():
    tree = _sources()["packed.py"]
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            imported.add(node.module or "")
        elif isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
    assert not {name for name in imported if "tensorlie" in name}, sorted(imported)


@pytest.mark.parametrize("suite", ["eq1", "eq3", "equivariance"])
def test_the_verifiers_decode_only_through_tau(suite):
    # the truncation identities and the conjugation checks compare packed
    # ints (_expands_to); a fresh process running one suite reaches the
    # decoder only while johnson.tau reads a class
    script = (
        "import sys\n"
        "import lagtrace.cli as cli\n"
        "import lagtrace.johnson as johnson\n"
        "import lagtrace.packed as packed\n"
        "decode = packed._expansion_terms\n"
        "calls = []\n"
        "def traced(*args):\n"
        "    frame = sys._getframe(1)\n"
        "    while frame is not None and frame.f_code is not johnson.tau.__code__:\n"
        "        frame = frame.f_back\n"
        "    calls.append(frame is not None)\n"
        "    return decode(*args)\n"
        "for module in list(sys.modules.values()):\n"
        "    if getattr(module, '_expansion_terms', None) is decode:\n"
        "        module._expansion_terms = traced\n"
        f"assert all(r['equal'] for r in cli.run_suite({suite!r}, 2, 0, 10))\n"
        "print(len(calls), calls.count(False))\n"
    )
    src = str(PACKAGE.parent)
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    calls, outside_tau = map(int, done.stdout.split())
    assert calls > 0 and outside_tau == 0, done.stdout


def test_one_expansion_site_and_no_internal_lie_poly_in_derivations():
    tree = _sources()["derivations.py"]
    expanders = _named_in(tree, "_expand_bracketing")
    assert expanders == EXPANDERS, "derivations expands a bracketing in: " + ", ".join(map(str, expanders))
    sites = _named_in(tree, "LiePoly")
    assert sites == LIE_POLY_SITES, "derivations names LiePoly in: " + ", ".join(map(str, sites))


def test_immutable_values_are_made_one_way():
    base_file, base = FROZEN_BASE
    allowed = {f"{base}.__setattr__", f"{base}.__delattr__"}
    seen, breaches = set(), []
    for file, tree in _sources().items():
        for line, what in _immutability_breaches(tree):
            if file == base_file and what in allowed:
                seen.add(what)
            else:
                breaches.append(f"{file}:{line} {what}")
    assert not breaches, "immutability encoded outside the base: " + ", ".join(breaches)
    assert seen == allowed, f"the base {base} no longer refuses setattr and delattr"


def _outside_allow_list(sources: dict, methods: dict) -> tuple[list, list]:
    """The class-body definitions of `methods` that their allow-list does
    not name ("file:line Class.method"), and the allow-list's entries that
    name no definition ("file:Class.method")."""
    allowed = {
        (file, f"{cls}.{method}"): why
        for method, owners in methods.items()
        for (file, cls), why in owners.items()
    }
    assert all(allowed.values()), "an allowed method gives no reason"
    found = {
        (file, what): line
        for file, tree in sources.items()
        for line, what in _class_defines(tree, methods)
    }
    extra = sorted(f"{file}:{line} {what}" for (file, what), line in found.items() if (file, what) not in allowed)
    stale = sorted(f"{file}:{what}" for file, what in allowed.keys() - found.keys())
    return extra, stale


def test_value_equality_is_defined_once():
    extra, stale = _outside_allow_list(_sources(), VALUE_METHODS)
    assert not extra, "a value method outside the allow-list: " + ", ".join(extra)
    assert not stale, "the allow-list names a definition that is gone: " + ", ".join(stale)


def test_each_product_has_one_spelling():
    extra, stale = _outside_allow_list(_sources(), PRODUCT_METHODS)
    assert not extra, "a product outside the allow-list: " + ", ".join(extra)
    assert not stale, "the allow-list names a product that is gone: " + ", ".join(stale)


def test_the_genus_budget_is_compared_once():
    found = [
        (file, line, owner)
        for file, tree in _sources().items()
        for line, owner in _comparisons_naming(tree, "GENUS_BUDGET")
    ]
    assert [(file, owner) for file, _, owner in found] == [GENUS_BUDGET_CHECK], (
        "GENUS_BUDGET compared outside johnson._genus_in_budget: "
        + ", ".join(f"{file}:{line} (in {owner})" for file, line, owner in found)
    )


def test_slots_are_written_only_by_fill():
    writes = [
        f"{file}:{line} (in {owner})" for file, tree in _sources().items() for line, owner in _slot_writes(tree)
    ]
    assert not writes, "a slot written outside _fill: " + ", ".join(writes)


def test_no_unused_imports():
    unused = [
        f"{file}:{line} {name}" for file, tree in _sources().items() for line, name in _unused_imports(tree)
    ]
    assert not unused, "imported but never used: " + ", ".join(unused)


def test_no_imports_inside_functions():
    local = [
        f"{file}:{line} (in {func})"
        for file, tree in _sources().items()
        for func, line in _statements(tree, (ast.Import, ast.ImportFrom))
        if func
    ]
    assert not local, "imports inside function bodies: " + ", ".join(local)


def test_dict_layers_build_no_tensor_poly():
    sources = _sources()
    found = [
        f"{file}:{line}"
        for file in ("derivations.py", "magnusrep.py")
        for line in _tensor_poly_lines(sources[file])
    ]
    assert not found, "TensorPoly above tensorlie: " + ", ".join(found)


def test_the_cli_imports_neither_dataclasses_nor_inspect():
    # the modules the interpreter loaded before the import (site, on some
    # installs) do not count against the package
    script = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "import lagtrace.cli\n"
        "print(sorted(({'dataclasses', 'inspect'} - before) & set(sys.modules)))\n"
    )
    src = str(PACKAGE.parent)
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


def test_compose_substitutes_through_the_module_level_apply(monkeypatch):
    real = freegroup.apply
    calls = []

    def counting(f, w, *args, **kwargs):
        calls.append(w)
        return real(f, w, *args, **kwargs)

    monkeypatch.setattr(freegroup, "apply", counting)
    g = 3
    a1, b1, b2 = freegroup.alpha(1, g), freegroup.beta(1, g), freegroup.beta(2, g)
    images = [freegroup.alpha(i, g) for i in range(1, g + 1)]
    images += [freegroup.beta(i, g) for i in range(1, g + 1)]
    f = freegroup.FreeGroupMap(freegroup.SURFACE, g, [a1 * b1, *images[1:]])
    h = freegroup.FreeGroupMap(freegroup.SURFACE, g, [*images[:g], b1 * a1 * b2, *images[g + 1 :]])
    for budget in (None, 100):
        calls.clear()
        freegroup.compose(f, h, budget)
        assert calls == list(h.images)
    # a commutator of certified classes is six compositions
    twist = freegroup.MappingClassRep(
        freegroup.FreeGroupMap(freegroup.SURFACE, g, [*images[:g], b1 * a1, *images[g + 1 :]]),
        freegroup.FreeGroupMap(freegroup.SURFACE, g, [*images[:g], b1 * ~a1, *images[g + 1 :]]),
    )
    calls.clear()
    freegroup.mcr_commutator(twist, freegroup.mcr_inverse(twist))
    assert len(calls) == 6 * 2 * g


def test_no_seam_table_is_kept_on_a_map():
    assert freegroup.FreeGroupMap.__slots__ == ("ambient", "genus", "images", "_subst")


def test_the_scan_finds_tensor_poly():
    tree = ast.parse(
        "from .tensorlie import SymPoly, TensorPoly\n"
        "def f(t):\n    return TensorPoly._trusted(t, {})\n"
        "def g(t):\n    return tensorlie.TensorPoly(t)\n"
    )
    assert _tensor_poly_lines(tree) == [1, 3, 5]


def test_the_scan_finds_names_by_definition():
    tree = ast.parse(
        "from .t import P, f\n"
        "x = P\n"
        "class C:\n    def m(self) -> P:\n        return 1\n"
        "    def n(self):\n        def inner():\n            return t.P(f())\n"
        "def g():\n    return f\n"
    )
    assert _named_in(tree, "P") == {None, "C.m", "C.n.inner"}
    assert _named_in(tree, "f") == {"C.n.inner", "g"}


def test_the_scan_finds_immutability_breaches():
    tree = ast.parse(
        "class Frozen:\n    def __setattr__(self, n, v):\n        raise AttributeError\n"
        "class C(Frozen):\n    __delattr__ = Frozen.__setattr__\n"
        "    def _fill(self, x):\n        object.__setattr__(self, 'x', x)\n"
        "def f(o):\n    o.__setattr__('x', 1)\n    return object.__setattr__\n"
    )
    assert _immutability_breaches(tree) == [
        (2, "Frozen.__setattr__"),
        (5, "C.__delattr__"),
        (7, "object.__setattr__"),
        (10, "object.__setattr__"),
    ]


def test_the_scan_finds_a_planted_eq():
    tree = ast.parse(
        "class Frozen:\n    def __eq__(self, other):\n        return True\n"
        "class C(Frozen):\n    __hash__ = None\n    def size(self):\n        return 1\n"
        "class D(C):\n    def __eq__(self, other):\n        return False\n    __hash__: object = None\n"
    )
    assert _class_defines(tree, VALUE_METHODS) == [
        (2, "Frozen.__eq__"),
        (5, "C.__hash__"),
        (9, "D.__eq__"),
        (11, "D.__hash__"),
    ]


def test_the_scan_finds_a_planted_product():
    planted = ast.parse(
        "class GroupWord:\n    def __mul__(self, other):\n        return self\n"
        "class TensorPoly:\n    def __mul__(self, other):\n        return self\n"
        "    __rmul__ = __mul__\n"
        "class LaurentElem:\n    def __rmul__(self, other):\n        return self\n"
    )
    extra, stale = _outside_allow_list({"freegroup.py": planted}, PRODUCT_METHODS)
    assert extra == [
        "freegroup.py:5 TensorPoly.__mul__",
        "freegroup.py:7 TensorPoly.__rmul__",
        "freegroup.py:9 LaurentElem.__rmul__",
    ]
    assert stale == ["groupring.py:GroupRingElem.__mul__", "groupring.py:LaurentElem.__mul__"]


def test_the_scan_finds_a_planted_budget_comparison():
    tree = ast.parse(
        "from .johnson import GENUS_BUDGET\n"
        "def _genus_in_budget(g):\n    if g > GENUS_BUDGET:\n        raise ValueError\n"
        "def read(g):\n    def block():\n        return g <= johnson.GENUS_BUDGET + 1\n"
        "    return block, f'{GENUS_BUDGET}'\n"
        "limit = 9 if GENUS_BUDGET == 8 else 0\n"
    )
    assert _comparisons_naming(tree, "GENUS_BUDGET") == [
        (3, "_genus_in_budget"),
        (7, "read.block"),
        (9, None),
    ]


def test_the_scan_finds_slot_writes():
    tree = ast.parse(
        "class Frozen:\n    _SLOT_SETTERS: tuple\n"
        "    def __init_subclass__(cls):\n        cls._SLOT_SETTERS = (cls.x.__set__,)\n"
        "    def _fill(self, x):\n        self._SLOT_SETTERS[0](self, x)\n"
        "class D(Frozen):\n    def _fill(self, x):\n        D.y.__set__(self, x)\n"
        "    def read(self):\n        D.y.__set__(self, 1)\n"
        "def f(d):\n    d._SLOT_SETTERS[0](d, 2)\n"
    )
    assert _slot_writes(tree) == [(11, "D.read"), (13, "f")]


def test_the_scan_finds_every_name():
    tree = ast.parse(
        "from .p import _a, _b as _c\n"
        "import q as _d\n"
        "def _e(x):\n    return p._f(_g)\n"
        "class _H:\n    pass\n"
        "'_i'\n"
    )
    assert _names(tree) >= {"_a", "_b", "_c", "q", "_d", "_e", "p", "_f", "_g", "_H"}
    assert "_i" not in _names(tree)


def test_the_version_scan_rejects_newer_syntax():
    group = "try:\n    pass\nexcept* ValueError:\n    pass\n"
    match = "match 1:\n    case 1:\n        pass\n"
    assert _too_new({"m.py": match}, (3, 10)) == []
    assert _too_new({"m.py": group}, (3, 11)) == []
    [found] = _too_new({"m.py": group, "n.py": match}, (3, 10))
    assert found.startswith("m.py:") and "3.11" in found, found


def test_the_scan_finds_asserts():
    tree = ast.parse("def f(x):\n    assert x\n\nassert True\n")
    assert _statements(tree, ast.Assert) == [("f", 2), (None, 4)]


def test_the_scans_find_uncalled_names_and_unused_imports():
    a = ast.parse(
        "from .b import used, unused\n"
        "def f(n):\n    return f(n - 1) + used()\n"
        "def g(bar):\n    return bar\n"
        "def _private():\n    pass\n"
    )
    b = ast.parse("import os\n\ndef used():\n    return 1\n\ndef bar():\n    return a.g\n")
    # f calls only itself; bar is only a parameter of g; g is reached by attribute
    assert _uncalled({"a.py": a, "b.py": b}) == {("a.py", "f"), ("b.py", "bar")}
    assert _readers({"a.py": a, "b.py": b}, "used") == {("a.py", "f")}
    assert _unused_imports(a) == [(1, "unused")]
    assert _unused_imports(b) == [(1, "os")]


def test_the_scan_finds_imports():
    tree = ast.parse(
        "import os\n"
        "def f():\n    import random\n    def g():\n        from .x import y\n"
        "class C:\n    def m(self):\n        import sys\n"
    )
    found = _statements(tree, (ast.Import, ast.ImportFrom))
    assert found == [(None, 1), ("f", 3), ("g", 5), ("m", 8)]
