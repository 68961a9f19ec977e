"""Command-line behaviour: outputs, JSON round trips, exit codes."""

import json
import os
import random
import resource
import subprocess
import sys
import time
from pathlib import Path

import pytest

import lagtrace.cli as cli
import lagtrace.derivations as derivations
import lagtrace.johnson as johnson
import lagtrace.packed as packed
from lagtrace.cli import build_parser, main, run_suite
from lagtrace.derivations import basis_G, lagrangian_trace
from lagtrace.errors import NotInG, ParseError
from lagtrace.freegroup import (
    SURFACE,
    FreeGroupMap,
    MappingClassRep,
    alpha,
    beta,
    mcr_compose,
    mcr_conjugate,
    mcr_identity,
    max_image_length,
    symplectic_action,
)
from lagtrace.johnson import annulus_twist, meridian_twist, serialize_mapping_class, tau
from lagtrace.magnusrep import magnus_rep
from lagtrace.tensorlie import (
    handlebody_alphabet,
    render_lie,
    render_sym,
    surface_alphabet,
)
from oracles import parse_laurent, parse_lie, parse_sym


SRC = Path(__file__).resolve().parent.parent / "src"
# address-space cap for the fresh interpreters that must fail before sizing
CAP = 1 << 30


def run_child(*argv, cap=False, timeout=None):
    """`python -m lagtrace.cli argv` in a fresh interpreter that imports this
    checkout's src, whatever PYTHONPATH the tests run under; with `cap`, its
    address space is capped at CAP bytes."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "lagtrace.cli", *argv],
        capture_output=True,
        text=True,
        timeout=timeout,
        env=env,
        preexec_fn=(lambda: resource.setrlimit(resource.RLIMIT_AS, (CAP, CAP))) if cap else None,
    )


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run(capsys, *argv, "--json")
    return code, json.loads(out)


@pytest.fixture
def phi_file(tmp_path):
    p = tmp_path / "phi.txt"
    p.write_text(serialize_mapping_class(annulus_twist(2)))
    return str(p)


@pytest.fixture
def identity_file(tmp_path):
    p = tmp_path / "id.txt"
    p.write_text(serialize_mapping_class(mcr_identity(2)))
    return str(p)


class TestSubcommands:
    def test_det_builtin(self, capsys):
        code, out = run(capsys, "det", "--builtin", "phi")
        assert code == 0
        assert "det = B2^-1" in out
        assert "additive = -x2" in out

    def test_det_from_file(self, capsys, phi_file):
        code, out = run(capsys, "det", "--file", phi_file)
        assert code == 0
        assert "B2^-1" in out

    def test_degree_identity_exceeds(self, capsys, identity_file):
        code, out = run(capsys, "degree", "--file", identity_file, "--max", "4")
        assert code == 0
        assert "exceeds N" in out

    def test_degree_phi(self, capsys):
        code, out = run(capsys, "degree", "--builtin", "phi")
        assert code == 0
        assert "degree = 1" in out

    def test_magnus_handlebody(self, capsys):
        code, out = run(capsys, "magnus", "--builtin", "phi", "--handlebody")
        assert code == 0
        assert "B2^-1" in out and "1 - B1^-1" in out

    def test_fox_column(self, capsys):
        code, out = run(capsys, "fox", "--builtin", "phi", "--gen", "a1")
        assert code == 0
        assert "d image(a2) / d a1 = a2 - a2 a1 b1 a1^-1" in out

    def test_trace_lagrangian(self, capsys):
        code, out = run(capsys, "trace", "--builtin", "phi", "--k", "1",
                        "--kind", "lagrangian")
        assert code == 0
        assert "lagrangian trace = -x2" in out

    def test_trace_morita_nonzero(self, capsys):
        # doubled contraction of the twist wedge; see the trace module
        code, out = run(capsys, "trace", "--builtin", "phi", "--k", "1",
                        "--kind", "morita")
        assert code == 0
        assert "morita trace = 2*x4" in out

    def test_builtin_swap_and_meridian(self, capsys):
        for name in ("swap", "meridian"):
            code, out = run(capsys, "det", "--builtin", name)
            assert code == 0


class TestJsonRoundTrips:
    def test_tau_values_reparse(self, capsys):
        code, payload = run_json(capsys, "tau", "--builtin", "phi", "--k", "1")
        assert code == 0
        assert payload["schema"] == 1
        alphabet = surface_alphabet(2)
        d = tau(annulus_twist(2), 1)
        names = ["a1", "a2", "b1", "b2"]
        for name, v in zip(names, d.values):
            assert parse_lie(payload["values"][name], alphabet, degree=2) == v

    def test_trace_reparses(self, capsys):
        code, payload = run_json(capsys, "trace", "--builtin", "phi",
                                 "--k", "1", "--kind", "lagrangian")
        assert code == 0
        alphabet = handlebody_alphabet(2)
        want = lagrangian_trace(tau(annulus_twist(2), 1))
        assert parse_sym(payload["trace"], alphabet) == want

    def test_det_reparses(self, capsys):
        code, payload = run_json(capsys, "det", "--builtin", "phi")
        assert code == 0
        alphabet = handlebody_alphabet(2)
        got = parse_laurent(payload["det"], alphabet)
        assert parse_laurent("B2^-1", alphabet) == got

    def test_magnus_matrix_reparses(self, capsys):
        code, payload = run_json(capsys, "magnus", "--builtin", "phi")
        assert code == 0
        alphabet = surface_alphabet(2)
        M = magnus_rep(annulus_twist(2))
        for row, want_row in zip(payload["matrix"], M):
            for cell, want in zip(row, want_row):
                assert parse_laurent(cell, alphabet) == want

    def test_basis_payload(self, capsys):
        code, payload = run_json(capsys, "basis", "--space", "G",
                                 "--genus", "2", "--k", "1")
        assert code == 0
        assert payload["dimension"] == 4
        assert len(payload["coordinates"]) == 4
        width = len(payload["labels"])
        for row in payload["coordinates"]:
            assert len(row) == width
            assert all(isinstance(x, int) for x in row)

    def test_verify_reports_echo_seed(self, capsys):
        code, payload = run_json(capsys, "verify", "crossed", "--genus", "2",
                                 "--seed", "7", "--count", "3")
        assert code == 0
        assert payload["all_pass"] is True
        assert all(r["seed"] == 7 for r in payload["reports"])


class TestVerifySuites:
    def test_thm_b_text(self, capsys):
        code, out = run(capsys, "verify", "thm-b", "--genus", "2",
                        "--count", "2")
        assert code == 0
        assert "-x2 vs -x2" in out
        assert "all pass" in out

    def test_bracket_vanish(self, capsys):
        code, out = run(capsys, "verify", "bracket-vanish", "--genus", "2",
                        "--count", "3")
        assert code == 0

    def test_equivariance(self, capsys):
        code, out = run(capsys, "verify", "equivariance", "--genus", "2",
                        "--count", "4", "--seed", "3")
        assert code == 0

    def test_morita_prop(self, capsys):
        code, out = run(capsys, "verify", "morita-prop", "--genus", "2",
                        "--count", "2")
        assert code == 0
        assert "all pass" in out

    def test_the_parser_offers_the_suites_in_order(self):
        sub = next(a for a in build_parser()._actions if a.dest == "command")
        suite = next(a for a in sub.choices["verify"]._actions if a.dest == "suite")
        assert tuple(suite.choices) == cli.SUITES

    def test_run_suite_refuses_an_unknown_suite(self):
        with pytest.raises(ParseError, match="unknown suite 'nope'"):
            run_suite("nope", 2, 0, 1)


@pytest.mark.parametrize("g", [2, 3, 4])
def test_suites_check_the_library_twist(monkeypatch, g):
    # the builtin twist of thm-b, morita-prop, eq1 and eq3 is annulus_twist(g)
    # as the sample library holds it, certified once per genus, so the
    # suites build no certified class of their own
    twist = cli._builtin_twist(g)
    fresh = annulus_twist(g)
    assert any(twist is m for m in johnson.handlebody_sample_library(g))
    assert (twist.forward, twist.inverse) == (fresh.forward, fresh.inverse)
    certified = []
    init = MappingClassRep.__init__
    monkeypatch.setattr(MappingClassRep, "__init__", lambda self, *a: certified.append(a) or init(self, *a))
    for suite in ("thm-b", "morita-prop", "eq1", "eq3"):
        assert all(r["equal"] for r in run_suite(suite, g, 0, 2))
    assert certified == []


def _conjugation_verdicts(monkeypatch, g: int, seed: int):
    """The conjugation checks of run_suite's equivariance at count 10, each
    twice: the suite's verdict, has_tau on the conjugate's forward map, and
    the verdict it replaced, tau of the whole conjugate psi m psi^-1 (built
    by mcr_conjugate, its inverse too) compared with the moved derivation
    the suite passed to has_tau."""
    asked = []
    has_tau = cli.has_tau
    monkeypatch.setattr(cli, "has_tau", lambda f, k, d: asked.append((f, k, d)) or has_tau(f, k, d))
    reports = run_suite("equivariance", g, seed, 10)
    verdicts = [r["equal"] for r in reports if r["claim"].startswith("conjugation")]
    # the suite's own draws, replayed
    rng = random.Random(seed)
    lib = johnson.handlebody_sample_library(g)
    samples = cli._sample_degree_one(g, seed, 5)
    replaced = []
    for f, k, moved in asked:
        m, psi = rng.choice(samples), rng.choice(lib)
        conjugate = mcr_conjugate(m, psi)
        assert (f, k) == (conjugate.forward, 1)
        replaced.append(tau(conjugate, 1) == moved)
    return verdicts, replaced


@pytest.mark.parametrize("g", [2, 3, 4])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_equivariance_verdicts_match_the_conjugate_tau(monkeypatch, g, seed):
    verdicts, replaced = _conjugation_verdicts(monkeypatch, g, seed)
    assert verdicts == replaced == [True] * 10


@pytest.mark.parametrize("g", [2, 3, 4])
def test_equivariance_fails_with_a_wrong_matrix(monkeypatch, g):
    # every psi moved by the action of the first meridian twist, a
    # symplectic matrix: a conjugate whose psi acts otherwise fails both ways
    wrong = symplectic_action(johnson.handlebody_sample_library(g)[0])
    monkeypatch.setattr(cli, "symplectic_action", lambda psi: wrong)
    verdicts, replaced = _conjugation_verdicts(monkeypatch, g, 0)
    assert verdicts == replaced
    assert False in verdicts


@pytest.mark.parametrize("suite", ["equivariance", "bracket-vanish"])
def test_suites_raise_not_in_G(monkeypatch, suite):
    # every derivation both suites trace lies in G, so a NotInG is a defect
    # to report (exit 10), not a check to skip; the basis is built before
    # is_in_G is forced false, since basis_G certifies with it too
    basis = basis_G(2, 1)
    monkeypatch.setattr(cli, "basis_G", lambda genus, k: basis)
    monkeypatch.setattr(derivations, "is_in_G", lambda d: False)
    with pytest.raises(NotInG):
        run_suite(suite, 2, 0, 3)


class TestExitCodes:
    def test_parse_error_is_3(self, capsys, tmp_path):
        p = tmp_path / "bad.txt"
        p.write_text("genus 2\na1 -> zz9\n")
        assert main(["det", "--file", str(p)]) == 3
        capsys.readouterr()
        p.write_text("genus 2\na1 a1 b1\n")
        assert main(["det", "--file", str(p)]) == 3
        assert capsys.readouterr().err == "error: expected 'a1 -> word' (line 2)\n"

    def test_empty_file_is_3(self, capsys, tmp_path):
        p = tmp_path / "empty.txt"
        p.write_text("")
        assert main(["det", "--file", str(p)]) == 3
        assert capsys.readouterr().err == "error: empty automorphism file (line 1)\n"

    def test_uncertified_file_is_4(self, capsys, tmp_path):
        # an image written 1 (or left empty) reads as the identity word; a1 -> 1
        # has no inverse, and certification refuses the pair
        for image in ("1", ""):
            block = [f"a1 -> {image}", "a2 -> a2", "b1 -> b1", "b2 -> b2"]
            p = tmp_path / "collapse.txt"
            p.write_text("\n".join(["genus 2", *block, "", *block]) + "\n")
            assert main(["det", "--file", str(p)]) == 4
            assert capsys.readouterr().err == "error: supplied inverse does not invert the forward map\n"

    def test_text_after_inverse_block_is_3(self, capsys, tmp_path):
        p = tmp_path / "extra.txt"
        p.write_text(serialize_mapping_class(annulus_twist(2)) + "\na1 -> b1\n")
        assert main(["det", "--file", str(p)]) == 3
        assert capsys.readouterr().err == "error: unexpected text after the inverse block (line 12)\n"

    def test_header_alone_is_3_at_once(self, tmp_path):
        # a header of genus 10^8 names 2 * 10^8 generators; the parser must
        # report the missing first line before sizing anything by the genus,
        # so it runs in a fresh interpreter with its address space capped
        p = tmp_path / "header.txt"
        p.write_text("genus 100000000\n")
        proc = run_child("tau", "--k", "1", "--file", str(p), cap=True, timeout=60)
        assert proc.returncode == 3, proc.stderr
        assert "missing image line for a1 (line 2)" in proc.stderr

    def test_missing_file_is_3(self, capsys):
        assert main(["det", "--file", "/nonexistent/f.txt"]) == 3

    def test_unreadable_file_is_3(self, capsys, tmp_path):
        # a directory, and bytes that are not UTF-8: one error line, no traceback
        p = tmp_path / "latin1.txt"
        p.write_bytes(serialize_mapping_class(annulus_twist(2)).encode() + b"\xff\n")
        for path, reason in ((tmp_path, "Is a directory"), (p, "is not UTF-8")):
            assert main(["det", "--file", str(path)]) == 3
            err = capsys.readouterr().err
            assert err.startswith("error: ") and reason in err and err.count("\n") == 1

    # str.isdigit takes both: int rejects superscript two, reads Arabic-Indic two as 2
    @pytest.mark.parametrize("digit", ["\u00b2", "\u0662"], ids=["superscript", "arabic-indic"])
    @pytest.mark.parametrize(
        "where,at", [("header", "line 1, column 7"), ("letter", "line 2, column 10")], ids=["header", "letter"]
    )
    def test_non_ascii_digits_are_3(self, capsys, tmp_path, digit, where, at):
        lines = serialize_mapping_class(annulus_twist(2)).split("\n")
        if where == "header":
            lines[0] = f"genus {digit}"
        else:
            lines[1] = f"a1 -> b1 a{digit}"
        p = tmp_path / "digits.txt"
        p.write_text("\n".join(lines), encoding="utf-8")
        assert main(["det", "--file", str(p)]) == 3
        assert capsys.readouterr().err.endswith(f"({at})\n")

    def test_not_in_handlebody_is_5(self, capsys, tmp_path):
        # a1 -> a1 b1 does not project to a handlebody automorphism
        p = tmp_path / "nh.txt"
        p.write_text(
            "genus 2\n"
            "a1 -> a1 b1\na2 -> a2\nb1 -> b1\nb2 -> b2\n"
            "\n"
            "a1 -> a1 b1^-1\na2 -> a2\nb1 -> b1\nb2 -> b2\n"
        )
        assert main(["det", "--file", str(p)]) == 5

    def test_degree_too_low_is_6(self, capsys):
        # the meridian twist is not in the kernel of the symplectic action
        assert main(["tau", "--builtin", "meridian", "--k", "1"]) == 6

    def test_degree_too_low_names_the_class_degree(self, capsys, tmp_path):
        # one error word of this class has degree 1, another degree 0
        p = tmp_path / "shallow.txt"
        m = mcr_compose(meridian_twist(2, 1), annulus_twist(2, 1))
        p.write_text(serialize_mapping_class(m))
        assert main(["tau", "--k", "2", "--file", str(p)]) == 6
        assert capsys.readouterr().err == "error: class has filtration degree 0, need at least 2\n"

    def test_trace_outside_G_is_10(self, capsys, tmp_path):
        # conjugating the genus-3 twist (tau = a1^b1^b2) by a1 -> a1 b3,
        # a3 -> a3 b1 adds a b1^b2^b3 term, which the handlebody projection keeps
        g = 3
        fwd = [alpha(j, g) for j in range(1, g + 1)] + [beta(j, g) for j in range(1, g + 1)]
        inv = list(fwd)
        fwd[0], inv[0] = alpha(1, g) * beta(3, g), alpha(1, g) * ~beta(3, g)
        fwd[2], inv[2] = alpha(3, g) * beta(1, g), alpha(3, g) * ~beta(1, g)
        f = MappingClassRep(FreeGroupMap(SURFACE, g, fwd), FreeGroupMap(SURFACE, g, inv))
        p = tmp_path / "outside.txt"
        p.write_text(serialize_mapping_class(mcr_conjugate(annulus_twist(g), f)))
        argv = ["trace", "--file", str(p), "--k", "1"]
        assert main([*argv, "--kind", "morita"]) == 0
        assert main([*argv, "--kind", "lagrangian"]) == 10
        assert "handlebody projection" in capsys.readouterr().err

    def test_bad_generator_is_3(self, capsys):
        assert main(["fox", "--builtin", "phi", "--gen", "c3"]) == 3

    def test_basis_past_budget_is_13_at_once(self, capsys, monkeypatch):
        # G 4 4 needs a 2.29G-cell bracket matrix; it is refused before any
        # column.  Should the budget go missing, building the columns fails
        # the test here instead of exhausting memory.
        def no_columns(*args):
            raise AssertionError("bracket columns built past the budget")

        monkeypatch.setattr(derivations, "_kernel_columns", no_columns)
        start = time.perf_counter()
        assert main(["basis", "--space", "G", "--genus", "4", "--k", "4"]) == 13
        assert time.perf_counter() - start < 1.0
        # the same from a fresh interpreter, with its address space capped
        proc = run_child("basis", "--space", "G", "--genus", "4", "--k", "4", cap=True, timeout=60)
        assert proc.returncode == 13, proc.stderr
        assert "budget" in proc.stderr

    @pytest.mark.parametrize("k", [3_600, 10**9])
    def test_basis_degree_past_budget_is_13_at_once(self, capsys, k):
        # the cell count at these k has thousands to billions of digits: a
        # lower bound refuses them before any power of 2g is built or printed
        start = time.perf_counter()
        assert main(["basis", "--space", "G", "--genus", "2", "--k", str(k)]) == 13
        assert time.perf_counter() - start < 1.0
        err = capsys.readouterr().err
        assert err.startswith(f"error: basis at genus 2, degree {k} needs a bracket matrix")
        assert f"(budget {derivations.BASIS_CELL_BUDGET:,})" in err

    def test_count_past_budget_is_13_before_sampling(self, capsys, monkeypatch):
        def no_sample(*args, **kwargs):
            raise AssertionError("a sample was drawn past the count budget")

        monkeypatch.setattr(cli, "sample_Ak", no_sample)
        monkeypatch.setattr(cli, "handlebody_sample_library", no_sample)
        start = time.perf_counter()
        for count in (cli.COUNT_BUDGET + 1, 10**8):
            for suite in ("thm-a", "crossed"):
                assert main(["verify", suite, "--count", str(count)]) == 13
                assert capsys.readouterr().err == (
                    f"error: count {count} is past the count budget ({cli.COUNT_BUDGET})\n"
                )
        assert time.perf_counter() - start < 1.0

    def test_magnus_past_budget_is_13_at_once(self):
        # the error words of phi use 3 generators, so tau_15 would expand
        # them to 3^16 lanes; the expansion is refused before any lane exists
        proc = run_child("tau", "--builtin", "phi", "--k", "15", cap=True, timeout=10)
        assert proc.returncode == 13, proc.stderr
        assert "in 3 generators to degree 16 is past the lane budget" in proc.stderr
        assert f"({packed.MAGNUS_LANE_BUDGET:,} lanes)" in proc.stderr

    @pytest.mark.parametrize(
        "argv",
        [
            ["tau", "--builtin", "identity", "--k", "100000000"],
            ["tau", "--builtin", "phi", "--k", "1000000"],
            ["tau", "--builtin", "phi", "--k", "20000000"],
            ["trace", "--builtin", "phi", "--kind", "lagrangian", "--k", "1000000"],
        ],
        ids=["identity-1e8", "phi-1e6", "phi-2e7", "trace-1e6"],
    )
    def test_magnus_lanes_are_counted_without_building_them(self, argv):
        # the identity's error words use no generator, yet would need one int
        # per degree; m^T at a huge T must not be built to be refused either
        proc = run_child(*argv, cap=True, timeout=10)
        assert proc.returncode == 13, proc.stderr
        assert "lane budget" in proc.stderr

    def test_genus_past_budget_is_13_at_once(self, capsys):
        top = str(johnson.GENUS_BUDGET)
        assert main(["tau", "--builtin", "phi", "--genus", top, "--k", "1"]) == 0
        past = str(johnson.GENUS_BUDGET + 1)
        start = time.perf_counter()
        assert main(["tau", "--builtin", "phi", "--genus", past, "--k", "1"]) == 13
        assert main(["verify", "thm-a", "--genus", past]) == 13
        assert time.perf_counter() - start < 1.0
        assert f"genus {past} is past the genus budget" in capsys.readouterr().err
        # a huge genus, from a fresh interpreter with its address space capped
        for argv in (["tau", "--builtin", "phi", "--k", "1"], ["verify", "crossed"]):
            proc = run_child(*argv, "--genus", "200000", cap=True, timeout=10)
            assert proc.returncode == 13, proc.stderr
            assert "genus budget" in proc.stderr

    def test_file_genus_past_budget_is_13_at_once(self, capsys, tmp_path):
        # a class read from a file meets the same budget at its header, before
        # any image is read: the 301st power of the genus-9 twist has images
        # of 3,011 letters, whose inverse certification takes seconds
        past = johnson.GENUS_BUDGET + 1
        classes = {g: annulus_twist(g) for g in (johnson.GENUS_BUDGET, past, 32)}
        powers = [classes[past]]  # the 2^i-th powers; 301 = 1 + 4 + 8 + 32 + 256
        for _ in range(8):
            powers.append(mcr_compose(powers[-1], powers[-1]))
        power = powers[0]
        for i in (2, 3, 5, 8):
            power = mcr_compose(power, powers[i])
        assert max_image_length(power) == 3011
        paths = {}
        for key, m in [*classes.items(), ("long", power)]:
            paths[key] = tmp_path / f"genus{key}.txt"
            paths[key].write_text(serialize_mapping_class(m))
        assert main(["det", "--file", str(paths[johnson.GENUS_BUDGET])]) == 0
        start = time.perf_counter()
        for key, g in ((past, past), (32, 32), ("long", past)):
            assert main(["det", "--file", str(paths[key])]) == 13
            err = capsys.readouterr().err
            assert err == f"error: genus {g} is past the genus budget ({johnson.GENUS_BUDGET})\n"
        assert time.perf_counter() - start < 1.0
        for key in (past, 32, "long"):
            proc = run_child("det", "--file", str(paths[key]), cap=True, timeout=10)
            assert proc.returncode == 13, proc.stderr
            assert "genus budget" in proc.stderr

    def test_file_image_past_budget_is_13_while_read(self, capsys, monkeypatch, tmp_path):
        # b1 -> b1 a1^n has n + 1 letters; the class reads at the limit, and
        # one letter more is refused as its line is read, before any class
        # is made: the composition that certifies it costs the square
        limit = johnson.WORD_BUDGET
        at, past, past_inverse = (tmp_path / f"{name}.txt" for name in ("at", "past", "inv"))
        text = serialize_mapping_class(meridian_twist(2, 1, limit - 1))
        at.write_text(text)
        past.write_text(serialize_mapping_class(meridian_twist(2, 1, limit)))
        lines = text.splitlines()
        lines[8] += " a1^-1"  # b1's inverse image, one letter past
        past_inverse.write_text("\n".join(lines) + "\n")
        code, out = run(capsys, "degree", "--file", str(at))
        assert (code, out) == (0, "degree = 0\n")

        def no_class(*args):
            raise AssertionError("a class was made from an image past the budget")

        monkeypatch.setattr(johnson, "MappingClassRep", no_class)
        assert main(["degree", "--file", str(past)]) == 13
        assert capsys.readouterr().err == (
            f"error: image of b1 (line 4) has {limit + 1:,} letters,"
            f" past the file image budget ({limit:,})\n"
        )
        assert main(["degree", "--file", str(past_inverse)]) == 13
        assert "image of b1 (line 9)" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv,option",
        [
            (["det", "--builtin", "phi", "--genus", "0"], "--genus"),
            (["det", "--builtin", "phi", "--genus", "1"], "--genus"),
            (["tau", "--builtin", "phi", "--genus", "-2", "--k", "1"], "--genus"),
            (["basis", "--space", "G", "--genus", "0", "--k", "1"], "--genus"),
            (["degree", "--builtin", "phi", "--max", "9"], "--max"),
            (["degree", "--builtin", "phi", "--max", "0"], "--max"),
            (["basis", "--space", "G", "--genus", "2", "--k", "-1"], "--k"),
            (["verify", "thm-a", "--count", "0"], "--count"),
        ],
        ids=["genus-0", "genus-1", "genus-negative", "basis-genus-0", "max-9", "max-0",
             "k-negative", "count-0"],
    )
    def test_out_of_range_is_a_usage_error(self, capsys, monkeypatch, argv, option):
        # the parser refuses these before any work; should it not, building
        # bracket columns fails the test instead of running on a genus without
        # letters, whose Lyndon words never end
        def no_columns(*args):
            raise AssertionError("bracket columns built for an out-of-range input")

        monkeypatch.setattr(derivations, "_kernel_columns", no_columns)
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert f"error: argument {option}: " in capsys.readouterr().err

    @pytest.mark.parametrize("text", ["²", "٢", "1_0"], ids=["superscript", "arabic-indic", "grouped"])
    @pytest.mark.parametrize(
        "argv,option",
        [
            (["det", "--builtin", "phi", "--genus"], "--genus"),
            (["tau", "--builtin", "phi", "--k"], "--k"),
            (["degree", "--builtin", "phi", "--max"], "--max"),
            (["verify", "thm-a", "--count"], "--count"),
            (["verify", "thm-a", "--seed"], "--seed"),
        ],
        ids=["genus", "k", "max", "count", "seed"],
    )
    def test_integers_are_ascii_digits(self, capsys, argv, option, text):
        # int alone reads "٢" as 2 and "1_0" as 10; the options read numbers
        # as the file grammar does
        with pytest.raises(SystemExit) as exc:
            main(argv + [text])
        assert exc.value.code == 2
        assert f"error: argument {option}: invalid int value: {text!r}" in capsys.readouterr().err

    def test_seed_takes_a_sign(self):
        assert build_parser().parse_args(["verify", "thm-a", "--seed", "-3"]).seed == -3

    def test_usage_error_is_2(self):
        proc = run_child("tau", "--builtin", "phi")
        assert proc.returncode == 2

    def test_unknown_suite_is_2(self):
        proc = run_child("verify", "nope")
        assert proc.returncode == 2


def test_renderers_agree_with_payloads(capsys):
    # text and JSON views of one object describe the same value
    code, payload = run_json(capsys, "tau", "--builtin", "phi", "--k", "1")
    assert code == 0
    d = tau(annulus_twist(2), 1)
    assert payload["values"]["a1"] == render_lie(d.values[0])
    s = lagrangian_trace(d)
    assert render_sym(s) == "-x2"
