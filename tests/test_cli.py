"""Command line interface: determinism, exit codes, error mapping."""

from __future__ import annotations

import argparse
import contextlib
import importlib.util
import io
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import holoinv.cli as cli
from holoinv.braiding import BraidingProvider
from holoinv.cli import main
from holoinv.params import root_params
from holoinv.quandle import z_candidates
from holoinv.sl2factor import random_gstar

from conftest import commuting_link, ill_conditioned_riley_colors, write_link_file
from references import arr
from samplers import gauge_orbit_compare, random_qcolor

CORPUS = Path(__file__).resolve().parents[1] / "perfbench" / "corpus.py"


def _cp(v) -> list:
    v = complex(v)
    return [v.real, v.imag]


def _run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


def test_invariant_byte_identical_reruns(tmp_path, capsys):
    f = tmp_path / "link.json"
    write_link_file(f, 3, [1, 1], seed=5)
    argv = ["invariant", str(f), "--ell", "3", "--seed", "7"]
    code1, out1 = _run(capsys, argv)
    code2, out2 = _run(capsys, argv)
    assert code1 == code2 == 0
    assert out1 == out2
    doc = json.loads(out1)
    assert set(doc) >= {"canonical", "representative", "gauge",
                        "attempts", "cut_edge"}


def test_invariant_canonical_stable_across_seeds(tmp_path, capsys):
    f = tmp_path / "link.json"
    write_link_file(f, 4, [1, 1], seed=6)
    vals = []
    for seed in (0, 1, 2):
        code, out = _run(capsys, ["invariant", str(f), "--ell", "4",
                                  "--seed", str(seed)])
        assert code == 0
        c = json.loads(out)["canonical"]
        vals.append(complex(c[0], c[1]))
    ref = vals[0]
    assert all(abs(v - ref) <= 1e-6 * max(1.0, abs(ref)) for v in vals)


def test_dim_forced_value(capsys):
    # omega for alpha = 1/2 at ell = 4; the modified dimension is -sqrt(2)
    omega = float(2.0 * np.cos(np.pi / 4))
    code, out = _run(capsys, ["dim", "--ell", "4",
                              "--omega", repr(omega)])
    assert code == 0
    d = json.loads(out)["dim"]
    assert abs(complex(d[0], d[1]) - (-np.sqrt(2))) < 1e-9


def test_dim_steinberg_is_one(capsys):
    code, out = _run(capsys, ["dim", "--ell", "4", "--omega", "-2"])
    assert code == 0
    d = json.loads(out)["dim"]
    assert abs(complex(d[0], d[1]) - 1.0) < 1e-9


def test_dim_parabolic_non_steinberg_exits_undefined(capsys):
    code, _ = _run(capsys, ["dim", "--ell", "4", "--omega", "2"])
    assert code == 2


def test_malformed_json_exits_parse_error(tmp_path, capsys):
    f = tmp_path / "bad.json"
    f.write_text("{not json")
    code, _ = _run(capsys, ["invariant", str(f), "--ell", "3"])
    assert code == 1


def test_missing_field_exits_parse_error(tmp_path, capsys):
    f = tmp_path / "bad.json"
    f.write_text(json.dumps({"ell": 3}))
    code, _ = _run(capsys, ["invariant", str(f), "--ell", "3"])
    assert code == 1


_Z3 = [complex(z_candidates(3.0, root_params(3))[0]).real,
       complex(z_candidates(3.0, root_params(3))[0]).imag]


@pytest.mark.parametrize("braid, colors, ell", [
    ({"word": [1, 1]}, [], 3),
    ({"strands": 2}, [], 3),
    ([2, [1, 1]], [], 3),
    ({"strands": 2, "word": 1}, [], 3),
    ({"strands": 2, "word": [1, 1]}, 1, 3),
    ({"strands": None, "word": [1, 1]}, [], 3),
    ({"strands": "two", "word": [1, 1]}, [], 3),
    ({"strands": True, "word": []}, [], 3),
    ({"strands": 0, "word": []}, [], 3),
    ({"strands": 2.5, "word": [1, 1]}, [], 3),
    ({"strands": 2, "word": [None]}, [], 3),
    ({"strands": 2, "word": ["a"]}, [], 3),
    ({"strands": 2, "word": [1, 1]}, [], [3]),
    ({"strands": 2, "word": [1, 1]}, [], None),
    ({"strands": 2, "word": [1, 1]}, [], float("inf")),
    ({"strands": 2, "word": [1, 1]}, [], 3.5),
    # det [[2, 1], [1, 1]] = 1, and z fits its trace 3 at ell 3
    ({"strands": 2, "word": [1, 1]},
     [{"g": [[2, True], [True, 1]], "z": _Z3}] * 2, 3),
    ({"strands": 2, "word": [1, 1]},
     [{"g": [[2, [True, 0]], [[1, False], 1]], "z": _Z3}] * 2, 3),
    ({"strands": 2, "word": [1, 1]}, [{"g": [[2, 1], [1, 1]], "z": True}] * 2, 3),
], ids=["no-strands", "no-word", "braid-not-object", "word-not-list",
        "colors-not-list", "strands-null", "strands-text", "strands-bool",
        "strands-zero", "strands-fraction", "letter-null", "letter-text",
        "ell-list", "ell-null", "ell-infinite", "ell-fraction", "g-bool",
        "g-bool-pair", "z-bool"])
def test_malformed_braid_exits_parse_error(tmp_path, capsys, braid, colors,
                                           ell):
    f = tmp_path / "bad.json"
    f.write_text(json.dumps({"ell": ell, "braid": braid, "colors": colors}))
    code, out = _run(capsys, ["invariant", str(f)])
    assert code == 1
    assert json.loads(out)["error"]["kind"] == "ParseError"


@pytest.mark.parametrize("n_colors", [1, 3])
def test_braid_color_count_must_match_strands(tmp_path, capsys, n_colors):
    f = tmp_path / "hopf.json"
    write_link_file(f, 3, [1, 1])
    doc = json.loads(f.read_text())
    doc["colors"] = (doc["colors"] * 2)[:n_colors]
    f.write_text(json.dumps(doc))
    code, out = _run(capsys, ["invariant", str(f)])
    assert code == 1
    assert json.loads(out)["error"]["kind"] == "ParseError"


def test_unknown_edge_id_exits_parse_error(tmp_path, capsys):
    f = tmp_path / "unknot.json"
    _write_zero_corner_unknot(f)
    doc = json.loads(f.read_text())
    doc["edge_colors"]["7:0"] = doc["edge_colors"]["1:0"]
    f.write_text(json.dumps(doc))
    code, out = _run(capsys, ["invariant", str(f)])
    assert code == 1
    assert json.loads(out)["error"]["kind"] == "ParseError"


def _write_zero_corner_unknot(path) -> None:
    # slice-form unknot at ell 3 whose holonomy [[0, 1], [-1, t]] has a zero
    # upper-left entry, so the lift in the identity gauge fails
    t = 0.7 + 0.3j
    z = z_candidates(t, root_params(3))[0]

    def cp(v):
        return [complex(v).real, complex(v).imag]

    g = [[cp(0), cp(1)], [cp(-1), cp(t)]]
    path.write_text(json.dumps({
        "ell": 3, "bottom_signs": "", "slices": [[0, "coevL"], [0, "evR"]],
        "edge_colors": {"1:0": {"g": g, "z": cp(z)}}}))


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_color_and_invariant_retry_the_same_gauges(tmp_path, capsys, seed):
    f = tmp_path / "unknot.json"
    _write_zero_corner_unknot(f)
    docs = {}
    for cmd in ("color", "invariant"):
        code, out = _run(capsys, [cmd, str(f), "--seed", str(seed)])
        assert code == 0, out
        docs[cmd] = json.loads(out)
    assert docs["color"]["gauge"] == docs["invariant"]["gauge"]
    assert docs["color"]["attempts"] == docs["invariant"]["attempts"] > 1


def test_gauge_budget_exhausted_from_color_and_invariant(tmp_path, capsys):
    f = tmp_path / "unknot.json"
    _write_zero_corner_unknot(f)
    errors = []
    for cmd in ("color", "invariant"):
        code, out = _run(capsys, [cmd, str(f), "--max-gauge", "1"])
        assert code == 2
        lines = out.splitlines()
        assert len(lines) == 1
        errors.append(json.loads(lines[0])["error"])
    assert errors[0] == errors[1]
    assert errors[0]["kind"] == "GaugeExhausted"


def test_bad_ell_exits_parse_error(capsys):
    code, out = _run(capsys, ["dim", "--ell", "2", "--omega", "0"])
    assert code == 1
    assert json.loads(out)["error"] == {"kind": "ParseError",
                                        "message": "ell must be >= 3"}


def test_ell_zero_override_exits_parse_error(tmp_path, capsys):
    # --ell 0 overrides the file's ell like any other value, and is rejected
    f = tmp_path / "hopf.json"
    write_link_file(f, 3, [1, 1])
    code, out = _run(capsys, ["invariant", str(f), "--ell", "0"])
    assert code == 1
    assert json.loads(out)["error"]["kind"] == "ParseError"


@pytest.mark.parametrize("path, value", [
    (["slices"], 5),
    (["slices"], [[0]]),
    (["slices"], [5]),
    (["bottom_signs"], 5),
    (["bottom_signs"], [5]),
    (["edge_colors"], []),
    (["edge_colors", "1:0", "g"], 5),
    (["edge_colors", "1:0", "g"], [1, 2]),
    (["edge_colors", "1:0", "g", 0, 1], [True, 0.0]),
    (["edge_colors", "1:0", "g", 0, 1], [1.0, False]),
    (["edge_colors", "1:0", "g", 0, 1], ["1", 0.0]),
    (["slices", 0], [0, "coevX"]),
    (["slices", 0], [-1, "coevL"]),
], ids=["slices-number", "slice-short", "slice-number", "signs-number",
        "sign-number", "colors-list", "g-number", "g-row", "g-bool-re",
        "g-bool-im", "g-text-re", "piece-unknown", "offset-negative"])
def test_malformed_link_structure_exits_parse_error(tmp_path, capsys, path,
                                                    value):
    f = tmp_path / "unknot.json"
    _write_zero_corner_unknot(f)
    doc = json.loads(f.read_text())
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    f.write_text(json.dumps(doc))
    code, out = _run(capsys, ["invariant", str(f)])
    assert code == 1
    assert json.loads(out)["error"]["kind"] == "ParseError"


@pytest.mark.parametrize("command", ["invariant", "color"])
def test_a_diagram_with_no_edge_exits_parse_error(tmp_path, capsys, command):
    f = tmp_path / "empty.json"
    f.write_text(json.dumps({"ell": 3, "slices": []}))
    code, out = _run(capsys, [command, str(f)])
    assert code == 1
    lines = out.splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0])["error"]["kind"] == "ParseError"


def test_json_booleans_are_not_numbers(tmp_path, capsys):
    # a JSON true is no 1: with it the zero-corner unknot's holonomy would
    # keep det 1 and its z would fit; as z it is not the number 1 either
    for path in (["g", 0, 1], ["z"]):
        f = tmp_path / "unknot.json"
        _write_zero_corner_unknot(f)
        doc = json.loads(f.read_text())
        node = doc["edge_colors"]["1:0"]
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = True
        f.write_text(json.dumps(doc))
        code, out = _run(capsys, ["invariant", str(f)])
        assert code == 1
        assert _one_error(out)["message"].startswith("expected a finite number")


def test_chebyshev_check_rejects_an_overflowing_defect(tmp_path, capsys):
    # at --ell 2001 (r = 2001) Cb_r(2.5 + 0.1i) overflows to NaN, which no
    # bound admits; the color is refused before any module is built
    f = tmp_path / "hopf.json"
    f.write_text(json.dumps({"ell": 3, "braid": {"strands": 1, "word": []},
                             "colors": [{"g": [[2, 1], [1, 1]],
                                         "z": [2.5, 0.1]}]}))
    code, out = _run(capsys, ["color", str(f), "--ell", "2001"])
    assert code == 1
    assert "Chebyshev" in _one_error(out)["message"]


_Z3S = z_candidates(3.0, root_params(3))


@pytest.mark.parametrize("g, zs, message", [
    ([[2, 1], [1, 1 + 1e-7 / 2]], _Z3S, "not in SL2"),
    ([[2, 1], [1, 1 + 1e-8 / 2]], _Z3S, "not in SL2"),
    ([[2, 1], [1, 1]], [z + 5e-8 for z in _Z3S], "Chebyshev"),
    ([[1e200, 0], [0, 1e200]], [0, 0], "not in SL2"),
    ([[1, 1e6], [0, 2]], _Z3S, "not in SL2"),
], ids=["det-1e-7", "det-1e-8", "chebyshev-5e-7", "det-overflow",
        "det-2-large-entry"])
def test_a_color_off_the_lift_s_rules_exits_parse_error(tmp_path, capsys, g,
                                                        zs, message):
    # the CLI tests a color with the functions and bounds that the lift uses
    # (quandle.in_sl2, params.cheb_holds), so a color off either is
    # malformed input, not an exhausted gauge search or a ChebyshevMismatch
    # (exit 2), nor a value that only some gauges lift to (exit 0).  The
    # relation defect of z + 5e-8 passes an absolute 1e-6, but not
    # 1e-7 * |tr g|; det 2 passes a bound scaled by the largest entry 1e6.
    p = root_params(3)
    assert 3e-7 < abs(p.cheb(_Z3S[0] + 5e-8) - 3.0) < 1e-6
    f = tmp_path / "hopf.json"
    f.write_text(json.dumps({"ell": 3, "braid": {"strands": 2, "word": [1, 1]},
                             "colors": [{"g": g, "z": _cp(zs[0])},
                                        {"g": g, "z": _cp(zs[-1])}]}))
    for command in ("invariant", "color"):
        code, out = _run(capsys, [command, str(f)])
        assert code == 1
        err = _one_error(out)
        assert err["kind"] == "ParseError" and message in err["message"]


def test_ill_conditioned_riley_trefoil_from_a_link_file(tmp_path, capsys):
    # the cond-1,602 conjugate of Riley's trefoil coloring, as a braid file
    colors = [{"g": [[_cp(v) for v in c.g[:2]], [_cp(v) for v in c.g[2:]]],
               "z": _cp(c.z)} for c in ill_conditioned_riley_colors(4, 40)]
    f = tmp_path / "trefoil.json"
    f.write_text(json.dumps({"ell": 4, "braid": {"strands": 2, "word": [1, 1, 1]},
                             "colors": colors}))
    code, out = _run(capsys, ["invariant", str(f)])
    assert code == 0, out
    v = complex(*json.loads(out)["canonical"])
    assert abs(v - 64) <= 1e-5 * 64, v


def test_slices_may_be_objects(tmp_path, capsys):
    f = tmp_path / "unknot.json"
    _write_zero_corner_unknot(f)
    code, want = _run(capsys, ["invariant", str(f)])
    assert code == 0
    doc = json.loads(f.read_text())
    doc["slices"] = [{"offset": o, "piece": p} for o, p in doc["slices"]]
    f.write_text(json.dumps(doc))
    assert _run(capsys, ["invariant", str(f)]) == (0, want)


_BAD_ARGV = {
    # there is no --tol option: each of these is an unrecognized argument;
    # there is no gauge-orbit command either, nor --seed or --max-gauge on dim
    "invariant-tol-zero": ["invariant", "LINK", "--tol", "0"],
    "invariant-tol-negative": ["invariant", "LINK", "--tol", "-1"],
    "color-tol-zero": ["color", "LINK", "--tol", "0"],
    "color-tol-negative": ["color", "LINK", "--tol", "-1"],
    "orbit-tol-zero": ["gauge-orbit", "LINK", "--tol", "0"],
    "orbit-tol-negative": ["gauge-orbit", "LINK", "--tol", "-1"],
    "tol-text": ["invariant", "LINK", "--tol", "abc"],
    "max-gauge-zero": ["invariant", "LINK", "--max-gauge", "0"],
    "max-gauge-negative": ["color", "LINK", "--max-gauge", "-3"],
    "seed-negative": ["invariant", "LINK", "--seed", "-1"],
    "generators-zero": ["gauge-orbit", "LINK", "--generators", "0"],
    "generators-negative": ["gauge-orbit", "LINK", "--generators", "-2"],
    "dim-seed": ["dim", "--ell", "3", "--omega", "0.3", "--seed", "0"],
    "dim-max-gauge": ["dim", "--ell", "3", "--omega", "0.3", "--max-gauge", "5"],
    "z-text": ["invariant", "BAD_Z"],
    "omega-text": ["dim", "--ell", "4", "--omega", "abc"],
    "omega-nan": ["dim", "--ell", "3", "--omega", "nan"],
    "omega-infinite": ["dim", "--ell", "3", "--omega", "inf"],
    "omega-cheb-overflows": ["dim", "--ell", "5", "--omega", "1e200"],
    "omega-cheb-overflows-max": ["dim", "--ell", "5", "--omega", "1e308"],
    "omega-cheb-overflows-imag": ["dim", "--ell", "5", "--omega", "1e200j"],
    "g-nan": ["invariant", "NAN_G"],
    "z-infinite": ["color", "INF_Z"],
    "z-huge": ["invariant", "BIG_Z"],
    "unknown-command": ["knot", "LINK"],
    "axioms-command": ["axioms", "--ell", "4"],
    "dual-check": ["dim", "--ell", "3", "--omega", "0.3+0.4j", "--dual-check"],
    "ell-text": ["invariant", "LINK", "--ell", "x"],
    "no-link": ["invariant"],
}


@pytest.mark.parametrize("argv", _BAD_ARGV.values(), ids=_BAD_ARGV.keys())
def test_bad_flag_or_value_prints_one_parse_error(tmp_path, capsys, argv):
    link = tmp_path / "hopf.json"
    write_link_file(link, 3, [1, 1])
    files = {"LINK": str(link)}
    for name, path, value in [("BAD_Z", ["z"], ["a", 1]),
                              ("NAN_G", ["g", 0, 1], [float("nan"), 0.0]),
                              ("INF_Z", ["z"], float("inf")),
                              ("BIG_Z", ["z"], 10**400)]:
        doc = json.loads(link.read_text())
        node = doc["colors"][0]
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value
        files[name] = str(tmp_path / f"{name}.json")
        Path(files[name]).write_text(json.dumps(doc))
    code, out = _run(capsys, [files.get(a, a) for a in argv])
    assert code == 1
    lines = out.splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0])["error"]["kind"] == "ParseError"


@pytest.mark.parametrize("command", ["invariant", "color"])
def test_color_off_the_chebyshev_relation_exits_parse_error(tmp_path, capsys,
                                                           command):
    # tr diag(2, 1/2) = 5/2, but Cb_3(0.3) = 0.3^3 - 3 * 0.3 = -0.873
    f = tmp_path / "off.json"
    g = [[2, 0], [0, 0.5]]
    f.write_text(json.dumps({"ell": 3, "braid": {"strands": 2, "word": [1, 1]},
                             "colors": [{"g": g, "z": 0.3}] * 2}))
    code, out = _run(capsys, [command, str(f)])
    assert code == 1
    err = json.loads(out)["error"]
    assert err["kind"] == "ParseError" and "edge 1:0" in err["message"]


def test_ell_override_rechecks_the_chebyshev_relation(tmp_path, capsys):
    # z fits the file's ell 3 (r = 3), not ell 5 (r = 5)
    f = tmp_path / "hopf.json"
    write_link_file(f, 3, [1, 1])
    assert _run(capsys, ["color", str(f)])[0] == 0
    code, out = _run(capsys, ["color", str(f), "--ell", "5"])
    assert code == 1
    assert "Chebyshev" in json.loads(out)["error"]["message"]


def test_help_exits_zero(capsys):
    code, out = _run(capsys, ["--help"])
    assert code == 0 and "usage" in out


@pytest.mark.parametrize("command", ["invariant", "dim", "color"])
def test_no_subcommand_offers_a_tolerance(capsys, command):
    code, out = _run(capsys, [command, "--help"])
    assert code == 0 and "--ell" in out and "--tol" not in out


def test_dim_takes_only_ell_and_omega():
    sub = next(a for a in cli.build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    assert set(sub.choices) == {"invariant", "dim", "color"}
    flags = {o for a in sub.choices["dim"]._actions for o in a.option_strings}
    assert flags == {"-h", "--help", "--ell", "--omega"}


def test_child_process_prints_what_main_prints(tmp_path, capsys):
    # `python -m holoinv.cli` in a fresh interpreter, as a shell runs it
    f = tmp_path / "hopf.json"
    write_link_file(f, 3, [1, 1])
    code, want = _run(capsys, ["invariant", str(f)])
    src = Path(__file__).resolve().parents[1] / "src"
    child = subprocess.run(
        [sys.executable, "-m", "holoinv.cli", "invariant", str(f)],
        capture_output=True, text=True, timeout=300,
        env={**os.environ, "PYTHONPATH": str(src)})
    assert (code, child.returncode) == (0, 0), child.stderr
    assert child.stdout == want


def test_the_cli_imports_nothing_beyond_the_standard_library_and_numpy():
    # numpy is the one runtime dependency, and every module `holoinv.cli`
    # imports in a fresh interpreter is paid for by each CLI call
    src = Path(__file__).resolve().parents[1] / "src"
    code = ("import json, sys; before = set(sys.modules); import holoinv.cli; "
            "print(json.dumps(sorted(set(sys.modules) - before)))")
    child = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                           timeout=300, env={**os.environ, "PYTHONPATH": str(src)})
    assert child.returncode == 0, child.stderr
    new = {name.split(".")[0] for name in json.loads(child.stdout)}
    assert {"holoinv", "numpy"} <= new
    assert new - set(sys.stdlib_module_names) == {"holoinv", "numpy"}, new


def test_color_gauge_orbit_roundtrip(tmp_path, capsys):
    f = tmp_path / "link.json"
    write_link_file(f, 3, [1, 1], seed=8)
    code, out = _run(capsys, ["color", str(f), "--ell", "3"])
    assert code == 0
    assert "edges" in json.loads(out) or "colors" in json.loads(out)
    # the orbit that the former gauge-orbit command sampled at --seed 0:
    # three random gauges and three quandle colors, drawn from seed 1
    ell, d = cli.load_link(str(f))
    p = root_params(ell)
    rng = np.random.default_rng(1)
    gens = [g for _ in range(3) for g in (random_gstar(rng), random_qcolor(rng, p))]
    rep = gauge_orbit_compare(d, gens, BraidingProvider(p))
    assert rep["pass"] and rep["max_deviation"] < 1e-6


def _one_error(out: str) -> dict:
    lines = out.splitlines()
    assert len(lines) == 1
    return json.loads(lines[0])["error"]


def test_float_overflow_is_one_internal_error(tmp_path, capsys, monkeypatch):
    # the benchmark corpus's T(2,3) at ell 15 (seed 1) has r^2 log|v| = 914,
    # beyond the float range of the canonical value v^(r^2)
    spec = importlib.util.spec_from_file_location("perfbench_corpus", CORPUS)
    corpus = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, corpus)
    spec.loader.exec_module(corpus)
    case = corpus.cases(("t23",), 15, np.random.default_rng(1), 1)[0]
    f = tmp_path / "t23.json"
    f.write_text(json.dumps(case.doc))
    code, out = _run(capsys, ["invariant", str(f)])
    assert code == 3
    assert _one_error(out)["kind"] == "OverflowError"


def test_any_other_exception_is_one_internal_error(tmp_path, capsys,
                                                    monkeypatch):
    f = tmp_path / "hopf.json"
    write_link_file(f, 3, [1, 1])

    def broken(*args, **kwargs):
        raise KeyError("planted")

    monkeypatch.setattr(cli, "tilde_Fprime", broken)
    code, out = _run(capsys, ["invariant", str(f)])
    assert code == 3
    assert _one_error(out) == {"kind": "KeyError", "message": "'planted'"}


def test_lift_round_trip_rejects_a_broken_crossing(tmp_path, capsys):
    # the commuting Hopf link at ell 3 in slice form, with edge 3:0
    # conjugated by a 1e-3 upper-triangular matrix: its trace and z still
    # fit, but the two crossings it joins break the quandle relation, which
    # only the lift's round trip (q_functor after q_functor_inv) detects
    d = commuting_link(3, [1, 1])
    h = np.array([[1.0, 1e-3], [0.0, 1.0]])

    def cp(v):
        return [complex(v).real, complex(v).imag]

    colors = {}
    for e, c in d.edge_colors.items():
        g = arr(c.g)
        g = h @ g @ np.linalg.inv(h) if e == "3:0" else g
        colors[e] = {"g": [[cp(v) for v in row] for row in g], "z": cp(c.z)}
    f = tmp_path / "broken.json"
    f.write_text(json.dumps({
        "ell": 3, "bottom_signs": "",
        "slices": [[s.offset, s.piece] for s in d.slices],
        "edge_colors": colors}))
    for command in ("invariant", "color"):
        code, out = _run(capsys, [command, str(f)])
        assert code == 2
        assert _one_error(out)["kind"] == "InternalInconsistency"


def test_documented_commands_and_flags_are_the_parser_s():
    # the subcommands and flags that cli.__doc__ and README's "Command
    # line" section name are exactly the ones the parser accepts
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    usage = readme.split("## Command line", 1)[1].split("\n## ", 1)[0]
    listed = cli.__doc__.split("Subcommands:", 1)[1].split("\n\n")[1]
    sub = next(a for a in cli.build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    flags = {o for sp in sub.choices.values() for a in sp._actions
             for o in a.option_strings if o.startswith("--")}
    assert set(re.findall(r"^    (\S+)", listed, re.M)) == set(sub.choices)
    assert set(re.findall(r"^holoinv (\S+)", usage, re.M)) == set(sub.choices)
    named = re.findall(r"(?<![\w-])--[a-z][a-z-]*", cli.__doc__ + usage)
    assert set(named) == flags


# --- the input boundary, as a property --------------------------------------

# non-integer values for integer fields: a generated ell or strand count
# never asks for a large module
_NOT_INT = st.one_of(st.none(), st.booleans(), st.text(max_size=3),
                     st.sampled_from([3.5, -0.5, float("inf"), float("nan"),
                                      [3], {"ell": 3}]))
_NUMBER = st.one_of(st.integers(-3, 3), st.booleans(), st.floats(),
                    st.sampled_from([10**400, 1e308, -1e200, 1e-320]))
_JUNK = st.recursive(st.one_of(_NOT_INT, _NUMBER),
                     lambda ch: st.lists(ch, max_size=3)
                     | st.dictionaries(st.text(max_size=2), ch, max_size=2),
                     max_leaves=6)
_ENTRY = st.one_of(_NUMBER, st.lists(_NUMBER, max_size=3), _JUNK)


@st.composite
def _valid_braid(draw) -> dict:
    """A braid closure at ell 3 or 4 whose strands share one SL(2) matrix."""
    ell = draw(st.sampled_from([3, 4]))
    strands = draw(st.integers(1, 3))
    letters = [s * i for i in range(1, strands) for s in (1, -1)]
    word = draw(st.lists(st.sampled_from(letters), max_size=4)) if letters else []
    a = draw(st.floats(0.3, 3.0))
    b, c = draw(st.floats(-2.0, 2.0)), draw(st.floats(-2.0, 2.0))
    g = [[a, b], [c, (1.0 + b * c) / a]]
    zs = z_candidates(a + g[1][1], root_params(ell))
    colors = [{"g": g, "z": _cp(draw(st.sampled_from(zs)))}
              for _ in range(strands)]
    return {"ell": ell, "braid": {"strands": strands, "word": word},
            "colors": colors}


_PATHS = [("ell",), ("braid",), ("braid", "strands"), ("braid", "word"),
          ("braid", "word", 0), ("colors",), ("colors", 0),
          ("colors", 0, "g"), ("colors", 0, "g", 1), ("colors", 0, "g", 0, 1),
          ("colors", 0, "z")]


@st.composite
def _broken_braid(draw) -> dict:
    """A valid braid with one field replaced: ell by a non-integer or an
    ell below 3, anything else by arbitrary JSON."""
    doc = draw(_valid_braid())
    path = draw(st.sampled_from(_PATHS))
    node = doc
    try:
        for key in path[:-1]:
            node = node[key]
        node[path[-1]]
    except (IndexError, KeyError):
        return doc
    node[path[-1]] = draw(st.one_of(_NOT_INT, st.sampled_from([2, 0, -4]))
                          if path == ("ell",) else _ENTRY)
    return doc


_SLICE = st.one_of(
    st.tuples(st.integers(-1, 3) | _NOT_INT,
              st.sampled_from(["X+", "X-", "evL", "evR", "coevL", "coevR",
                               "cup"])).map(list),
    st.fixed_dictionaries({"offset": st.integers(0, 2),
                           "piece": st.sampled_from(["coevL", "evR"])}),
    _JUNK)
_SLICE_DOC = st.fixed_dictionaries({
    "ell": st.sampled_from([3, 4]),
    "bottom_signs": st.sampled_from(["", "+", "+-", "x"]) | _JUNK,
    "slices": st.sampled_from([[[0, "coevL"], [0, "evR"]]])
    | st.lists(_SLICE, max_size=4) | _JUNK,
    "edge_colors": st.dictionaries(
        st.sampled_from(["1:0", "1:1", "2:0", "7:0"]),
        st.fixed_dictionaries({"g": st.sampled_from([[[2, 1], [1, 1]]])
                               | st.lists(st.lists(_ENTRY, max_size=3),
                                          max_size=3) | _JUNK,
                               "z": _ENTRY}) | _JUNK,
        max_size=2) | _JUNK,
})
_DOCS = st.one_of(_valid_braid(), _broken_braid(), _SLICE_DOC, _JUNK)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(doc=_DOCS, command=st.sampled_from(["invariant", "color"]))
def test_any_link_document_gives_one_json_line(tmp_path_factory, doc,
                                               command):
    # whatever the link file holds, a run prints one JSON object on one
    # line, with exit code 0 and no error or 1-3 and an error, and writes
    # nothing to stderr
    f = tmp_path_factory.getbasetemp() / "generated.json"
    f.write_text(json.dumps(doc))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([command, str(f)])
    assert err.getvalue() == ""
    lines = out.getvalue().splitlines()
    assert len(lines) == 1
    res = json.loads(lines[0])
    assert isinstance(res, dict)
    assert (code == 0) == ("error" not in res) and code in (0, 1, 2, 3), res


# a flag with a valid, an invalid or no value; an unknown flag
_FLAG = st.one_of(
    st.tuples(st.just("--ell"), st.sampled_from(["3", "4", "2", "-1", "x", "1e3"])),
    st.tuples(st.just("--seed"), st.sampled_from(["0", "2", "-1", "a", "1.5"])),
    st.tuples(st.just("--max-gauge"), st.sampled_from(["1", "3", "0", "-2", "x"])),
    st.tuples(st.just("--omega"),
              st.sampled_from(["0.3", "0.3+0.4j", "-2", "nan", "inf", "abc", "1e200"])),
    st.sampled_from(["--ell", "--seed", "--max-gauge", "--omega", "--tol", "--verbose",
                     "--max", "-x", "extra"]).map(lambda f: (f,)))


@settings(max_examples=100, deadline=None, derandomize=True)
@given(command=st.sampled_from(["invariant", "color", "dim", "knot", "gauge-orbit"]),
       link=st.sampled_from(["LINK", "MISSING", None]),
       flags=st.lists(_FLAG, max_size=3))
def test_any_command_line_gives_one_json_line(tmp_path_factory, command, link,
                                              flags):
    # whatever the flags, a run prints one JSON object on one line, with an
    # exit code 0-3, and writes nothing to stderr: no usage text either
    base = tmp_path_factory.getbasetemp()
    hopf = base / "hopf.json"
    if not hopf.exists():
        write_link_file(hopf, 3, [1, 1])
    files = {"LINK": str(hopf), "MISSING": str(base / "missing.json")}
    argv = [command] + ([files[link]] if link else [])
    argv += [a for f in flags for a in f]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert err.getvalue() == ""
    lines = out.getvalue().splitlines()
    assert len(lines) == 1
    res = json.loads(lines[0])
    assert (code == 0) == ("error" not in res) and code in (0, 1, 2, 3), (argv, res)
