"""Command line interface: determinism, exit codes, error mapping."""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import holoinv.cli as cli
from holoinv.braiding import BraidingProvider
from holoinv.cli import main
from holoinv.params import root_params
from holoinv.quandle import z_candidates
from holoinv.sl2factor import random_gstar

from conftest import commuting_link, write_link_file
from samplers import gauge_orbit_compare, random_qcolor

CORPUS = Path(__file__).resolve().parents[1] / "perfbench" / "corpus.py"


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
], ids=["no-strands", "no-word", "braid-not-object", "word-not-list",
        "colors-not-list", "strands-null", "strands-text", "strands-bool",
        "strands-zero", "strands-fraction", "letter-null", "letter-text",
        "ell-list", "ell-null", "ell-infinite", "ell-fraction"])
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
], ids=["slices-number", "slice-short", "slice-number", "signs-number",
        "sign-number", "colors-list", "g-number", "g-row"])
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
        g = h @ c.g @ np.linalg.inv(h) if e == "3:0" else c.g
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
