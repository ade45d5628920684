"""Command line interface: determinism, exit codes, error mapping."""

from __future__ import annotations

import json

import numpy as np
import pytest

from holoinv.cli import main
from holoinv.params import root_params
from holoinv.quandle import z_candidates

from conftest import write_link_file


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


def test_dim_dual_check(capsys):
    code, out = _run(capsys, ["dim", "--ell", "3", "--omega", "0.3+0.4j",
                              "--dual-check"])
    assert code == 0
    doc = json.loads(out)
    assert doc["dual_deviation"] < 1e-7


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
    code, _ = _run(capsys, ["dim", "--ell", "2", "--omega", "0"])
    assert code == 1


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


def test_axioms_pass_and_fail(tmp_path, capsys):
    code, out = _run(capsys, ["axioms", "--ell", "4", "--samples", "50",
                              "--triples", "2", "--seed", "1"])
    assert code == 0, out
    doc = json.loads(out)
    assert all(s["pass"] for s in doc["suites"].values())
    # absurd tolerance forces a reported failure and exit code 3
    code, _ = _run(capsys, ["axioms", "--ell", "4", "--samples", "20",
                            "--triples", "1", "--tol", "1e-300"])
    assert code == 3


def test_color_gauge_orbit_roundtrip(tmp_path, capsys):
    f = tmp_path / "link.json"
    write_link_file(f, 3, [1, 1], seed=8)
    code, out = _run(capsys, ["color", str(f), "--ell", "3"])
    assert code == 0
    assert "edges" in json.loads(out) or "colors" in json.loads(out)
    code, out = _run(capsys, ["gauge-orbit", str(f), "--ell", "3",
                              "--generators", "3"])
    assert code == 0
    doc = json.loads(out)
    assert doc["pass"] and doc["max_deviation"] < 1e-6
