"""Command-line front end.

Subcommands:

    invariant   compute the renormalized invariant of a colored link file
    axioms      run the sampled axiom suites and print a pass/fail table
    dim         evaluate the modified dimension at a Casimir value
    color       lift a holonomy coloring to factorization colors
    gauge-orbit recompute the invariant along a sampled gauge orbit

Link files are JSON.  Either a braid presentation,

    {"ell": 4,
     "braid": {"strands": 2, "word": [1, 1]},
     "colors": [{"g": [[..],[..]], "z": ..}, ..]}

whose bottom strands are colored left to right and then trace-closed, or an
explicit closed slice diagram,

    {"ell": 4, "bottom_signs": "", "slices": [[0, "coevL"], [0, "evR"]],
     "edge_colors": {"1:0": {"g": [[..],[..]], "z": ..}}}

Complex numbers are written as [re, im] (a bare number means a real value);
the holonomy "g" is a 2x2 matrix of such entries with determinant 1.

Exit codes: 0 success; 1 parse or validation failure; 2 a computation was
undefined (gauge search exhausted, modified-dimension pole, non-generic
input); 3 an axiom suite failed.  Output is deterministic JSON with
full-precision floats: fixed (input, seed, flags) give byte-identical runs.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass
from typing import Any, Optional

import numpy as np

from .biquandle import SemiCyclicBiquandle, SemiCyclicColor, check_biquandle_axioms
from .braiding import (
    BraidingProvider,
    resolve_scalars_yb,
    steinberg_encirclement,
    twist,
)
from .diagram import Diagram, braid_diagram, closure
from .errors import HoloinvError, ParseError, Singular
from .invariant import gauge_fix, gauge_orbit_compare, tilde_Fprime
from .modtrace import (
    alpha_from_omega,
    check_dim_gauge_invariance,
    dual_casimir_scalar,
    modified_dim,
    modified_dim_product,
)
from .params import RootParams, root_params
from .quandle import QColor, check_quandle_axioms, propagate_qcolors, random_qcolor
from .sl2factor import FactorizationOracle, random_gstar, random_ycolor
from .uqsl2 import (
    ZChar,
    build_cyclic_module,
    char_from_ycolor,
    duality_tensors,
    is_admissible,
    steinberg_char,
)

@dataclass(frozen=True)
class RunConfig:
    """Validated run-wide options."""

    ell: int
    tol: float = 1e-9
    seed: int = 0
    max_gauge_attempts: int = 100

    def __post_init__(self):
        if self.ell < 3:
            raise ParseError("ell must be >= 3")
        if self.tol <= 0:
            raise ParseError("tol must be positive")


# --- JSON (de)serialization ---------------------------------------------------

def _cplx(v: Any) -> complex:
    if isinstance(v, (int, float)):
        return complex(v)
    if isinstance(v, list) and len(v) == 2:
        return complex(float(v[0]), float(v[1]))
    raise ParseError(f"expected a number or [re, im] pair, got {v!r}")


def _int(v: Any, what: str) -> int:
    """An integer field of a link file (JSON true and false are not)."""
    msg = f"{what} must be an integer, got {v!r}"
    if isinstance(v, bool) or (isinstance(v, float) and not v.is_integer()):
        raise ParseError(msg)
    try:
        return int(v)
    except (TypeError, ValueError) as e:
        raise ParseError(msg) from e


def _cpair(z: complex) -> list:
    z = complex(z)
    return [z.real, z.imag]


def _matrix(v: Any) -> np.ndarray:
    m = np.array([[_cplx(e) for e in row] for row in v], dtype=complex)
    if m.shape != (2, 2):
        raise ParseError("holonomy matrices must be 2x2")
    if abs(np.linalg.det(m) - 1.0) > 1e-6:
        raise ParseError("holonomy matrix is not in SL2")
    return m


def _qcolor(v: Any) -> QColor:
    if not isinstance(v, dict) or "g" not in v or "z" not in v:
        raise ParseError("a color needs fields 'g' and 'z'")
    return QColor(_matrix(v["g"]), _cplx(v["z"]))


def load_link(path: str, tol: float = 1e-9) -> tuple[int, Diagram]:
    """Parse a link file into (ell, closed Q-colored diagram)."""
    try:
        with open(path) as f:
            data = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        raise ParseError(f"cannot read link file: {e}") from e
    if not isinstance(data, dict) or "ell" not in data:
        raise ParseError("link file needs an integer field 'ell'")
    ell = _int(data["ell"], "'ell'")
    if "braid" in data:
        b = data["braid"]
        if not isinstance(b, dict) or "strands" not in b or "word" not in b:
            raise ParseError("'braid' needs fields 'strands' and 'word'")
        colors = data.get("colors", [])
        if not isinstance(b["word"], list) or not isinstance(colors, list):
            raise ParseError("braid 'word' and 'colors' must be lists")
        strands = _int(b["strands"], "braid 'strands'")
        if strands < 1:
            raise ParseError("a braid needs at least one strand")
        if len(colors) != strands:
            raise ParseError(f"{len(colors)} colors for {strands} strands")
        d = braid_diagram(strands, [_int(w, "a braid letter")
                                    for w in b["word"]])
        colored = propagate_qcolors(d, [_qcolor(c) for c in colors], tol)
        return ell, closure(colored, tol)
    if "slices" in data:
        d = Diagram(data.get("bottom_signs", ""), data["slices"])
        colors = data.get("edge_colors", {})
        if unknown := sorted(set(colors) - set(d.edges())):
            raise ParseError(f"'edge_colors' names no edge of the diagram: {unknown}")
        d = d.with_colors({e: _qcolor(c) for e, c in colors.items()})
        if not d.is_closed():
            raise ParseError("slice diagrams must be closed")
        if not d.fully_colored():
            raise ParseError("every edge needs a color")
        return ell, d
    raise ParseError("link file needs either 'braid' or 'slices'")


def _emit(obj: dict) -> None:
    print(json.dumps(obj, sort_keys=True))


def _provider(cfg: RunConfig) -> BraidingProvider:
    return BraidingProvider(root_params(cfg.ell, cfg.tol), cfg.tol)


# --- subcommands ----------------------------------------------------------------

def cmd_invariant(args: argparse.Namespace) -> int:
    ell, d = load_link(args.link, args.tol)
    cfg = _config(args, ell)
    provider = _provider(cfg)
    res = tilde_Fprime(d, provider, seed=cfg.seed,
                       max_gauge=cfg.max_gauge_attempts)
    _emit(res.as_json_dict())
    return 0


def cmd_dim(args: argparse.Namespace) -> int:
    cfg = _config(args, args.ell)
    p = root_params(cfg.ell, cfg.tol)
    omega = complex(args.omega)
    # a character with this Casimir value and no nilpotent part
    if abs(omega - steinberg_char(p).omega) <= cfg.tol:
        chi_full = steinberg_char(p)
    else:
        kappa_roots = np.roots([1.0, p.sign_ell * p.cheb(omega), 1.0])
        chi_full = ZChar(kappa=complex(kappa_roots[0]), e_r=0.0, f_r=0.0,
                         omega=omega)
    if not is_admissible(chi_full, p, cfg.tol):
        raise Singular(f"omega {omega} has parabolic non-Steinberg holonomy")
    value = modified_dim(chi_full, p, cfg.tol)
    out = {"ell": cfg.ell, "omega": _cpair(omega), "dim": _cpair(value),
           "alpha": _cpair(alpha_from_omega(omega, p))}
    if args.dual_check:
        # recompute through the Casimir scalar of the dual module
        V = build_cyclic_module(chi_full, p, cfg.tol)
        dual_value = modified_dim(
            ZChar(kappa=0.0, e_r=0.0, f_r=0.0,
                  omega=dual_casimir_scalar(V, p, cfg.tol)), p, cfg.tol)
        out["dim_via_dual"] = _cpair(dual_value)
        out["dual_deviation"] = abs(dual_value - value)
    _emit(out)
    return 0


def cmd_color(args: argparse.Namespace) -> int:
    ell, d = load_link(args.link, args.tol)
    cfg = _config(args, ell)
    gauge, lifted, attempts = gauge_fix(d, cfg.seed, cfg.max_gauge_attempts,
                                        cfg.tol)
    out = {
        "ell": cfg.ell,
        "attempts": attempts,
        "gauge": {"kappa": _cpair(gauge.kappa), "eps": _cpair(gauge.eps),
                  "phi": _cpair(gauge.phi)},
        "colors": {
            e: {"kappa": _cpair(y.g.kappa), "eps": _cpair(y.g.eps),
                "phi": _cpair(y.g.phi), "z": _cpair(y.z)}
            for e, y in sorted(lifted.edge_colors.items())
        },
    }
    _emit(out)
    return 0


def cmd_gauge_orbit(args: argparse.Namespace) -> int:
    ell, d = load_link(args.link, args.tol)
    cfg = _config(args, ell)
    provider = _provider(cfg)
    rng = np.random.default_rng(cfg.seed + 1)
    p = provider.p
    gens: list = []
    for _ in range(args.generators):
        gens.append(random_gstar(rng))
        gens.append(random_qcolor(rng, p))
    rep = gauge_orbit_compare(d, gens, provider, seed=cfg.seed,
                              max_gauge=cfg.max_gauge_attempts)
    _emit({"ell": cfg.ell, "base": _cpair(rep["base"]),
           "generators": rep["generators"],
           "max_deviation": rep["max_deviation"], "pass": bool(rep["pass"])})
    return 0


# --- axiom suites -----------------------------------------------------------------

def _suite_quandle(p: RootParams, n: int, seed: int) -> dict:
    rep = check_quandle_axioms(samples=n, seed=seed, p=p)
    return {"max_residual": rep["max_violation"],
            "pass": rep["max_violation"] <= 1e-8}


def _suite_biquandle_sl2(p: RootParams, n: int, seed: int, tol: float) -> dict:
    rng = np.random.default_rng(seed)
    rep = check_biquandle_axioms(FactorizationOracle(tol),
                                 lambda: random_ycolor(rng, p),
                                 samples=n, tol=1e-8)
    return {"max_residual": rep["max_violation"], "skipped": rep["skipped"],
            "pass": rep["max_violation"] == 0.0}


def _suite_biquandle_semicyclic(n: int, seed: int) -> dict:
    rng = np.random.default_rng(seed)

    def sample():
        k = 0.0
        while abs(k) < 0.2:
            k = complex(rng.normal(), rng.normal())
        return SemiCyclicColor(k, complex(rng.normal(), rng.normal()))

    rep = check_biquandle_axioms(SemiCyclicBiquandle(), sample,
                                 samples=n, tol=1e-8)
    return {"max_residual": rep["max_violation"], "skipped": rep["skipped"],
            "pass": rep["max_violation"] == 0.0}


def _suite_modules(p: RootParams, n: int, seed: int, tol: float) -> dict:
    rng = np.random.default_rng(seed)
    worst = 0.0
    used = 0
    xi = p.xi
    for _ in range(n):
        y = random_ycolor(rng, p)
        try:
            chi = char_from_ycolor(y, p, tol)
            V = build_cyclic_module(chi, p, tol)
        except HoloinvError:
            continue
        used += 1
        E, F, K, Ki = V.E, V.F, V.K, V.K_inv()
        rel1 = np.abs(K @ E @ Ki - xi ** 2 * E).max()
        rel2 = np.abs(K @ F @ Ki - xi ** -2 * F).max()
        rel3 = np.abs(E @ F - F @ E - (K - Ki) / p.qbracket(1)).max()
        r = p.r
        cen = max(
            np.abs(np.linalg.matrix_power(E, r) - chi.e_r * np.eye(r)).max(),
            np.abs(np.linalg.matrix_power(F, r) - chi.f_r * np.eye(r)).max(),
            np.abs(np.linalg.matrix_power(K, r) - chi.kappa * np.eye(r)).max(),
        )
        cas = np.abs(V.omega_matrix() - chi.omega * np.eye(r)).max()
        dd = duality_tensors(V)
        qdim = abs((dd.ev_R @ dd.coev_L)[0, 0])
        worst = max(worst, rel1, rel2, rel3, cen, cas, qdim)
    return {"samples": used, "max_residual": worst, "pass": worst <= 1e-7}


def _suite_braiding(p: RootParams, n: int, seed: int, tol: float) -> dict:
    provider = BraidingProvider(p, tol)
    rng = np.random.default_rng(seed)
    worst = 0.0
    used = 0
    tries = 0
    while used < n and tries < 10 * n:
        tries += 1
        y1, y2, y3 = (random_ycolor(rng, p) for _ in range(3))
        try:
            rep = resolve_scalars_yb(y1, y2, y3, provider, tol)
            worst = max(worst, rep["residual"])
            t = twist(y1, provider, tol)
            enc = steinberg_encirclement(y1, provider, tol)
        except HoloinvError:
            continue
        used += 1
        worst = max(worst, abs(abs(t.value) - 1.0))
        worst = max(worst, abs(enc.canonical / complex(p.r) ** (p.r ** 2) - 1.0))
    return {"samples": used, "max_residual": worst,
            "pass": used > 0 and worst <= 1e-6}


def _suite_modified_dim(p: RootParams, n: int, seed: int, tol: float) -> dict:
    rng = np.random.default_rng(seed)
    worst = 0.0
    used = 0
    for _ in range(n):
        y = random_ycolor(rng, p)
        try:
            chi = char_from_ycolor(y, p, tol)
            d0 = modified_dim(chi, p, tol)
            a = alpha_from_omega(chi.omega, p)
            d1 = modified_dim_product(a, p, tol)
        except HoloinvError:
            continue
        used += 1
        worst = max(worst, abs(d1 - d0))
    gauge = check_dim_gauge_invariance(p, samples=min(n, 200), seed=seed,
                                       tol=1e-9)
    worst = max(worst, gauge["max_deviation"])
    return {"samples": used, "max_residual": worst, "pass": worst <= 1e-8}


def cmd_axioms(args: argparse.Namespace) -> int:
    cfg = _config(args, args.ell)
    p = root_params(cfg.ell, cfg.tol)
    n = args.samples
    suites = {
        "quandle": _suite_quandle(p, n, cfg.seed),
        "biquandle_sl2": _suite_biquandle_sl2(p, n, cfg.seed, cfg.tol),
        "biquandle_semicyclic": _suite_biquandle_semicyclic(n, cfg.seed),
        "modules": _suite_modules(p, max(n // 5, 20), cfg.seed, cfg.tol),
        "braiding": _suite_braiding(p, args.triples, cfg.seed, cfg.tol),
        "modified_dim": _suite_modified_dim(p, n, cfg.seed, cfg.tol),
    }
    ok = all(s["pass"] for s in suites.values())
    _emit({"ell": cfg.ell, "pass": bool(ok),
           "suites": {k: {kk: (bool(vv) if kk == "pass" else vv)
                          for kk, vv in v.items()}
                      for k, v in suites.items()}})
    return 0 if ok else 3


# --- argument plumbing --------------------------------------------------------------

def _add_common(sp: argparse.ArgumentParser, need_ell: bool) -> None:
    if need_ell:
        sp.add_argument("--ell", type=int, required=True)
    else:
        sp.add_argument("--ell", type=int, default=None,
                        help="override the link file's ell")
    sp.add_argument("--tol", type=float, default=1e-9)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--max-gauge", type=int, default=100)


def _config(args: argparse.Namespace, ell: int) -> RunConfig:
    return RunConfig(
        ell=args.ell if getattr(args, "ell", None) else ell,
        tol=args.tol,
        seed=args.seed,
        max_gauge_attempts=args.max_gauge,
    )


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="holoinv",
        description="quantum invariants of links with SL2(C) holonomy",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("invariant", help="renormalized invariant of a link file")
    sp.add_argument("link", help="JSON link file")
    _add_common(sp, need_ell=False)
    sp.set_defaults(func=cmd_invariant)

    sp = sub.add_parser("axioms", help="run the sampled axiom suites")
    _add_common(sp, need_ell=True)
    sp.add_argument("--samples", type=int, default=500)
    sp.add_argument("--triples", type=int, default=2,
                    help="braid-relation triples in the braiding suite")
    sp.set_defaults(func=cmd_axioms)

    sp = sub.add_parser("dim", help="modified dimension at a Casimir value")
    _add_common(sp, need_ell=True)
    sp.add_argument("--omega", required=True,
                    help="Casimir value as a Python complex literal")
    sp.add_argument("--dual-check", action="store_true")
    sp.set_defaults(func=cmd_dim)

    sp = sub.add_parser("color", help="lift a holonomy coloring")
    sp.add_argument("link")
    _add_common(sp, need_ell=False)
    sp.set_defaults(func=cmd_color)

    sp = sub.add_parser("gauge-orbit", help="invariant along a sampled gauge orbit")
    sp.add_argument("link")
    _add_common(sp, need_ell=False)
    sp.add_argument("--generators", type=int, default=3)
    sp.set_defaults(func=cmd_gauge_orbit)
    return ap


def main(argv: Optional[list[str]] = None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as e:
        return 1 if e.code not in (0, None) else 0
    try:
        return args.func(args)
    except (ParseError, ValueError) as e:
        _emit({"error": {"kind": type(e).__name__, "message": str(e)}})
        return 1
    except HoloinvError as e:  # the computation is undefined on this input
        _emit({"error": {"kind": type(e).__name__, "message": str(e)}})
        return 2


if __name__ == "__main__":
    sys.exit(main())
