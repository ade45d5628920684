"""Command-line front end.

Subcommands:

    invariant   compute the renormalized invariant of a colored link file
    dim         evaluate the modified dimension at a Casimir value
    color       lift a holonomy coloring to factorization colors

Link files are JSON.  Either a braid presentation,

    {"ell": 4,
     "braid": {"strands": 2, "word": [1, 1]},
     "colors": [{"g": [[..],[..]], "z": ..}, ..]}

whose bottom strands are colored left to right and then trace-closed, or an
explicit closed slice diagram with at least one edge,

    {"ell": 4, "bottom_signs": "", "slices": [[0, "coevL"], [0, "evR"]],
     "edge_colors": {"1:0": {"g": [[..],[..]], "z": ..}}}

Complex numbers are written as [re, im] (a bare number means a real value)
and must be finite; the holonomy "g" is a 2x2 matrix of such entries with
determinant 1 (`quandle.in_sl2`), and "z" must satisfy Cb_r(z) = (-1)^(l+1)
tr g at the run's ell (`params.cheb_holds`): the functions and bounds that
the lift applies to the colors it computes.

`invariant` and `color` take a link file, an optional --ell that overrides
the file's, a non-negative --seed for the gauge retries and a positive
--max-gauge, the number of gauges tried.  `dim` takes only --ell and
--omega.  The numerical tolerance is fixed at `params.TOL`, and no option
sets it.

Exit codes: 0 success; 1 parse or validation failure, of the command line
included; 2 a computation was undefined (gauge search exhausted,
modified-dimension pole, non-generic input); 3 an internal error, any other
exception (for example a float overflow), reported by its type and message.
Every run but `--help` prints one JSON object, an error included, and
writes nothing to stderr.  Output is deterministic JSON with
full-precision floats: fixed (input, seed, flags) give byte-identical runs.

`closure`, `propagate_qcolors`, `load_link` and `main` are looked up in this
module's namespace by the benchmark's traced run (perfbench/spans.py).
"""

from __future__ import annotations

import argparse
import cmath
import json
import sys
from typing import Any, Optional

import numpy as np

from .braiding import BraidingProvider
from .diagram import Diagram, braid_diagram, closure
from .errors import HoloinvError, ParseError, Singular
from .invariant import gauge_fix, tilde_Fprime
from .modtrace import alpha_from_omega, modified_dim
from .params import TOL, cheb_holds, root_params
from .quandle import Mat2, QColor, in_sl2, propagate_qcolors
from .uqsl2 import ZChar, is_admissible, steinberg_char


# --- JSON (de)serialization ---------------------------------------------------

def _cplx(v: Any) -> complex:
    # JSON true and false are Python integers, but not numbers; text is not
    pair = [v, 0.0] if isinstance(v, (int, float)) else v
    if (isinstance(pair, list) and len(pair) == 2 and all(
            isinstance(x, (int, float)) and not isinstance(x, bool) for x in pair)):
        try:
            z = complex(float(pair[0]), float(pair[1]))
        except OverflowError:  # an integer beyond the float range
            pass
        else:
            if cmath.isfinite(z):
                return z
    raise ParseError(f"expected a finite number or [re, im] pair, got {v!r}")


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


def _matrix(v: Any) -> Mat2:
    if not (isinstance(v, list) and len(v) == 2
            and all(isinstance(row, list) and len(row) == 2 for row in v)):
        raise ParseError("holonomy matrices must be 2x2")
    g = tuple(_cplx(e) for row in v for e in row)
    if not in_sl2(g):
        raise ParseError("holonomy matrix is not in SL2")
    return g


def _qcolor(v: Any) -> QColor:
    if not isinstance(v, dict) or "g" not in v or "z" not in v:
        raise ParseError("a color needs fields 'g' and 'z'")
    return QColor(_matrix(v["g"]), _cplx(v["z"]))


def _slice(s: Any) -> tuple[int, str]:
    """A slice of a link file: [offset, piece] or {"offset": .., "piece": ..}."""
    if isinstance(s, dict) and "offset" in s and "piece" in s:
        s = [s["offset"], s["piece"]]
    if not (isinstance(s, list) and len(s) == 2 and isinstance(s[1], str)):
        raise ParseError(f"a slice is [offset, piece], got {s!r}")
    return _int(s[0], "a slice offset"), s[1]


def load_link(path: str) -> tuple[int, Diagram]:
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
        colored = propagate_qcolors(d, [_qcolor(c) for c in colors])
        return ell, closure(colored)
    if "slices" in data:
        signs, slices = data.get("bottom_signs", ""), data["slices"]
        colors = data.get("edge_colors", {})
        if not (isinstance(signs, (str, list)) and isinstance(slices, list)
                and isinstance(colors, dict)):
            raise ParseError("'bottom_signs', 'slices' and 'edge_colors' must be "
                             "a string or list, a list and an object")
        d = Diagram(signs, [_slice(s) for s in slices])
        if unknown := sorted(set(colors) - set(d.edges())):
            raise ParseError(f"'edge_colors' names no edge of the diagram: {unknown}")
        d = d.with_colors({e: _qcolor(c) for e, c in colors.items()})
        if not d.is_closed() or not d.edges():
            raise ParseError("slice diagrams must be closed and have an edge")
        if not d.fully_colored():
            raise ParseError("every edge needs a color")
        return ell, d
    raise ParseError("link file needs either 'braid' or 'slices'")


def _emit(obj: dict) -> None:
    print(json.dumps(obj, sort_keys=True))


def _ell(args: argparse.Namespace, file_ell: Optional[int] = None,
         d: Optional[Diagram] = None) -> int:
    """The run's ell: --ell when given, else the link file's.  Each color of
    `d` must satisfy Cb_r(z) = (-1)^(l+1) tr g at it by `params.cheb_holds`,
    which `uqsl2.char_from_ycolor` applies to each lifted character."""
    ell = file_ell if args.ell is None else args.ell
    if ell < 3:
        raise ParseError("ell must be >= 3")
    p = root_params(ell)
    for e, c in (d.edge_colors.items() if d is not None else ()):
        if not cheb_holds(c.z, c.trace(), p):
            raise ParseError(f"the color of edge {e} fails the Chebyshev "
                             f"relation Cb_r(z) = (-1)^(l+1) tr g at ell {ell}")
    return ell


# --- subcommands ----------------------------------------------------------------

def cmd_invariant(args: argparse.Namespace) -> int:
    ell, d = load_link(args.link)
    provider = BraidingProvider(root_params(_ell(args, ell, d)))
    res = tilde_Fprime(d, provider, seed=args.seed, max_gauge=args.max_gauge)
    _emit(res.as_json_dict())
    return 0


def cmd_dim(args: argparse.Namespace) -> int:
    ell = _ell(args)
    p = root_params(ell)
    omega = args.omega
    # a character with this Casimir value and no nilpotent part
    if abs(omega - steinberg_char(p).omega) <= TOL:
        chi_full = steinberg_char(p)
    else:
        c = p.cheb(omega)
        if not cmath.isfinite(c):
            raise ParseError(f"omega {omega} is out of range: Cb_r(omega) "
                             "is not finite")
        kappa_roots = np.roots([1.0, p.sign_ell * c, 1.0])
        chi_full = ZChar(kappa=complex(kappa_roots[0]), e_r=0.0, f_r=0.0,
                         omega=omega)
    if not is_admissible(chi_full, p):
        raise Singular(f"omega {omega} has parabolic non-Steinberg holonomy")
    _emit({"ell": ell, "omega": _cpair(omega),
           "dim": _cpair(modified_dim(chi_full, p)),
           "alpha": _cpair(alpha_from_omega(omega, p))})
    return 0


def cmd_color(args: argparse.Namespace) -> int:
    ell, d = load_link(args.link)
    ell = _ell(args, ell, d)
    gauge, lifted, attempts = gauge_fix(d, args.seed, args.max_gauge)
    out = {
        "ell": ell,
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


# --- argument plumbing --------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    """A usage error is a ParseError, so it too prints one JSON object."""

    def error(self, message: str):
        raise ParseError(message)


def _count(low: int):
    """An argparse type: an integer no less than `low`, which is 0 or 1."""

    def parse(text: str) -> int:
        v = int(text)
        if v < low:
            word = "positive" if low else "non-negative"
            raise argparse.ArgumentTypeError(f"must be {word}, got {text}")
        return v

    parse.__name__ = "int"  # argparse names it in "invalid ... value"
    return parse


def _finite(text: str) -> complex:
    """An argparse type: a finite Python complex literal."""
    if cmath.isfinite(v := complex(text)):
        return v
    raise argparse.ArgumentTypeError(f"must be finite, got {text}")


_finite.__name__ = "complex"  # argparse names it in "invalid ... value"


def _add_link_args(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("link", help="JSON link file")
    sp.add_argument("--ell", type=int, default=None,
                    help="override the link file's ell")
    sp.add_argument("--seed", type=_count(0), default=0)
    sp.add_argument("--max-gauge", type=_count(1), default=100)


def build_parser() -> argparse.ArgumentParser:
    ap = _Parser(
        prog="holoinv",
        description="quantum invariants of links with SL2(C) holonomy",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("invariant", help="renormalized invariant of a link file")
    _add_link_args(sp)
    sp.set_defaults(func=cmd_invariant)

    sp = sub.add_parser("dim", help="modified dimension at a Casimir value")
    sp.add_argument("--ell", type=int, required=True)
    sp.add_argument("--omega", type=_finite, required=True,
                    help="Casimir value as a Python complex literal")
    sp.set_defaults(func=cmd_dim)

    sp = sub.add_parser("color", help="lift a holonomy coloring")
    _add_link_args(sp)
    sp.set_defaults(func=cmd_color)
    return ap


def main(argv: Optional[list[str]] = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except SystemExit as e:  # only --help exits; a usage error is a ParseError
        return e.code
    except (ParseError, ValueError) as e:
        _emit({"error": {"kind": type(e).__name__, "message": str(e)}})
        return 1
    except HoloinvError as e:  # the computation is undefined on this input
        _emit({"error": {"kind": type(e).__name__, "message": str(e)}})
        return 2
    except Exception as e:  # an internal error: still one JSON object
        _emit({"error": {"kind": type(e).__name__, "message": str(e)}})
        return 3


if __name__ == "__main__":
    sys.exit(main())
