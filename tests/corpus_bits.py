"""Print every bit of output of the benchmark corpora, for comparing trees.

    python3 tests/corpus_bits.py [SEED ...]    (default: seeds 1 and 7)

For the tree this file sits in, it imports holoinv from `src/` and reads the
corpus generator `perfbench/corpus.py` by path.  On the cases of each
benchmark workload, drawn as `perfbench/run.py` draws them, it prints:

* cold_resolve: the value of each case in a fresh provider;
* warm_eval: the narrowest cut's value, then every cut's value or error,
  in one provider per link;
* cli_call: the value, and the stdout and exit code of `holoinv invariant`
  and `holoinv color` on the case's link file;

each value as the `repr` of its representative, and after each provider a
sha256 of every cached braiding's c and c_inv.  Two trees give the same
bits exactly when their outputs diff empty:

    python3 tests/corpus_bits.py > new.txt
    python3 OTHER_TREE/tests/corpus_bits.py > old.txt && diff old.txt new.txt

Running it from another tree needs only a copy of this file there.  Where
the bits differ, compare the two printouts:

    python3 tests/corpus_bits.py --compare old.txt new.txt [--tol 1e-10]

It reports the largest drift of the values (each representative, and
`holoinv invariant`'s) in r^2 log|v| and in r^2 arg v mod 2 pi, which are
what the canonical value v^(r^2) keeps, and counts the braiding hashes,
exit codes and other lines that differ.  Values that both vanish
(|v| <= ZERO_TOL) count as agreeing.  It exits 1 when a drift exceeds
`--tol` or anything else differs.
"""

from __future__ import annotations

import cmath
import contextlib
import hashlib
import importlib.util
import io
import json
import math
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

from holoinv import cli  # noqa: E402
from holoinv.braiding import BraidingProvider  # noqa: E402
from holoinv.diagram import cut_edge  # noqa: E402
from holoinv.errors import HoloinvError  # noqa: E402
from holoinv.invariant import tilde_Fprime  # noqa: E402
from holoinv.params import root_params  # noqa: E402

_spec = importlib.util.spec_from_file_location("perfbench_corpus",
                                               ROOT / "perfbench" / "corpus.py")
corpus = sys.modules[_spec.name] = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(corpus)

WARM_WIDTH = 7  # perfbench/run.py's one op-cost class of warm_eval cuts
ZERO_TOL = 1e-8  # perfbench/run.py's: |v| at most this counts as 0


def _braidings(provider) -> list[str]:
    """One sha256 per cached braiding, of its c then its c_inv, sorted."""
    return sorted("  braiding " + hashlib.sha256(
        np.ascontiguousarray(hb.c).tobytes()
        + np.ascontiguousarray(hb.c_inv).tobytes()).hexdigest()
        for hb in provider._braidings.values())


def _value(run) -> str:
    try:
        return repr(complex(run().value.value))
    except HoloinvError as e:
        return f"{type(e).__name__}: {e}"


def _load(case, work: Path):
    path = work / (case.key.replace("@", "_").replace("/", "_") + ".json")
    path.write_text(json.dumps(case.doc))
    ell, d = cli.load_link(str(path))
    assert ell == case.ell, case.key
    return path, d


def _cli(argv) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return f"exit {code}: {out.getvalue()}"


def cold_resolve(seed: int, work: Path):
    rng = np.random.default_rng(seed)
    for ell in (5, 10):
        for case in corpus.cases(("hopf", "mix2", "s3", "t23", "t25"), ell, rng, 2):
            d = _load(case, work)[1]
            provider = BraidingProvider(root_params(ell))
            yield f"{case.key} {_value(lambda: tilde_Fprime(d, provider))}"
            yield from _braidings(provider)


def warm_eval(seed: int, work: Path):
    rng = np.random.default_rng(seed)
    for case in corpus.cases(("mix2", "t23"), 7, rng, 1):
        d = _load(case, work)[1]
        widths = {e: cut_edge(d, e).max_width() for e in d.edges()}
        provider = BraidingProvider(root_params(7))
        narrow = min(widths, key=widths.get)
        yield f"{case.key} narrow {narrow} " + _value(
            lambda: tilde_Fprime(d, provider, cut=narrow))
        for e, w in widths.items():
            mark = "*" if w == WARM_WIDTH else " "
            yield f"{case.key} {mark}cut {e} width {w} " + _value(
                lambda: tilde_Fprime(d, provider, cut=e))
        yield from _braidings(provider)


def cli_call(seed: int, work: Path):
    rng = np.random.default_rng(seed)
    for ell in (3, 4, 6):
        for case in corpus.cases(("hopf", "mix2", "s3", "mix3", "t23", "t25"),
                                 ell, rng, 1):
            path, d = _load(case, work)
            provider = BraidingProvider(root_params(ell))
            yield f"{case.key} {_value(lambda: tilde_Fprime(d, provider))}"
            yield from _braidings(provider)
            for cmd in ("invariant", "color"):
                yield f"  {cmd} {_cli([cmd, str(path)])}".rstrip("\n")


def main(seeds) -> None:
    with tempfile.TemporaryDirectory() as work:
        for seed in seeds:
            for workload in (cold_resolve, warm_eval, cli_call):
                print(f"== {workload.__name__} seed {seed}")
                for line in workload(seed, Path(work)):
                    print(line)


def _printed_value(line: str):
    """The value a printed line carries: a case's representative, or the
    one in `holoinv invariant`'s stdout; None on any other line."""
    if line.startswith("  invariant exit 0: "):
        return complex(*json.loads(line.split(": ", 1)[1])["representative"])
    if line.startswith((" ", "==")) or ": " in line:
        return None  # a hash, a header, other stdout or an error
    return complex(line.rsplit(" ", 1)[1])


def _drifts(a: complex, b: complex, r: int) -> tuple:
    """r^2 |log|a| - log|b||, and r^2 |arg a - arg b| mod 2 pi."""
    n = r * r
    if max(abs(a), abs(b)) <= ZERO_TOL:
        return 0.0, 0.0
    if a == 0 or b == 0:
        return math.inf, math.inf
    return (n * abs(math.log(abs(a)) - math.log(abs(b))),
            abs(math.remainder(n * (cmath.phase(a) - cmath.phase(b)), math.tau)))


def compare(old: list, new: list, tol: float) -> int:
    """Print how two printouts of this script differ; 1 if past `tol`."""
    worst = {"log": (0.0, ""), "arg": (0.0, "")}
    counts = dict.fromkeys(("values", "vanishing", "braiding hashes",
                            "exit codes", "other lines"), 0)
    if len(old) != len(new):
        print(f"line counts differ: {len(old)} -> {len(new)}")
    key = ""
    for a, b in zip(old, new):
        if not a.startswith(" "):
            key = a.split(" ", 1)[0]
        if a == b:
            continue
        va, vb = _printed_value(a), _printed_value(b)
        if a.startswith("  braiding ") and b.startswith("  braiding "):
            counts["braiding hashes"] += 1
        elif " exit " in a and a.split(":", 1)[0] != b.split(":", 1)[0]:
            counts["exit codes"] += 1
        elif va is None or vb is None:
            counts["other lines"] += 1
        else:
            r = root_params(int(key.split("@ell")[1].split("/")[0])).r
            if max(abs(va), abs(vb)) <= ZERO_TOL:
                counts["vanishing"] += 1
            counts["values"] += 1
            for name, x in zip(("log", "arg"), _drifts(va, vb, r)):
                worst[name] = max(worst[name], (x, key))
    print(f"values differing: {counts.pop('values')}, of which both vanish "
          f"(|v| <= {ZERO_TOL:g}): {counts.pop('vanishing')}")
    print(f"largest r^2 log|v| drift: {worst['log'][0]:.3e} {worst['log'][1]}")
    print(f"largest r^2 arg v drift: {worst['arg'][0]:.3e} {worst['arg'][1]}")
    for name, k in counts.items():
        print(f"{name} differing: {k}")
    bad = (len(old) != len(new) or any(counts.values())
           or max(worst["log"][0], worst["arg"][0]) > tol)
    print(f"{'DIFFER' if bad else 'AGREE'} to {tol:g}")
    return int(bad)


if __name__ == "__main__":
    if sys.argv[1:2] == ["--compare"]:
        args = sys.argv[2:]
        tol = float(args[args.index("--tol") + 1]) if "--tol" in args else 1e-10
        old, new = (Path(f).read_text().splitlines() for f in args[:2])
        sys.exit(compare(old, new, tol))
    main([int(s) for s in sys.argv[1:]] or [1, 7])
