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

Running it from another tree needs only a copy of this file there.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib.util
import io
import json
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


if __name__ == "__main__":
    main([int(s) for s in sys.argv[1:]] or [1, 7])
