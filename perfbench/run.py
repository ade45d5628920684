"""Benchmark of the holoinv pipeline, end to end and layer by layer.

Run from the repository root:

    python3 perfbench/run.py --workload cold_resolve --seed 1 --seconds 15 --trace 0

Each workload is a closed loop with one client that issues one op at a time,
in a fresh process.  Inputs are link files generated from --seed by
perfbench/corpus.py; the program sees nothing else.  The timed phase runs
whole passes over the workload's ops until --seconds have passed and at
least `min_ops` ops are done, so every run measures the same mix of ops.

Workloads (BENCHMARK.json records why each was chosen):

* cold_resolve: one `tilde_Fprime` per op with a brand-new
  `BraidingProvider`, at ell 5 and ell 10 (r = 5).  Check: the two gauge
  copies of a link agree to 1e-6.
* warm_eval: at ell 7 (r = 7) set-up resolves every braiding of each link
  into one provider; each op is `tilde_Fprime` at one cut edge whose 1-1
  tangle has width 7, so every braiding lookup hits the cache.  Check:
  every cut agrees to 1e-7 with the link's value at its narrowest cut.
* cli_call: each op is one `python3 -m holoinv.cli invariant LINK.json`
  child at ell 3, 4 or 6.  Check: exit code 0 and stdout byte-identical to
  the in-process result.

Invariants are compared as r^2 log|v| and r^2 arg v (mod 2 pi): the
overflow-free, relative form of comparing canonical values v^(r^2).  A
value that vanishes fails, since its modulus and phase are rounding noise,
except on the cases listed in VANISHING: their invariant is exactly 0, and
there only values that vanish pass.

--trace 0 starts `setup_runs` workload processes one after another.  Each
sets up (imports, corpus, reference values, one untimed warm-up op) and
reports when it reaches its first timed op; setup_s is the median time from
starting such a process to that point.  The last process also runs the
timed phase and reports the other end-to-end metrics.

--trace 1 is a separate run: it wraps holoinv's public functions
(perfbench/spans.py), runs untraced (U) and traced (T) passes in the order
U T T U, and prints the per-layer metrics of set-up plus one traced pass,
and the tracing overhead (traced minus untraced op p50).

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics; the line before it holds the details:
environment, tail percentile and sample count, set-up times and the cases
that failed their check.
"""

from __future__ import annotations

import argparse
import cmath
import functools
import json
import math
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

GAUGE_TOL = 1e-6   # tolerances of the tests: gauge independence ...
CUT_TOL = 1e-7     # ... and cut-edge independence
WARM_WIDTH = 7     # the one op-cost class of warm_eval cuts
CLI_PROBES = 3     # traced CLI calls behind cli.* outside cli_call
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
READY = "ready"    # a workload process prints this before its first timed op

# (link, ell) whose invariant is exactly 0; |v| <= ZERO_TOL counts as 0.
# T(2,5) has two Riley components.  On the one the corpus colors (the root u
# of least real part) the invariant vanishes at ell 5 and has modulus 13.14
# at ell 10; on the other it has modulus 21.27 at ell 5 and vanishes at
# ell 10.  Both moduli are the same for every meridian, gauge, cut edge and
# Markov stabilization tried.  At ell 5 the braid word acts on the five
# eigen-blocks of V_x (x) V_y by the five 5th roots of unity, and the
# blocks' terms, of modulus 1.3 to 5.2, cancel to 1e-11.
VANISHING = {("t25", 5)}
ZERO_TOL = 1e-8


def agree(a, ref, tol: float, zero: bool = False) -> bool:
    """Two ModScalars of one r agree: |a^(r^2) / ref^(r^2) - 1| <~ tol, or,
    where the invariant is exactly 0 (`zero`), both vanish.

    A non-ModScalar (an op that raised) never agrees.
    """
    try:
        va, vr, n = complex(a.value), complex(ref.value), a.r * a.r
    except AttributeError:
        return False
    if zero:
        return a.r == ref.r and max(abs(va), abs(vr)) <= ZERO_TOL
    if va == 0 or vr == 0 or a.r != ref.r:
        return False
    dlog = n * (math.log(abs(va)) - math.log(abs(vr)))
    darg = math.remainder(n * (cmath.phase(va) - cmath.phase(vr)), math.tau)
    return abs(dlog) <= tol and abs(darg) <= tol


class Workload:
    """A list of ops, a per-pass output check, and its timing policy.

    tail_pct is the highest of the percentiles 75/90/95/99 with at least ten
    samples beyond it, and min_ops keeps it so; both are fixed per workload,
    so a faster program is compared at the same percentile.  The percentile
    falls inside one op-cost class of the workload's mix.  setup_s is the
    median over setup_runs fresh processes.
    """

    ranks: tuple[int, ...] = ()
    tail_pct, min_ops, setup_runs = 75, 40, 5
    traced = False  # only CLI children care: they run through cli_child.py

    def __init__(self, seed: int, work: Path, env: "Env"):
        self.seed, self.work, self.env = seed, work, env
        self.ops: list = []
        self.keys: list[str] = []
        self.zero_keys: set[str] = set()  # cases checked as exact zeros

    def load(self, case):
        """Write a case's link file and parse it with the CLI's loader."""
        path = self.work / (case.key.replace("@", "_").replace("/", "_")
                            + ".json")
        path.write_text(json.dumps(case.doc))
        ell, d = self.env.cli.load_link(str(path))
        if ell != case.ell:
            raise RuntimeError(f"{case.key}: link file read back as ell {ell}")
        return path, d

    def add(self, case, op) -> None:
        self.keys.append(case.key)
        self.ops.append(op)

    def check(self, values: list) -> list[bool]:
        raise NotImplementedError

    def child_spans(self) -> list:
        """Span reports of the CLI children since the last call."""
        return []


class ColdResolve(Workload):
    # per ell: 6 ops on commuting closures (~0.25 s), 2 on T(2,3) (~0.4 s),
    # 2 on T(2,5) (~0.65 s); p50 lies among the first, p90 among the last
    ranks = (5,)
    tail_pct, min_ops = 90, 100
    # a set-up takes about 0.5 s, and single ones vary by up to a third
    setup_runs = 9

    def setup(self):
        env, c = self.env, self.env.corpus
        rng = env.np.random.default_rng(self.seed)
        for ell in (5, 10):
            for case in c.cases(("hopf", "mix2", "s3", "t23", "t25"), ell,
                                rng, 2):
                _, d = self.load(case)
                if (case.name, ell) in VANISHING:
                    self.zero_keys.add(case.key)
                self.add(case, functools.partial(self.op, d, ell))
        self.ops[0]()  # warm-up

    def op(self, d, ell):
        env = self.env
        provider = env.braiding.BraidingProvider(env.params.root_params(ell))
        return env.invariant.tilde_Fprime(d, provider).value

    def check(self, values):
        # the two gauge copies of a link are adjacent ops
        ok = []
        for a, b, key in zip(values[0::2], values[1::2], self.keys[0::2]):
            good = agree(b, a, GAUGE_TOL, zero=key in self.zero_keys)
            ok += [good, good]
        return ok


class WarmEval(Workload):
    ranks = (7,)
    setup_runs = 3  # each set-up resolves at r = 7 for several seconds
    # T(2,3) cuts cost about 15% less than mix2 cuts; two of them keep the
    # p50 and p75 of a pass among the seven mix2 cuts
    minor_cuts = {"t23": 2}

    def setup(self):
        env, c = self.env, self.env.corpus
        rng = env.np.random.default_rng(self.seed)
        self.refs = []
        for case in c.cases(("mix2", "t23"), 7, rng, 1):
            _, d = self.load(case)
            # the harness's own survey calls the unwrapped cut_edge, so a
            # traced run records only the pipeline's cuts
            widths = {e: env.diagram.cut_edge(d, e).max_width()
                      for e in d.edges()}
            provider = env.braiding.BraidingProvider(env.params.root_params(7))
            # the narrowest cut is cheap, and resolves every braiding
            narrow = min(widths, key=widths.get)
            ref = env.invariant.tilde_Fprime(d, provider, cut=narrow).value
            cuts = [e for e, w in widths.items() if w == WARM_WIDTH]
            for e in cuts[:self.minor_cuts.get(case.name)]:
                self.add(case, functools.partial(self.op, d, provider, e))
                self.refs.append(ref)
        self.ops[0]()  # warm-up

    def op(self, d, provider, cut):
        return self.env.invariant.tilde_Fprime(d, provider, cut=cut).value

    def check(self, values):
        return [agree(v, ref, CUT_TOL) for v, ref in zip(values, self.refs)]


class CliCall(Workload):
    ranks = (2, 3)

    def setup(self):
        env, c = self.env, self.env.corpus
        rng = env.np.random.default_rng(self.seed)
        self.refs = []
        self.reports: list = []
        for ell in (3, 4, 6):
            for case in c.cases(("hopf", "mix2", "s3", "mix3", "t23", "t25"),
                                ell, rng, 1):
                path, d = self.load(case)
                provider = env.braiding.BraidingProvider(
                    env.params.root_params(ell))
                res = env.invariant.tilde_Fprime(d, provider)
                self.refs.append(json.dumps(res.as_json_dict(),
                                            sort_keys=True) + "\n")
                self.add(case, functools.partial(self.op, path))
        self.ops[0]()  # warm-up

    def op(self, path):
        if not self.traced:
            return run_cli(self.env.child_env, path)
        res, report = run_traced_cli(self.env.child_env, path, self.work)
        self.reports.append(report)
        return res

    def check(self, values):
        return [v == (0, ref) for v, ref in zip(values, self.refs)]

    def child_spans(self):
        out, self.reports = self.reports, []
        return out


WORKLOADS = {"cold_resolve": ColdResolve, "warm_eval": WarmEval,
             "cli_call": CliCall}


def run_cli(child_env, path):
    p = subprocess.run([sys.executable, "-m", "holoinv.cli", "invariant",
                        str(path)], env=child_env, capture_output=True,
                       text=True, timeout=120)
    return p.returncode, p.stdout


def run_traced_cli(child_env, path, work: Path):
    """One CLI call through perfbench/cli_child.py, which records spans."""
    out = work / "child_spans.json"
    p = subprocess.run([sys.executable, str(HERE / "cli_child.py"), str(out),
                        "invariant", str(path)], env=child_env,
                       capture_output=True, text=True, timeout=120)
    report = json.loads(out.read_text())
    out.unlink()
    return (p.returncode, p.stdout), report


class Env:
    """holoinv's modules, imported from this checkout's src/, and the
    corpus generator."""

    def __init__(self):
        sys.path.insert(0, str(SRC))
        import numpy as np

        import holoinv.braiding as braiding
        import holoinv.cli as cli
        import holoinv.diagram as diagram
        import holoinv.invariant as invariant
        import holoinv.params as params

        import corpus

        self.np, self.braiding, self.cli = np, braiding, cli
        self.diagram, self.invariant = diagram, invariant
        self.params, self.corpus = params, corpus
        pythonpath = os.environ.get("PYTHONPATH")
        self.child_env = dict(os.environ, PYTHONPATH=str(SRC) + (
            os.pathsep + pythonpath if pythonpath else ""))


class Tally:
    """Latencies, check results and notes of the ops run so far."""

    def __init__(self):
        self.lat: list[float] = []
        self.oks: list[bool] = []
        self.errors: list[str] = []
        self.failed_cases: set[str] = set()

    def run_pass(self, wl: Workload) -> list[float]:
        """Every op once, in order; returns the pass's latencies."""
        lat, values = [], []
        for op in wl.ops:
            t = time.perf_counter()
            try:
                v = op()
            except Exception as e:  # a failed op is counted, not fatal
                v = e
                self.errors.append(f"{type(e).__name__}: {e}"[:200])
            lat.append(time.perf_counter() - t)
            values.append(v)
        oks = wl.check(values)
        self.lat += lat
        self.oks += oks
        self.failed_cases |= {k for k, ok in zip(wl.keys, oks) if not ok}
        return lat

    @property
    def failed(self) -> int:
        return self.oks.count(False)

    def details(self) -> dict:
        return {"errors": self.errors[:5],
                "failed_cases": sorted(self.failed_cases)}


def percentile(xs, pct):
    return float(statistics.quantiles(xs, n=100, method="inclusive")[pct - 1])


def environment(np) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    commit = "unknown"  # the benchmark may run from an export, not a clone
    if (ROOT / ".git").exists():
        p = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                           capture_output=True, text=True)
        commit = p.stdout.strip() or commit
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "threads": {v: os.environ[v] for v in THREAD_VARS},
        "commit": commit,
        "src_lines": sum(len(f.read_text().splitlines())
                         for f in sorted(SRC.rglob("*.py"))),
    }


def timed(wl: Workload, seconds: float):
    """The timed phase of a set-up workload: every metric but setup_s."""
    tally = Tally()
    passes = 0
    start = time.perf_counter()
    while time.perf_counter() - start < seconds or len(tally.lat) < wl.min_ops:
        tally.run_pass(wl)
        passes += 1
    wall = time.perf_counter() - start
    n, ok = len(tally.lat), len(tally.lat) - tally.failed
    usage = resource.RUSAGE_CHILDREN if isinstance(wl, CliCall) \
        else resource.RUSAGE_SELF
    tail = percentile(tally.lat, wl.tail_pct)
    metrics = {
        "ops_per_s": ok / wall,
        "op_p50_s": statistics.median(tally.lat),
        "op_tail_s": tail,
        "peak_rss_mb": resource.getrusage(usage).ru_maxrss / 1024.0,
        "ok_share": ok / n,
    }
    details = {"tail_percentile": wl.tail_pct, "samples": n,
               "samples_beyond_tail": sum(x > tail for x in tally.lat),
               "passes": passes, "timed_s": wall,
               "zero_cases": sorted(wl.zero_keys), **tally.details()}
    return tally, metrics, details


def spawn(args, role: str) -> tuple[float, list[str]]:
    """One workload process: seconds from its start to READY, and the
    lines it printed after that."""
    cmd = [sys.executable, str(Path(__file__).resolve()),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", "0", "--role", role]
    t = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as p:
        try:
            first = p.stdout.readline()
            ready = time.perf_counter() - t
            rest = p.stdout.read().splitlines()
        except BaseException:  # interrupted: take the child down too
            p.terminate()
            raise
    if p.returncode or first.strip() != READY:
        raise RuntimeError(f"{role} process for {args.workload} exited with "
                           f"{p.returncode} after printing {first!r}")
    return ready, rest


def launch(kind, args):
    """setup_runs workload processes; the last one also runs the timed
    phase.  Returns what the last one reported, with setup_s added."""
    setup_times = []
    for i in range(kind.setup_runs):
        t, lines = spawn(args, "run" if i == kind.setup_runs - 1 else "setup")
        setup_times.append(t)
    details, result = (json.loads(x) for x in lines[-2:])
    details["setup_runs_s"] = setup_times
    result["metrics"]["setup_s"] = statistics.median(setup_times)
    return details, result


def cli_controls(wl: Workload, env: Env, spans, reports: list) -> dict:
    """cli.* per call: bare interpreter start, and traced CLI children."""
    interp = []
    for _ in range(5):
        t = time.perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], env=env.child_env,
                       check=True)
        interp.append(time.perf_counter() - t)
    if not reports:  # a workload without CLI ops probes a small link
        case = env.corpus.cases(("hopf",), 3,
                                env.np.random.default_rng(wl.seed), 1)[0]
        path, _ = wl.load(case)
        reports = [run_traced_cli(env.child_env, path, wl.work)[1]
                   for _ in range(CLI_PROBES)]
    flat = [s for rep in reports for s in spans.from_rows(rep["spans"])]
    return {
        "cli.interpreter_s": statistics.median(interp),
        "cli.import_s": statistics.median(rep["import_s"] for rep in reports),
        "cli.load_link_s": spans.median_duration(flat, "cli.load_link"),
        "cli.main_s": spans.median_duration(flat, "cli.main"),
    }


def per_layer(kind, args, work: Path, env: Env):
    """Set-up once, then blocks of untraced and traced passes.

    The order U T T U within a block cancels a steady drift of the host's
    speed from the overhead estimate.
    """
    import spans

    tracer = spans.Tracer()
    spans.install(tracer)
    wl = kind(args.seed, work, env)
    tracer.on = True
    wl.setup()
    tracer.on = False
    setup_spans = [tracer.take()] + [spans.from_rows(rep["spans"])
                                     for rep in wl.child_spans()]
    pass_spans: list = []
    tally = Tally()
    lat = {False: [], True: []}
    reports: list = []
    start = time.perf_counter()
    while not lat[True] or time.perf_counter() - start < args.seconds:
        for traced in (False, True, True, False):
            wl.traced = tracer.on = traced
            lat[traced] += tally.run_pass(wl)
            tracer.on = False
            if traced:
                child = wl.child_spans()
                reports += child
                pass_spans += [tracer.take()] + [
                    spans.from_rows(rep["spans"]) for rep in child]
    # set-up plus the mean traced pass; exact for counts, since every pass
    # runs the same ops
    n_traced = len(lat[True]) // len(wl.ops)
    total: dict = {}
    state = 0.0
    for weight, lists in ((1.0, setup_spans), (1.0 / n_traced, pass_spans)):
        for sp in lists:
            for k, v in spans.totals(sp).items():
                total[k] = total.get(k, 0.0) + weight * v
            state = max(state, spans.state_bytes(sp))
    calls = total["braiding.calls"]
    total["braiding.hit_ratio"] = (1.0 - total["braiding.misses"] / calls
                                   if calls else 0.0)
    total["braiding.sideways_mb"] = 16.0 * max(wl.ranks) ** 8 / 1e6
    total["invariant.state_mb"] = state / 1e6
    total.update(cli_controls(wl, env, spans, reports))
    p50_u = statistics.median(lat[False])
    p50_t = statistics.median(lat[True])
    total["trace.overhead_s"] = p50_t - p50_u
    total["trace.overhead_share"] = (p50_t - p50_u) / p50_u
    details = {"untraced_ops": len(lat[False]), "traced_ops": len(lat[True]),
               "traced_passes": n_traced, "op_p50_untraced_s": p50_u,
               "traced_pass_s": sum(lat[True]) / n_traced,
               "op_p50_traced_s": p50_t, "zero_cases": sorted(wl.zero_keys),
               **tally.details()}
    return tally, total, details


def run_here(kind, args):
    """Set up the workload in this process and run it: traced, or as one
    of the processes launch() starts.  Returns the details and the result
    with plain metric values; None for a set-up-only process."""
    env = Env()
    work = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        if args.trace:
            tally, values, details = per_layer(kind, args, work, env)
        else:
            wl = kind(args.seed, work, env)
            wl.setup()
            print(READY, flush=True)
            if args.role == "setup":
                return None
            tally, values, details = timed(wl, args.seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass  # another run still uses it
    details.update(workload=args.workload, seed=args.seed,
                   seconds=args.seconds, trace=args.trace,
                   environment=environment(env.np))
    return details, {"correct": tally.failed == 0,
                     "attempted": len(tally.oks), "failed": tally.failed,
                     "metrics": values}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # internal: the workload processes that --trace 0 starts
    ap.add_argument("--role", choices=("setup", "run"), help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if not (SRC / "holoinv" / "__init__.py").is_file():
        print(f"perfbench: no holoinv sources under {SRC}; run from a "
              "checkout of the repository", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    kind = WORKLOADS[args.workload]
    # on SIGTERM, unwind: a launcher terminates its child, a workload
    # process removes its files and its CLI child
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    # BLAS and OpenMP run one thread in every workload process and CLI
    # child; numpy reads these when it is first imported, in Env
    for var in THREAD_VARS:
        os.environ[var] = "1"
    if args.trace or args.role:
        out = run_here(kind, args)
        if out is None:
            return 0
        details, result = out
        if args.role:  # plain values, for launch()
            print(json.dumps(details))
            print(json.dumps(result))
            return 0
        wanted = spec["per_layer"]
    else:
        details, result = launch(kind, args)
        wanted = spec["end_to_end"]
    values = result["metrics"]
    result["metrics"] = {m["name"]: {"value": values[m["name"]],
                                     "unit": m["unit"]} for m in wanted}
    print(json.dumps(details, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
