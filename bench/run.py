"""repstab benchmark: one workload, one run, one JSON result line.

    python3 bench/run.py --workload stabilize-d96 --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --smoke

Run from the root of a checkout; the library is imported from `src/`. Each
workload is a closed loop with a single client: whole passes over the
operations that set-up generated from the seed, repeated until `--seconds`
have passed. `--trace 0` prints the end-to-end metrics; `--trace 1` runs
the same operations under the tracer and prints the per-layer metrics.
Human-readable lines come first; the last line of standard output is the
JSON result. The exit code is 1 when any correctness gate fails.
See bench/README.md for what each workload and metric is for.
"""

import os

# pin before numpy loads: 2 BLAS threads on 2 cores made stabilize slower and noisier
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                    "BLIS_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"
os.environ["REPSTAB_THREADS"] = "1"  # a serial sweep: see "Sweep workers" in README.md

import argparse  # noqa: E402
import ctypes  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import warnings  # noqa: E402
from collections import defaultdict  # noqa: E402
from contextlib import nullcontext  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
WORKLOAD_NAMES = ("stabilize-d96", "realize-rich", "cone-imbalance", "sweep-d6")
SETUP_REPEATS = 5
# Nominal time of Reference.__call__: end-to-end times are scaled to the host
# speed at which the reference computation takes this long (see README.md).
NOMINAL_REFERENCE_MS = 3.0
SMOOTH = 3
END_TO_END = {
    "latency_ms.p50": "ms",
    "latency_ms.p90": "ms",
    "ops_per_s": "1/s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}


def import_library():
    """Import repstab from this checkout's src/, and from nowhere else."""
    if not (SRC / "repstab" / "__init__.py").is_file():
        sys.exit(f"benchmark: no library sources at {SRC / 'repstab'}")
    sys.path.insert(0, str(SRC))
    import repstab
    if Path(repstab.__file__).resolve().parent != SRC / "repstab":
        sys.exit(f"benchmark: imported repstab from {repstab.__file__}, not {SRC}")


def blas_threads() -> dict:
    """Thread count reported by each loaded OpenBLAS, by shared-object name."""
    found = {}
    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for symbol in ("openblas_get_num_threads", "openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads", "scipy_openblas_get_num_threads64_"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                found[Path(lib).name] = fn()
                break
    return found


def environment() -> dict:
    import scipy
    import repstab.sweep as sweep
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    workers = getattr(sweep, "_worker_count", None)
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "blas_thread_env": {v: os.environ[v] for v in BLAS_THREAD_VARS},
        "sweep_workers": workers() if workers else "unknown",
    }


class Reference:
    """A fixed computation that does not touch repstab: complex SVD, eigh and
    three-operand einsum on small matrices, and a loop of 6 x 6 products,
    whose cost is mostly per-call overhead. Timed next to each operation, it
    gives the host's speed at that moment."""

    def __init__(self):
        rng = numpy.random.default_rng(0)
        self.a = rng.standard_normal((24, 24)) + 1j * rng.standard_normal((24, 24))
        self.b = rng.standard_normal((6, 16, 16)) + 1j * rng.standard_normal((6, 16, 16))

    def __call__(self) -> float:
        """Milliseconds the computation took."""
        a, b = self.a, self.b
        tic = time.perf_counter()
        numpy.linalg.svd(a)
        numpy.linalg.eigh(a + a.conj().T)
        numpy.einsum("ij,gjk,kl->gil", b[0], b, b[1])
        c = a[:6, :6]
        for _ in range(100):
            c = c @ c.conj().T
            c = c / numpy.abs(numpy.trace(c))
        return (time.perf_counter() - tic) * 1e3


def run_pass(ops, record, failures, reference=None, pause=nullcontext):
    """One pass over the operations; returns the seconds spent in library calls.

    `reference`, when given, is timed just before each operation. A
    RepStabError or a failed gate counts against the operation, and the
    pass goes on. Gates run outside the timed region, under `pause`.
    """
    from repstab.errors import RepStabError
    from workloads import GateError
    busy = 0.0
    for i, op in enumerate(ops):
        ref = reference() if reference else None
        tic = time.perf_counter()
        try:
            result = op.call()
        except RepStabError as exc:
            failures.append((op.count, f"{op.label}: {type(exc).__name__}: {exc}"))
            continue
        elapsed = time.perf_counter() - tic
        busy += elapsed
        try:
            with pause():
                quality = op.check(result)
        except GateError as exc:
            failures.append((exc.failed, str(exc)))
            continue
        record(i, op, elapsed, quality, ref)
    return busy


def percentile(values, q):
    return float(numpy.percentile(values, q))


def measure(workload, seed, seconds, tiny):
    """Untraced run: end-to-end metrics.

    The host's speed swings by up to 2x over seconds to minutes, for
    Python and BLAS alike. Each time t is therefore scaled to a nominal
    speed: t * NOMINAL_REFERENCE_MS / r, with r the median time of the
    reference computation next to it. latency_ms.p50 and .p90 are percentiles,
    over the primary operations, of each input's median scaled latency;
    ops_per_s is a pass's operations over the sum of those medians. Set-up
    runs SETUP_REPEATS times, spread over the run; setup_s is the median of
    their scaled times. Raw times are printed next to the scaled ones.
    """
    reference = Reference()
    repeats = 1 if tiny else SETUP_REPEATS
    setups, setups_raw = [], []

    def set_up():
        before = reference()
        tic = time.perf_counter()
        ops = workload.setup(seed, tiny)
        elapsed = time.perf_counter() - tic
        setups_raw.append(elapsed)
        setups.append(elapsed * 2 * NOMINAL_REFERENCE_MS / (before + reference()))
        return ops

    ops = set_up()
    timeline = []   # (input index, raw ms, reference ms) in the order run
    quality = defaultdict(list)
    info = {}
    passes = 0
    failures = []

    def record(i, op, elapsed, q, ref):
        timeline.append((i, elapsed * 1e3, ref))
        if passes == 0:  # quality over the distinct inputs, once each
            for key, value in q.items():
                if isinstance(value, str):
                    info[key] = value
                else:
                    quality[key] += value if isinstance(value, list) else [value]

    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        start = time.perf_counter()
        while True:
            run_pass(ops, record, failures, reference)
            passes += 1
            elapsed = time.perf_counter() - start
            if len(setups) < repeats and elapsed >= seconds * len(setups) / repeats:
                set_up()
            if elapsed >= seconds and len(setups) == repeats:
                break
        wall = time.perf_counter() - start

    # the host's speed at each operation: median reference time of the
    # SMOOTH operations on either side, which damps the reference's own jitter
    refs = [ref for _, _, ref in timeline]
    raw, scaled = defaultdict(list), defaultdict(list)
    for k, (i, ms, _) in enumerate(timeline):
        speed = statistics.median(refs[max(0, k - SMOOTH):k + SMOOTH + 1])
        raw[i].append(ms)
        scaled[i].append(ms * NOMINAL_REFERENCE_MS / speed)
    done = sum(ops[i].count * len(v) for i, v in raw.items())
    failed = sum(n for n, _ in failures)
    typical = {i: statistics.median(v) for i, v in scaled.items()}
    primary = [typical[i] for i in typical if ops[i].kind == workload.primary]
    if not primary:
        return None, done + failed, failures, [f"no {workload.primary} operation succeeded"]
    metrics = {
        "latency_ms.p50": percentile(primary, 50),
        "latency_ms.p90": percentile(primary, 90),
        "ops_per_s": 1e3 * sum(ops[i].count for i in typical) / sum(typical.values()),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "setup_s": statistics.median(setups),
    }
    lines = [f"measured {passes} passes of {len(ops)} operations in {wall:.2f} s; "
             f"{len(caught)} library warnings captured",
             f"reference computation {statistics.median(refs):.3f} ms median, "
             f"{min(refs):.3f} ms min (nominal {NOMINAL_REFERENCE_MS} ms)"]
    for kind in dict.fromkeys(ops[i].kind for i in typical):
        every = [x for i, v in raw.items() if ops[i].kind == kind for x in v]
        inputs = [typical[i] for i in typical if ops[i].kind == kind]
        for q in (50, 90):
            lines.append(f"{kind}_ms.p{q} {percentile(inputs, q):.3f} ms scaled, over "
                         f"inputs (n={len(inputs)}); {percentile(every, q):.3f} ms raw, "
                         f"over every sample (n={len(every)})")
    for key, values in quality.items():
        lines.append(f"{key}.p50 {percentile(values, 50):.6g} (n={len(values)})")
        lines.append(f"{key}.max {max(values):.6g} (n={len(values)})")
    for key, value in info.items():
        lines.append(f"{key} {value}")
    busy = sum(sum(v) for v in raw.values()) / 1e3
    lines.append(f"ops_per_s {metrics['ops_per_s']:.3f} 1/s scaled; {done / busy:.3f} 1/s "
                 f"raw (n={done} in {busy:.2f} s of library calls)")
    lines.append(f"error_rate {failed / max(done + failed, 1):.6g} ({failed} of {done + failed})")
    lines.append(f"peak_rss_mb {metrics['peak_rss_mb']:.1f} MB")
    lines.append(f"setup_s {metrics['setup_s']:.4f} s scaled, median of {len(setups)}; raw "
                 + ", ".join(f"{s:.4f}" for s in setups_raw) + " s")
    result = {name: {"value": metrics[name], "unit": unit} for name, unit in END_TO_END.items()}
    return result, done + failed, failures, lines


def measure_traced(workload, seed, seconds, tiny):
    """Traced run: per-layer metrics, kernel counts per pass, and the tracing
    overhead against an untraced pass over the same operations."""
    from tracer import PER_LAYER, Tracer
    ops = workload.setup(seed, tiny)
    failures = []
    done = [0]

    def record(i, op, elapsed, q, ref):
        done[0] += op.count

    tracer = Tracer()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        run_pass(ops, record, failures)                  # warm-up
        untraced = run_pass(ops, record, failures)
        n_before = len(caught)
        tracer.install()
        try:
            passes = []
            start = time.perf_counter()
            while len(passes) < 2 or time.perf_counter() - start < seconds:
                first = len(tracer.spans)
                with tracer.recording():
                    busy = run_pass(ops, record, failures, pause=tracer.paused)
                passes.append((busy, tracer.kernel_counts(first, len(tracer.spans))))
        finally:
            tracer.uninstall()
        traced_warnings = len(caught) - n_before

    traced = statistics.mean(busy for busy, _ in passes)
    overhead_ms = (traced - untraced) / len(ops) * 1e3
    metrics = tracer.layer_metrics(len(passes) * len(ops), traced_warnings, overhead_ms)
    lines = [f"traced {len(passes)} passes of {len(ops)} operations "
             f"({len(tracer.spans)} spans); untraced pass {untraced:.3f} s, "
             f"traced pass {traced:.3f} s"]
    kernel_runs = [counts for _, counts in passes]
    lines.append(f"kernel calls per pass {kernel_runs[0]}")
    if any(counts != kernel_runs[0] for counts in kernel_runs):
        failures.append((1, f"kernel counts differ between passes: {kernel_runs}"))
    for name, value in metrics.items():
        lines.append(f"{name} {value:.6g} {PER_LAYER[name][0]}")
    path = OUT_DIR / f"trace-{workload.name}-seed{seed}.jsonl"
    tracer.write(path, {"workload": workload.name, "seed": seed,
                        "passes": len(passes), "ops_per_pass": len(ops)})
    lines.append(f"spans written to {path.relative_to(ROOT)}")
    result = {name: {"value": value, "unit": PER_LAYER[name][0]}
              for name, value in metrics.items()}
    return result, done[0] + sum(n for n, _ in failures), failures, lines


def smoke(table, seed) -> int:
    """Every workload once at tiny size, untraced and twice traced; the
    kernel counts of the two traced runs must match."""
    from tracer import KERNELS
    ok = True
    for workload in table.values():
        _, _, failures, _ = measure(workload, seed, 0, tiny=True)
        traced = [measure_traced(workload, seed, 0, tiny=True) for _ in range(2)]
        failures += traced[0][2] + traced[1][2]
        kernels = [{k: metrics[f"{k}.calls"]["value"] for k in KERNELS}
                   for metrics, *_ in traced]
        passed = kernels[0] == kernels[1] and not failures
        ok &= passed
        print(f"smoke {workload.name}: {'ok' if passed else 'FAILED'}, kernel calls per "
              f"operation {kernels[0]}" + ("" if kernels[0] == kernels[1] else f" vs {kernels[1]}"))
        for _, message in failures[:5]:
            print(f"  {message}")
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="run every workload once at tiny size, untraced and "
                             "twice traced, and check that kernel counts repeat")
    args = parser.parse_args(argv)
    if not args.smoke and args.workload is None:
        parser.error("--workload is required unless --smoke is given")

    import_library()
    OUT_DIR.mkdir(exist_ok=True)
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    from workloads import workloads
    table = workloads(OUT_DIR)
    print(f"env {json.dumps(environment(), sort_keys=True)}")
    if args.smoke:
        return smoke(table, args.seed)

    workload = table[args.workload]
    print(f"workload {workload.name} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace}: {workload.why}")
    run = measure_traced if args.trace else measure
    metrics, attempted, failures, lines = run(workload, args.seed, args.seconds, False)
    for line in lines:
        print(line)
    for _, message in failures[:10]:
        print(f"FAILED {message}")
    failed = sum(n for n, _ in failures)
    if metrics is None:
        return 1
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
