"""fivevertex benchmark: seeded closed-loop workloads with checked outputs.

    python3 perfbench/run.py --workload tasep-cli --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; the package is imported from ``src/``.
One client runs the workload's items one after another in this process.
``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs the same
items once untraced and once with every layer wrapped (see tracing.py) and
prints the per-layer metrics and the tracing overhead.  The last line of
stdout is the JSON result; records of each run go to ``perfbench/out/``.
"""

import os
import sys
import time

T_START = time.perf_counter()
# Pin BLAS/OpenMP to one thread before numpy is imported; keep the solver serial.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ.pop("BETHE_GROTH_THREADS", None)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
from pathlib import Path  # noqa: E402
from random import Random  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
WORKLOAD_NAMES = ("tasep-cli", "green-sweep", "exact-identities", "verify-desk")
SETUP_SAMPLES = 3
DIGITS_FLOOR = 1e-16  # err_digits of an exact lane, which has no float deviation
DEVIATION_CAP = 1e6  # an infinite or NaN deviation reads as this, so err_digits stays finite


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true",
                   help="build the inputs, print the set-up seconds and exit")
    return p.parse_args(argv)


def source_digest(directory: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(directory.glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def git_commit():
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref_file = ROOT / ".git" / ref[5:]
    if ref_file.is_file():
        return ref_file.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    for line in packed.read_text().splitlines() if packed.is_file() else ():
        if line.endswith(" " + ref[5:]):
            return line.split()[0]
    return None


def environment() -> dict:
    import numpy
    import scipy
    import sympy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "sympy": sympy.__version__,
            "nproc": os.cpu_count(), "cpu": cpu, "git_commit": git_commit(),
            "source_sha256": source_digest(SRC / "fivevertex"),
            "benchmark_sha256": source_digest(HERE),
            "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
            "BETHE_GROTH_THREADS": os.environ.get("BETHE_GROTH_THREADS", "unset")}


def run_pass(items, tracer=None) -> tuple:
    """Run every item in order (closed loop, one client); check outside the clock.

    An item whose input comes from an earlier item that failed is not attempted.
    Every pass starts with sympy's expression cache empty, as a fresh process does.
    The untraced pass probes the host speed while it runs (see calibration.py),
    and item seconds exclude the probes.  Returns the records and the HostSpeed.
    """
    from calibration import HostSpeed
    from workloads import Mismatch, is_known_failure

    if "sympy" in sys.modules:
        from sympy.core.cache import clear_cache

        clear_cache()
    records, host = [], HostSpeed()
    with host if tracer is None else contextlib.nullcontext():
        for item in items:
            if item.ready is not None and not item.ready():
                continue
            call = tracer.timed(item.call, "bench", "bench.item") if tracer else item.call
            spent, t0 = host.spent, time.perf_counter()
            try:
                out, exc = call(), None
            except Exception as e:  # every failure is recorded and counted, none is fatal
                out, exc = None, e
            seconds = time.perf_counter() - t0 - (host.spent - spent)
            rec = {"label": item.label, "seconds": seconds, "deviation": None,
                   "failure": None}
            if exc is None:
                try:
                    material, rec["deviation"] = item.check(out)
                except Mismatch as m:
                    material, rec["deviation"] = f"Mismatch: {m}", m.deviation
                    rec["failure"] = {"class": "Mismatch", "message": str(m)[:160],
                                      "known": False}
            else:
                head = str(exc).splitlines()[0][:160] if str(exc) else ""
                material = f"{type(exc).__name__}: {exc}"
                rec["failure"] = {"class": type(exc).__name__, "message": head,
                                  "known": is_known_failure(item, exc)}
            rec["digest"] = hashlib.sha256(material.encode()).hexdigest()
            records.append(rec)
    return records, host


def stored(path: Path, value):
    """The value an earlier run stored at ``path``; the first run stores its own."""
    if path.is_file():
        return json.loads(path.read_text())
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(value))
    return value


def setup_samples(args, own: float) -> list:
    """Seconds of this process's set-up and of fresh child processes'."""
    samples = [own]
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--setup-only"]
    for _ in range(SETUP_SAMPLES - 1):
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=60,
                              check=True)
        samples.append(float(done.stdout.strip().splitlines()[-1]))
    return samples


def quantile(values, q):
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1] \
        if len(values) > 1 else values[0]


def latency(records) -> dict:
    """Per-item latency percentiles, reported next to the metrics with their sample count."""
    lat_ms = sorted(r["seconds"] * 1000 for r in records)
    return {"n": len(lat_ms), "p50_ms": statistics.median(lat_ms),
            "p90_ms": quantile(lat_ms, 90),
            "beyond_p90": len(lat_ms) - math.ceil(0.9 * len(lat_ms))}


def end_to_end(records, failed, host, setups) -> dict:
    """``failed`` counts the failed items; ``deviation`` covers failed float items too.

    ``wall_s`` is scaled to the reference host speed (see calibration.py).
    """
    devs = [min(d, DEVIATION_CAP) if d == d else DEVIATION_CAP
            for d in (r["deviation"] for r in records) if d is not None]
    worst = max(devs, default=0.0)
    return {
        "wall_s": (sum(r["seconds"] for r in records) * host.scale(), "s"),
        "ok_frac": (1 - failed / len(records), "frac"),
        "err_digits": (-math.log10(max(worst, DIGITS_FLOOR)), "digits"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def main(argv) -> int:
    args = parse_args(argv)
    if not (SRC / "fivevertex" / "__init__.py").is_file():
        print(f"error: no fivevertex package under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import fivevertex

    if Path(fivevertex.__file__).resolve().parent != SRC / "fivevertex":
        print(f"error: fivevertex imported from {fivevertex.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    from reference import References
    from workloads import ROUND_SECONDS, WORKLOADS

    rounds = max(1, round(args.seconds / ROUND_SECONDS))
    items = WORKLOADS[args.workload](Random(args.seed), rounds, References())
    setup_own = time.perf_counter() - T_START
    if args.setup_only:
        print(setup_own)
        return 0

    env = environment()
    # records of one program and benchmark version, seed and length are comparable
    key = (f"{args.workload}-seed{args.seed}-sec{args.seconds}-"
           f"{env['source_sha256'][:10]}-{env['benchmark_sha256'][:10]}")
    problems = []
    records, host = run_pass(items)
    digests = [r["digest"] for r in records]
    earlier = stored(OUT / "digests" / f"{key}.json", digests)
    if earlier != digests:
        problems.append("output digests differ from an earlier run of the same seed")

    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
        traced, _ = run_pass(items, tracer)
        mismatched = sum(a != r["digest"] for a, r in zip(digests, traced))
        if mismatched:
            problems.append(f"{mismatched} item digests differ between the untraced and "
                            "traced passes")
        counts = tracer.call_counts()
        if stored(OUT / "trace" / f"{key}-calls.json", counts) != counts:
            problems.append("traced call counts differ from an earlier traced run")
        tracer.write(OUT / "trace" / f"{key}-spans.json")
        untraced_wall = sum(r["seconds"] for r in records)
        traced_wall = sum(r["seconds"] for r in traced)
        layer = tracer.metrics()
        criterion_s = {r["label"].split("_")[1]: r["seconds"] for r in records
                       if r["label"].startswith("criterion_")}
        for k in range(1, 11):
            layer[f"acceptance.criterion_{k}.s"] = criterion_s.get(str(k), 0.0)
        layer["trace.untraced_wall_s"] = untraced_wall
        layer["trace.traced_wall_s"] = traced_wall
        layer["trace.overhead_s"] = traced_wall - untraced_wall
        metrics = {name: (value, "s" if name.endswith(("_s", ".s")) else
                          "frac" if name.endswith("_frac") else "count")
                   for name, value in layer.items()}
        final = traced
    else:
        final = records

    failures = [dict(r["failure"], label=r["label"]) for r in final if r["failure"]]
    unknown = [f for f in failures if not f["known"]]
    if unknown:
        problems.append(f"{len(unknown)} failures outside the documented known failures")
    # an item whose digest differs from the untraced pass or an earlier run is a failure
    failed = sum(r["failure"] is not None or r["digest"] != a or r["digest"] != b
                 for r, a, b in zip(final, digests, earlier)) + abs(len(earlier) - len(final))
    if not args.trace:
        setups = setup_samples(args, setup_own)
        metrics = end_to_end(records, failed, host, setups)
        print(f"# host scale {host.scale():.4f} from {len(host.samples)} probes; unscaled "
              f"wall_s = {sum(r['seconds'] for r in records):.6g} s; setup_s samples = "
              f"{[round(x, 4) for x in setups]}")
    result = {"correct": not problems, "attempted": len(final), "failed": failed,
              "metrics": {name: {"value": value, "unit": unit}
                          for name, (value, unit) in metrics.items()}}

    lat = latency(records)
    print(f"# {args.workload} seed={args.seed} rounds={rounds} items={len(final)} "
          f"trace={args.trace}")
    print("# env " + json.dumps(env))
    if len(items) > len(final):
        print(f"# not attempted: {len(items) - len(final)} items whose input came from a "
              "failed item")
    print(f"# unscaled item latency: item_p50_ms = {lat['p50_ms']:.6g} ms, item_p90_ms = "
          f"{lat['p90_ms']:.6g} ms, n = {lat['n']} ({lat['beyond_p90']} beyond the p90)")
    for f in failures:
        print(f"# failed{'' if f['known'] else ' (UNEXPECTED)'}: {f['label']}: "
              f"{f['class']}: {f['message']}")
    for p in problems:
        print(f"# PROBLEM: {p}")
    for name, (value, unit) in metrics.items():
        print(f"# {name} = {value:.6g} {unit}")
    record_path = OUT / "results" / f"{key}-trace{args.trace}.json"
    record_path.parent.mkdir(parents=True, exist_ok=True)
    record_path.write_text(json.dumps({"env": env, "result": result, "latency": lat,
                                       "probes": host.samples,
                                       "setups": setups if not args.trace else None,
                                       "failures": failures, "problems": problems,
                                       "items": [{k: r[k] for k in ("label", "seconds",
                                                                    "deviation", "digest")}
                                                 for r in final]}, indent=1))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
