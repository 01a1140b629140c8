"""apeforge benchmark: seeded workloads, end-to-end metrics, a traced run.

    python3 perfbench/run.py --workload decode --seed 1 --seconds 12 --trace 0
    python3 perfbench/run.py                       # every workload, summary
    python3 perfbench/run.py --runs 10 --out DIR   # ten seeds each, into DIR
    python3 perfbench/run.py --compare OLD NEW     # two result sets
    python3 perfbench/run.py --write-spec          # regenerate BENCHMARK.json

Run from anywhere inside a checkout that has `src/apeforge`. The last line
of a workload run is one JSON object: correct, attempted, failed, metrics
(end-to-end metrics with --trace 0, per-layer metrics with --trace 1). The
exit status is non-zero when an output check fails. See README.md.
"""

import os

# One BLAS thread, pinned before numpy is first imported: on a 2-core
# machine more threads would measure the thread scheduler, not apeforge.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import gc
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import spec

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORK = ROOT / ".perfbench"


def _import_library() -> None:
    src = ROOT / "src"
    if not (src / "apeforge" / "__init__.py").is_file():
        raise SystemExit(f"error: {src}/apeforge not found; run inside an apeforge checkout")
    sys.path.insert(0, str(src))


# ------------------------------------------------------------ environment


def _git_rev() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _blas_threads(numpy) -> str:
    import ctypes
    import glob

    libs = glob.glob(os.path.join(os.path.dirname(numpy.__file__), os.pardir,
                                  "numpy.libs", "libscipy_openblas*"))
    for lib in libs:
        try:
            return str(ctypes.CDLL(lib).scipy_openblas_get_num_threads64_())
        except (OSError, AttributeError):
            continue
    return f"OPENBLAS_NUM_THREADS={os.environ['OPENBLAS_NUM_THREADS']}"


def environment(seed: int) -> dict:
    import numpy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "git_rev": _git_rev(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": _blas_threads(numpy),
        "nproc": os.cpu_count(),
        "seed": seed,
    }


# ------------------------------------------------------------- measuring


def measured_run(wl, seed: int, seconds: float, rundir: Path):
    """Untraced: passes for `seconds`, with set-up timed throughout.

    The host's slow spells last seconds, so `wall_s` and `items_per_s` are
    medians over the passes, each of which draws its own inputs. A workload
    whose passes cycle over `wl.cycle` input sets reports instead the mean
    over the sets of each set's median, which does not depend on how many
    times each set came round. The set-up is timed `SETUP_REPEATS` times
    spread evenly over the run (the first builds the state the passes use)
    and `setup_s` is the median. A pass is not begun when a typical pass
    would end after `seconds`.
    """
    from tracing import tail
    from workloads import Checks, fresh_dir

    setup_times = []

    def timed_setup(root: Path):
        root = fresh_dir(root)
        gc.collect()
        started = time.perf_counter()
        state = wl.setup(seed, WORK, root)
        setup_times.append(time.perf_counter() - started)
        return state

    started = time.perf_counter()
    state = timed_setup(rundir / "setup")
    marks = [seconds * j / (spec.SETUP_REPEATS - 1) for j in range(1, spec.SETUP_REPEATS)]

    def setups_due(until: float) -> None:
        while marks and marks[0] <= until:
            marks.pop(0)
            timed_setup(rundir / "resetup")

    cycle = getattr(wl, "cycle", 0)
    checks = Checks()
    passes, errors = [], 0
    while True:
        k = len(passes)
        out = fresh_dir(rundir / f"pass{k}")
        try:
            inputs = state["first"] if k == 0 else wl.prepare(state, k)
            gc.collect()
            passes.append(wl.run_pass(state, inputs, out))
        except Exception:
            traceback.print_exc()
            errors += 1
            break
        if k == 0:
            _run_checks(wl, state, passes[0], checks)
        else:
            shutil.rmtree(out)
        elapsed = time.perf_counter() - started
        setups_due(elapsed)
        typical = statistics.median(p.wall_s for p in passes)
        if elapsed + typical >= seconds and len(passes) >= max(spec.MIN_PASSES, cycle):
            break
    setups_due(float("inf"))

    attempted = sum(p.ops for p in passes) + errors + len(checks.results)
    failed = errors + checks.failed
    e2e, extra = {}, {}
    if passes and not errors:
        e2e = {
            "setup_s": statistics.median(setup_times),
            "wall_s": _typical([p.wall_s for p in passes], cycle),
            "items_per_s": _typical([p.items / p.item_s for p in passes], cycle),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        extra = wl.metrics(state, passes)
        samples = [s for p in passes for s in p.samples_ms]
        if samples:
            value, pct, beyond = tail(samples)
            extra[f"{wl.name}_sent_ms_tail"] = value
            extra["tail_percentile"] = pct
            extra["tail_samples_beyond"] = beyond
    extra["failed_share"] = failed / max(attempted, 1)
    extra["pass_wall_s"] = [p.wall_s for p in passes]
    extra["setup_samples_s"] = setup_times
    return attempted, failed, checks, e2e, extra


def _typical(values: list[float], cycle: int) -> float:
    """Median over passes; with inputs cycling over `cycle` sets, the mean
    over the sets of each set's median."""
    if not cycle:
        return statistics.median(values)
    return statistics.fmean(statistics.median(values[g::cycle]) for g in range(cycle))


def _run_checks(wl, state, first, checks) -> None:
    try:
        wl.check(state, first, checks)
    except Exception:
        traceback.print_exc()
        checks.add("checks_completed", False)


def traced_run(wl, seed: int, rundir: Path, results: Path):
    """One untraced pass, then the same pass traced in its own process."""
    from workloads import Checks, fresh_dir

    checks = Checks()
    state = wl.setup(seed, WORK, fresh_dir(rundir / "setup"))
    first = wl.run_pass(state, state["first"], fresh_dir(rundir / "untraced"))
    _run_checks(wl, state, first, checks)

    child_dir = fresh_dir(rundir / "traced")
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--child", wl.name,
         "--seed", str(seed), "--out", str(child_dir)],
        timeout=150,
    )
    if proc.returncode != 0:
        checks.add("traced_run_completed", False, f"exit {proc.returncode}")
        return first.ops + len(checks.results), 1 + checks.failed, checks, {}
    traced = json.loads((child_dir / "trace.json").read_text())
    shutil.move(child_dir / "spans.jsonl", results / f"{wl.name}-seed{seed}.spans.jsonl")

    same = all(
        Path(path).read_bytes() == Path(traced["outputs"][name]).read_bytes()
        for name, path in first.outputs.items()
    )
    checks.add("traced_outputs_identical", same)
    missing = [s for s in spec.EXPECTED_SPANS[wl.name] if traced["calls"].get(s, 0) == 0]
    checks.add("trace_complete", not missing, "missing " + ", ".join(missing) if missing else "")
    share = traced["accounted_share"]
    checks.add("trace_accounts_for_wall", abs(share - 1.0) <= 0.01, f"{share:.4f}")

    layers = traced["per_layer"]
    layers["trace.wall_s"] = traced["pass_wall_s"]
    layers["trace.overhead_s"] = traced["pass_wall_s"] - first.wall_s
    attempted = first.ops + len(checks.results)
    return attempted, checks.failed, checks, layers


def traced_child(name: str, seed: int, out: Path) -> None:
    """Body of the traced process: set-up and one pass under the tracer."""
    from tracing import Tracer, install, layer_metrics
    from workloads import WORKLOADS, fresh_dir

    wl = WORKLOADS[name]
    tracer = Tracer(f"{name}-{seed}-{os.getpid()}")
    install(tracer)
    started = time.perf_counter()
    with tracer.span("bench.setup"):
        state = wl.setup(seed, WORK, fresh_dir(out / "setup"), tracer)
    with tracer.span("bench.pass"):
        result = wl.run_pass(state, state["first"], fresh_dir(out / "pass"), tracer)
    wall = time.perf_counter() - started
    calls, _, self_s = tracer.totals()
    tracer.dump(out / "spans.jsonl")
    (out / "trace.json").write_text(json.dumps({
        "per_layer": layer_metrics(tracer),
        "calls": dict(calls),
        "accounted_share": sum(self_s.values()) / wall,
        "pass_wall_s": result.wall_s,
        "outputs": {k: str(v) for k, v in result.outputs.items()},
    }))


# --------------------------------------------------------------- results


UNITS = {row[0]: row[1] for row in spec.END_TO_END + spec.WORKLOAD_METRICS + spec.PER_LAYER}


def run_workload(name: str, seed: int, seconds: float, trace: int, results: Path) -> int:
    from workloads import WORKLOADS, ensure_fixture

    wl = WORKLOADS.get(name)
    if wl is None:
        raise SystemExit(f"error: unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")
    results.mkdir(parents=True, exist_ok=True)
    rundir = WORK / "runs" / f"{name}-{seed}-{trace}-{os.getpid()}"
    if name in ("decode", "tune"):
        ensure_fixture(WORK)
    try:
        if trace:
            attempted, failed, checks, metrics = traced_run(wl, seed, rundir, results)
            extra = {}
            wanted = [n for n, _, _ in spec.PER_LAYER]
        else:
            attempted, failed, checks, metrics, extra = measured_run(wl, seed, seconds, rundir)
            wanted = [n for n, *_ in spec.END_TO_END]
    finally:
        shutil.rmtree(rundir, ignore_errors=True)
    correct = failed == 0 and all(n in metrics for n in wanted)
    env = environment(seed)

    print(f"workload {name}  seed {seed}  trace {trace}")
    for key in wanted + [k for k in extra if UNITS.get(k, '')]:
        value = metrics.get(key, extra.get(key))
        note = ""
        if key.endswith("_tail") and "tail_percentile" in extra:
            note = f"  (p{extra['tail_percentile']:g}, {extra['tail_samples_beyond']} samples beyond)"
        shown = "missing" if value is None else f"{value:.6g}"
        print(f"  {key:40s} {shown} {UNITS.get(key, '')}{note}")
    for check, ok, detail in checks.results:
        print(f"  check {check:34s} {'ok' if ok else 'FAILED'} {detail}")
    print("  env " + " ".join(f"{k}={v}" for k, v in env.items()))

    record = {
        "workload": name, "seed": seed, "trace": trace, "seconds": seconds,
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": metrics, "workload_metrics": extra,
        "checks": checks.results, "env": env,
    }
    stamp = time.strftime("%Y%m%dT%H%M%S")
    (results / f"{name}-seed{seed}-trace{trace}-{stamp}-{os.getpid()}.json").write_text(
        json.dumps(record, indent=1) + "\n"
    )
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": UNITS.get(k, '')} for k in wanted if k in metrics},
    }))
    return 0 if correct else 1


def run_all(seed: int, runs: int, seconds: float, results: Path) -> int:
    """Every workload: `runs` untraced seeds and one traced run each, each in
    its own process; then the summary by metric name."""
    write_spec()
    status = 0
    for name, _ in spec.WORKLOADS:
        for s in range(seed, seed + runs):
            for trace in (0,) if s != seed else (0, 1):
                proc = subprocess.run(
                    [sys.executable, str(BENCH_DIR / "run.py"), "--workload", name,
                     "--seed", str(s), "--seconds", str(seconds), "--trace", str(trace),
                     "--out", str(results)],
                    stdout=subprocess.DEVNULL,
                )
                status |= proc.returncode != 0
    print(f"\nsummary over seeds {seed}..{seed + runs - 1} (median), results in {results}")
    summary(results)
    return 1 if status else 0


def _load(results: Path, trace: int = 0) -> dict:
    by_workload: dict = {}
    for path in sorted(results.glob("*.json")):
        record = json.loads(path.read_text())
        if record.get("trace") == trace:
            by_workload.setdefault(record["workload"], []).append(record)
    return by_workload


def _values(records, metric: str) -> list[float]:
    out = []
    for r in records:
        value = r["metrics"].get(metric, r["workload_metrics"].get(metric))
        if value is not None:
            out.append(float(value))
    return out


def _metric_rows(workload: str):
    rows = [(n, u, b, bound) for n, u, b, bound in spec.END_TO_END]
    rows += [(n, u, b, bound) for n, u, b, bound, where in spec.WORKLOAD_METRICS
             if workload in where]
    return rows


def summary(results: Path) -> None:
    for workload, records in _load(results).items():
        print(f"{workload} ({len(records)} runs; item = {spec.ITEMS[workload]})")
        for name, unit, _, _ in _metric_rows(workload):
            values = _values(records, name)
            if values:
                print(f"  {name:26s} {statistics.median(values):12.6g} {unit}")
        for workload_t, traced in _load(results, trace=1).items():
            if workload_t == workload:
                failed = sum(r["failed"] for r in traced)
                print(f"  traced runs: {len(traced)}, failed checks {failed}")


def _quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(old, new, better: str, bound: float) -> str:
    """Within bound, better, worse, or unresolved (spread wider than bound)."""
    o1, om, o3 = _quartiles(old)
    n1, nm, n3 = _quartiles(new)
    sign = 1.0 if better == "lower" else -1.0
    if om == 0:
        return "within bound" if nm == 0 else ("worse" if sign * nm > 0 else "better")
    change = sign * (nm - om) / abs(om)  # > 0 is worse
    spread = max((o3 - o1) / abs(om), (n3 - n1) / abs(nm) if nm else 0.0)
    if bound > 0 and spread > bound:
        all_better = max(sign * v for v in new) < min(sign * v for v in old)
        return "better" if all_better else "unresolved"
    if change > bound:
        return "worse"
    if -change > (o3 - o1) / abs(om):
        return "better"
    return "within bound"


def compare(old_dir: Path, new_dir: Path) -> int:
    old, new = _load(old_dir), _load(new_dir)
    print(f"{'workload':8s} {'metric':24s} {'old q1/med/q3':>30s} {'new q1/med/q3':>30s} "
          f"{'new/old':>8s}  verdict")
    worse = False
    for workload in sorted(set(old) & set(new)):
        for name, unit, better, bound in _metric_rows(workload):
            a, b = _values(old[workload], name), _values(new[workload], name)
            if not a or not b:
                continue
            qa, qb = _quartiles(a), _quartiles(b)
            ratio = f"{qb[1] / qa[1]:8.4f}" if qa[1] else "     n/a"
            v = verdict(a, b, better, bound)
            worse |= v == "worse"
            qa_text, qb_text = ("/".join(f"{x:.4g}" for x in q) for q in (qa, qb))
            print(f"{workload:8s} {name + ' (' + unit + ')':24s} {qa_text:>30s} {qb_text:>30s} "
                  f"{ratio}  {v} (bound {bound:g})")
    return 1 if worse else 0


def write_spec() -> None:
    (ROOT / "BENCHMARK.json").write_text(json.dumps(spec.benchmark_json(), indent=2) + "\n")


# ------------------------------------------------------------------ main


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=spec.RUN_SECONDS)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", type=Path, default=None, help="result directory")
    p.add_argument("--runs", type=int, default=1, help="seeds per workload (all mode)")
    p.add_argument("--compare", nargs=2, type=Path, metavar=("OLD", "NEW"))
    p.add_argument("--write-spec", action="store_true")
    p.add_argument("--build-fixture", type=Path, help=argparse.SUPPRESS)
    p.add_argument("--child", help=argparse.SUPPRESS)
    args = p.parse_args(argv)

    if args.write_spec:
        write_spec()
        return 0
    if args.compare:
        return compare(*args.compare)
    _import_library()
    if args.build_fixture:
        from workloads import build_fixture

        build_fixture(args.build_fixture)
        return 0
    if args.child:
        traced_child(args.child, args.seed, args.out)
        return 0
    results = args.out or WORK / "results"
    if args.workload:
        return run_workload(args.workload, args.seed, args.seconds, args.trace, results)
    return run_all(args.seed, args.runs, args.seconds, results)


if __name__ == "__main__":
    sys.exit(main())
