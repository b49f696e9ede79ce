"""Run one benchmark workload and print its metrics as one JSON line.

    python3 perfbench/run.py --workload mixing-cell --seed 1 --seconds 40 --trace 0

With ``--trace 0`` the run repeats whole rounds of the workload for about
``--seconds`` seconds and prints the end-to-end metrics. Every round does
the same work, so the times and rates are those of the fastest round: the
round least slowed by other load on a shared host. With ``--trace 1`` it
traces set-up, then runs one round untraced, one traced and one more
untraced, checks that all three gave bit-identical results, and prints the
per-layer metrics. Either way the outputs are checked after the timed part.
A run record (and, when tracing, the spans) is written under perfbench/out/.
"""

import time

T_START = time.perf_counter()

import os  # noqa: E402

# pin the numeric libraries to one thread before numpy is imported
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ.pop("GENROBUST_THREADS", None)

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def _git_revision() -> str:
    """HEAD of the checkout, read from .git without starting a process."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _environment() -> dict:
    import numpy as np

    try:
        deps = np.show_config(mode="dicts").get("Build Dependencies", {})
        blas = {k: deps.get(k, {}).get("name", "") + " " + deps.get(k, {}).get("version", "")
                for k in ("blas", "lapack")}
    except Exception as exc:  # numpy without the dict form of show_config
        blas = {"error": repr(exc)}
    return {
        "git_revision": _git_revision(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": blas,
        "cpu_count": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "machine": platform.machine(),
        "threads_env": {v: os.environ.get(v) for v in
                        ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "GENROBUST_THREADS")},
    }


def _median(values):
    return statistics.median(values) if values else float("nan")


def _end_to_end(rounds, setup_s: float, peak_rss_mb: float) -> dict:
    return {
        "setup_s": {"value": setup_s, "unit": "s"},
        "run_s": {"value": min(r.run_s for r in rounds), "unit": "s"},
        "train_examples_per_s": {
            "value": max((r.train_examples / r.train_s for r in rounds if r.train_s > 0), default=float("nan")),
            "unit": "examples/s",
        },
        "eval_examples_per_s": {
            "value": max((r.eval_examples / r.eval_s for r in rounds if r.eval_s > 0), default=float("nan")),
            "unit": "examples/s",
        },
        "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
    }


def main(argv=None) -> int:
    args = _parse(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "genrobust", "__init__.py")):
        print(f"error: no genrobust sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

    # everything the program prints goes to stderr; stdout carries the result
    real_stdout = sys.stdout
    sys.stdout = sys.stderr
    import checks
    import tracer as tracing
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload](args.seed)
    os.makedirs(OUT, exist_ok=True)
    work = os.path.join(OUT, f"work-{os.getpid()}")
    os.makedirs(work)
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "environment": _environment()}
    tr = None
    try:
        if args.trace:
            tr = tracing.Tracer()
            tracing.install_layers(tr)
        workload.setup(work)
        setup_s = time.perf_counter() - T_START
        if args.trace:
            tr.uninstall()
            # the first round runs cold; the overhead compares the traced
            # round with the warm untraced round after it
            cold = _timed_round(workload, os.path.join(work, "round-cold"), None)
            tracing.install_layers(tr)
            traced = _timed_round(workload, os.path.join(work, "round-traced"), tr)
            tr.uninstall()
            warm = _timed_round(workload, os.path.join(work, "round-warm"), None)
            rounds = [cold, traced, warm]
        else:
            rounds = []
            t0 = time.perf_counter()
            while True:
                if rounds:  # only the last round's outputs are checked; keep no more
                    rounds[-1].captured.clear()
                rounds.append(_timed_round(workload, os.path.join(work, f"round-{len(rounds)}"), None))
                elapsed = time.perf_counter() - t0
                if elapsed + _median([r.run_s for r in rounds]) > args.seconds:
                    break
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

        t_check = time.perf_counter()
        failures = []
        for i, rnd in enumerate(rounds):
            if rnd.failed:
                failures.append(f"round {i}: {rnd.error}")
        if not failures:
            try:
                record["check_figures"] = workload.check(rounds[-1])
                for rnd in rounds[:-1]:
                    checks.check_bit_identical(rounds[-1].fingerprint, rnd.fingerprint)
                if args.trace:
                    checks.check_layers_used(
                        tracing.call_counts(tr), workload.required_layers, workload.unused_layers)
            except checks.CheckFailed as exc:
                failures.append(str(exc))

        record["check_s"] = time.perf_counter() - t_check
        attempted = sum(r.attempted for r in rounds)
        failed = sum(r.failed for r in rounds)
        if args.trace:
            metrics = {name: {"value": v, "unit": u} for name, (v, u) in tracing.layer_metrics(tr).items()}
            metrics["trace.overhead_s"] = {"value": traced.run_s - warm.run_s, "unit": "s"}
            record["counts"] = tracing.call_counts(tr)
            _write_spans(tr, os.path.join(OUT, f"spans-{args.workload}-seed{args.seed}.jsonl"))
        else:
            metrics = _end_to_end(rounds, setup_s, peak_rss_mb)
        record.update(
            setup_s=setup_s, peak_rss_mb=peak_rss_mb, failures=failures,
            rounds=[{"run_s": r.run_s, "train_s": r.train_s, "train_examples": r.train_examples,
                     "eval_s": r.eval_s, "eval_examples": r.eval_examples,
                     "attempted": r.attempted, "failed": r.failed, "accuracy": r.accuracy,
                     "fingerprint": r.fingerprint}
                    for r in rounds],
            metrics=metrics,
        )
    finally:
        if tr is not None:
            tr.uninstall()
        shutil.rmtree(work, ignore_errors=True)

    with open(os.path.join(OUT, f"run-{args.workload}-seed{args.seed}-trace{args.trace}.json"),
              "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    for f in failures:
        print(f"check failed: {f}", file=sys.stderr)
    result = {"correct": not failures, "attempted": attempted, "failed": failed, "metrics": metrics}
    print(json.dumps(result), file=real_stdout)
    return 0 if not failures else 1


def _timed_round(workload, out_dir: str, tr):
    t0 = time.perf_counter()
    rnd = workload.run_round(out_dir, tr)
    rnd.run_s = time.perf_counter() - t0
    print(f"{workload.name}: round {rnd.run_s:.3f}s "
          f"(train {rnd.train_s:.3f}s, eval {rnd.eval_s:.3f}s)", file=sys.stderr)
    return rnd


def _write_spans(tr, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for name, start, end, parent, _ in tr.spans:
            fh.write(json.dumps([name, round(start - T_START, 9), round(end - T_START, 9), parent]) + "\n")


if __name__ == "__main__":
    try:
        sys.exit(main())
    except Exception:
        traceback.print_exc()
        sys.exit(1)
