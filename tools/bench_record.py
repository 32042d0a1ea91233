"""Record benchmark runs of one or more checkouts into a BENCH_*.json file.

Usage, from anywhere:

    python3 tools/bench_record.py --checkout parent=PATH --checkout change=PATH \
        --seed 61 --out BENCH_6.json

For each repeat and each of the four workloads, the recorder runs
``bench/run.py --workload W --seed S --seconds T --trace 0`` once in
every checkout, alternating which checkout goes first from one repeat
to the next, so that both sides share the host's speed drift.  T is
``run_seconds`` from the first checkout's ``BENCHMARK.json``.  Ten
repeats give the ten alternating pairs that a claimed gain is judged
on.  Each checkout runs its own ``bench/run.py`` on its
own ``src/``.  In the same alternating order, every repeat also times
each checkout's full 19-density ``fundamental-diagram`` sweep of
``ring_fd_fcm`` and ``ring_fd_nasch`` (``python -m fuzzycell``, wall
clock from spawn to exit, not scaled by the benchmark's speed probe) and
its peak resident memory (the sweep's own ``ru_maxrss``), and keeps the
sha256 of its CSV.  It then times the checkout's tier-1 suite
once.

The output holds the machine (CPU model, cores, Python, numpy), the
settings, and per checkout its git revision and ``src/`` sha256 (from
the runner's provenance line), the tier-1 wall time and summary line,
per workload and end-to-end metric the median, min, quartiles, IQR
and every value, plus the samples attempted and failed, and per sweep
the same summary of its wall time and of its peak resident memory, with
the distinct CSV digests.  For each checkout after the first, it also
holds the per-pair ratio of that checkout to the first in every repeat,
summarized the same way, for each end-to-end metric of
``BENCHMARK.json`` on each workload and for each sweep's wall time and
peak resident memory.  Only the standard library is used.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

WORKLOADS = ("ring_fd", "open_queue", "nasch_fd", "fuzzy_ops")
SWEEPS = ("ring_fd_fcm", "ring_fd_nasch")  # bundled scenarios, every density
REPEATS = 10
TIER1 = ["-m", "pytest", "-q", "--continue-on-collection-errors", "-p", "no:cacheprovider"]


def run_bench(root: Path, workload: str, seed: int, seconds: float) -> dict:
    """One ``bench/run.py`` run in ``root``: its provenance and result lines."""
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=root, capture_output=True, text=True, check=False,
    )
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{root}: bench/run.py --workload {workload} failed:\n{proc.stderr}")
    provenance = next(
        json.loads(line.split(" ", 1)[1]) for line in lines if line.startswith("provenance ")
    )
    return {"provenance": provenance, "result": json.loads(lines[-1])}


def run_sweep(root: Path, scenario: str) -> dict:
    """Wall time and peak resident memory of the checkout's
    ``fundamental-diagram SCENARIO`` and the sha256 of the CSV it writes.

    The memory is the sweep process's own ``ru_maxrss`` from ``os.wait4``,
    as ``bench/run.py`` reads it for a sample."""
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    with tempfile.TemporaryDirectory() as out, tempfile.TemporaryFile() as err:
        started = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, "-m", "fuzzycell", "fundamental-diagram", scenario, "--out-dir", out],
            cwd=root, env=env, stdout=subprocess.DEVNULL, stderr=err,
        )
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - started
        proc.returncode = os.waitstatus_to_exitcode(status)
        if proc.returncode != 0:
            err.seek(0)
            raise RuntimeError(f"{root}: fundamental-diagram {scenario} failed:\n"
                               f"{err.read().decode(errors='replace')}")
        digest = hashlib.sha256((Path(out) / f"{scenario}.csv").read_bytes()).hexdigest()
    return {"wall_s": wall, "peak_rss_mb": usage.ru_maxrss / 1024, "sha256": digest}


def run_tier1(root: Path) -> dict:
    """Wall time and last output line of the checkout's tier-1 suite."""
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    started = time.perf_counter()
    proc = subprocess.run([sys.executable, *TIER1], cwd=root, env=env,
                          capture_output=True, text=True, check=False)
    wall = time.perf_counter() - started
    lines = proc.stdout.strip().splitlines()
    return {"wall_s": round(wall, 3), "exit_code": proc.returncode,
            "summary": lines[-1] if lines else ""}


def summarize(values: list[float]) -> dict:
    """Median, min, quartiles and IQR of a metric's values over the repeats."""
    if len(values) > 1:
        q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    else:
        q1 = q3 = values[0]
    return {"median": statistics.median(values), "min": min(values), "q1": q1, "q3": q3,
            "iqr": q3 - q1, "values": values}


def ratios(values: list[float], base: list[float]) -> dict:
    """Summary of the per-repeat ratios of one checkout's values to the base's."""
    return summarize([v / b for v, b in zip(values, base, strict=True)])


def machine() -> dict:
    cpu = None
    cpuinfo = Path("/proc/cpuinfo")
    if cpuinfo.is_file():
        cpu = next((line.split(":", 1)[1].strip() for line in cpuinfo.read_text().splitlines()
                    if line.startswith("model name")), None)
    return {"platform": platform.platform(), "machine": platform.machine(), "cpu": cpu,
            "nproc": os.cpu_count(), "python": platform.python_version()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--checkout", action="append", required=True, metavar="LABEL=PATH",
                        help="a labelled checkout root holding bench/ and src/; repeatable")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)

    checkouts = {}
    for spec in args.checkout:
        label, sep, path = spec.partition("=")
        if not sep or not label:
            parser.error(f"--checkout {spec!r}: expected LABEL=PATH")
        checkouts[label] = Path(path).resolve()
    first = next(iter(checkouts.values()))
    benchmark = json.loads((first / "BENCHMARK.json").read_text())
    seconds = benchmark["run_seconds"]

    runs = {label: {w: [] for w in WORKLOADS} for label in checkouts}
    sweeps = {label: {sc: [] for sc in SWEEPS} for label in checkouts}
    for repeat in range(REPEATS):
        order = list(checkouts.items())
        if repeat % 2:
            order.reverse()
        for workload in WORKLOADS:
            for label, root in order:
                runs[label][workload].append(run_bench(root, workload, args.seed, seconds))
                metrics = runs[label][workload][-1]["result"]["metrics"]
                print(f"repeat {repeat} {workload:10s} {label:8s} "
                      f"wall_ref_s {metrics['wall_ref_s']['value']:.4f}", flush=True)
        for scenario in SWEEPS:
            for label, root in order:
                sweeps[label][scenario].append(run_sweep(root, scenario))
                done = sweeps[label][scenario][-1]
                print(f"repeat {repeat} {scenario:13s} {label:8s} wall_s {done['wall_s']:.3f} "
                      f"peak_rss_mb {done['peak_rss_mb']:.1f}", flush=True)

    record = {"machine": machine(),
              "settings": {"seed": args.seed, "repeats": REPEATS, "seconds": seconds,
                           "command": "bench/run.py --trace 0"},
              "checkouts": {}}
    for label, root in checkouts.items():
        entry = {"tier1": run_tier1(root), "workloads": {}}
        for workload, done in runs[label].items():
            provenance = done[0]["provenance"]
            entry.setdefault("git_revision", provenance["git_revision"])
            entry.setdefault("src_sha256", provenance["src_sha256"])
            record["machine"].setdefault("numpy", provenance["numpy"])
            results = [d["result"] for d in done]
            names = results[0]["metrics"]
            entry["workloads"][workload] = {
                "input": provenance["input"],
                "attempted": sum(r["attempted"] for r in results),
                "failed": sum(r["failed"] for r in results),
                "metrics": {
                    name: {"unit": names[name]["unit"],
                           **summarize([r["metrics"][name]["value"] for r in results])}
                    for name in names
                },
            }
        entry["sweeps"] = {
            scenario: {"wall_s": {"unit": "s", **summarize([d["wall_s"] for d in done])},
                       "peak_rss_mb": {"unit": "MB",
                                       **summarize([d["peak_rss_mb"] for d in done])},
                       "sha256": sorted({d["sha256"] for d in done})}
            for scenario, done in sweeps[label].items()
        }
        record["checkouts"][label] = entry

    def metric(label, workload, name):
        return [d["result"]["metrics"][name]["value"] for d in runs[label][workload]]

    def sweep(label, scenario, name):
        return [d[name] for d in sweeps[label][scenario]]

    base, *others = checkouts
    end_to_end = [m["name"] for m in benchmark["end_to_end"]]
    record["ratios"] = {
        label: {
            "base": base,
            "workloads": {
                w: {name: ratios(metric(label, w, name), metric(base, w, name))
                    for name in end_to_end}
                for w in WORKLOADS
            },
            "sweeps": {
                sc: {name: ratios(sweep(label, sc, name), sweep(base, sc, name))
                     for name in ("wall_s", "peak_rss_mb")}
                for sc in SWEEPS
            },
        }
        for label in others
    }
    Path(args.out).write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
