"""fuzzycell benchmark runner.

Usage, from the root of a fuzzycell checkout:

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

The runner byte-compiles ``src/``, then runs samples of the workload one
after another (a closed loop with one client) until the next sample
would end after ``S`` seconds.  Each sample is a process of its own
(``bench/sample.py``), so set-up is paid per sample and the peak
resident memory of the sample is its own ``ru_maxrss`` from
``os.wait4``.  Every sample's outputs are checked: CLI outputs against
the sha256 digests in ``bench/digests.json``, library results against
the oracle.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``; with
``--trace 0`` the metrics are the end-to-end metrics of
``BENCHMARK.json``, with ``--trace 1`` its per-layer metrics.  The
end-to-end times are in reference seconds: wall time scaled by the
host speed that the probe of ``calibrate.py`` measured during it.

A traced run alternates untraced and traced samples.  The per-layer
numbers are medians over the traced ones.  ``trace.overhead_s`` is the
median, over adjacent untraced and traced pairs, of the traced minus the
untraced ``wall_s``: the host's speed drifts over tens of seconds, and
neighbours in time share it.
"""

from __future__ import annotations

import argparse
import compileall
import hashlib
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import threading
from pathlib import Path

from calibrate import reference_seconds
from tracer import now

BENCH = Path(__file__).resolve().parent
ROOT = Path.cwd()
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
SAMPLE_TIMEOUT_S = 120.0  # a run still ends within 180 s

# Fixed by the bundled scenarios: warmup + window of both ring_fd
# scenarios, the ensemble size of ring_fd_nasch and its 19 vehicle counts
# on 100 cells, and the queue50 fleet and step count.
FD_STEPS = 600
NASCH_RUNS = 200
NASCH_VEHICLES = sum(range(5, 100, 5))
QUEUE_VEHICLES, QUEUE_STEPS = 50, 160
RING_TOTAL = 125  # vehicles summed over the three ring_fd densities


def variants(workload: str) -> list:
    """Every input a seed can select for a CLI workload.

    The seed varies what is simulated but not how much: every variant of
    a workload does the same number of vehicle updates.
    """
    if workload == "ring_fd":
        # low, critical and jam vehicle counts on the 100-cell ring
        return [(low, crit, RING_TOTAL - low - crit)
                for low in range(5, 11) for crit in range(22, 29)]
    if workload == "open_queue":
        return [round(0.80 + 0.01 * k, 2) for k in range(20)]  # dilation alpha
    if workload == "nasch_fd":
        return [90210 + 10000 * k for k in range(16)]  # ensemble base seed
    raise ValueError(workload)


def workload_spec(workload: str, variant) -> dict:
    """Arguments and work counts of one input of a workload."""
    if workload == "ring_fd":
        densities = ",".join(f"{count / 100:g}" for count in variant)
        return {
            "argv": ["fundamental-diagram", "ring_fd_fcm", "--densities", densities],
            "key": f"densities={densities}",
            "vehicle_steps": sum(variant) * FD_STEPS,
            "ring_labels": dict(zip(map(str, variant), ("low", "critical", "jam"))),
        }
    if workload == "open_queue":
        scenario = str((BENCH / "queue50_two_outputs.yaml").relative_to(ROOT))
        return {
            "argv": ["run", scenario, "--alpha", f"{variant:g}"],
            "key": f"alpha={variant:g}",
            "vehicle_steps": QUEUE_VEHICLES * QUEUE_STEPS,
        }
    if workload == "nasch_fd":
        return {
            "argv": ["fundamental-diagram", "ring_fd_nasch", "--seed", str(variant)],
            "key": f"seed={variant}",
            "vehicle_steps": NASCH_RUNS * NASCH_VEHICLES * FD_STEPS,
            "probe_arrays": True,  # its time goes to numpy passes, not the interpreter
        }
    raise ValueError(workload)


def pick(workload: str, seed: int) -> dict:
    """The workload's input for ``seed``: the same seed, the same input."""
    if workload == "fuzzy_ops":
        return {"seed": seed, "key": f"seed={seed}"}
    choices = variants(workload)
    return workload_spec(workload, choices[random.Random(seed).randrange(len(choices))])


def run_sample(workload: str, spec: dict, traced: bool, sample_dir: Path) -> dict:
    """Run one sample in a child process and return its measurements.

    ``digests`` maps each output file to its sha256; ``ok`` is False when
    the child failed or reported an oracle mismatch.
    """
    sample_dir.mkdir(parents=True)
    child = {
        "src": str(SRC),
        "workload": workload,
        "trace": traced,
        "out_dir": str(sample_dir / "out"),
        "result": str(sample_dir / "result.json"),
        "spans": str(sample_dir / "spans.json"),
        **spec,
    }
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
    env.update(OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    env.pop("FUZZYCELL_OUT_DIR", None)
    with open(sample_dir / "stdout", "wb") as out, open(sample_dir / "stderr", "wb") as err:
        t_spawn = now()
        proc = subprocess.Popen(
            [sys.executable, str(BENCH / "sample.py"), json.dumps(child)],
            stdout=out, stderr=err, env=env, cwd=ROOT,
        )
        status, usage = _wait(proc)
    sample = {"exit_code": os.waitstatus_to_exitcode(status), "rss_mb": usage.ru_maxrss / 1024}
    result_path = sample_dir / "result.json"
    if sample["exit_code"] != 0 or not result_path.exists():
        sys.stderr.write((sample_dir / "stderr").read_text()[-2000:])
        sample["ok"] = False
        return sample
    result = json.loads(result_path.read_text())
    setup_s, wall_s = result["t_first"] - t_spawn, result["t_end"] - result["t_first"]
    if result.get("probes"):
        probes, ref_s = result["probes"], result["probe_ref_s"]
        setup_ref_s, setup_s = reference_seconds(probes, ref_s, t_spawn, result["t_first"])
        wall_ref_s, wall_s = reference_seconds(probes, ref_s, result["t_first"], result["t_end"])
        sample.update(setup_ref_s=setup_ref_s, wall_ref_s=wall_ref_s)
    sample.update(
        ok=result["exit_code"] == 0 and result["mismatches"] == 0,
        setup_s=setup_s,
        wall_s=wall_s,
        ops=result.get("ops", 1),
        vehicle_steps=result.get("vehicle_steps", spec.get("vehicle_steps")),
        numpy=result["numpy"],
        layers=result.get("layers"),
        digests=_digests(sample_dir / "out"),
    )
    return sample


def _wait(proc):
    """Reap the child with its own rusage; kill it after SAMPLE_TIMEOUT_S.

    The blocking wait keeps the runner off the CPU while the sample runs.
    """
    killer = threading.Timer(SAMPLE_TIMEOUT_S, proc.kill)
    killer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        killer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return status, usage


def _digests(out_dir: Path) -> dict:
    if not out_dir.is_dir():
        return {}
    return {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(out_dir.iterdir())
    }


def provenance(workload, seed, spec, samples) -> dict:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": next((s["numpy"] for s in samples if "numpy" in s), None),
        "git_revision": _git_revision(),
        "src_sha256": _tree_digest(SRC),
        "workload": workload,
        "seed": seed,
        "input": spec["key"],
        "samples": len(samples),
        "traced_samples": sum(s["traced"] for s in samples),
    }


def _git_revision():
    """HEAD of a git checkout in the working directory, read without git."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def _tree_digest(root: Path) -> str:
    h = hashlib.sha256()
    for p in sorted(root.rglob("*")):
        if p.is_file() and "__pycache__" not in p.parts:
            h.update(str(p.relative_to(root)).encode() + b"\0" + p.read_bytes())
    return h.hexdigest()


def _median(values):
    values = list(values)
    return statistics.median(values) if values else 0.0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("ring_fd", "open_queue", "nasch_fd", "fuzzy_ops"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "fuzzycell" / "__init__.py").is_file():
        print(f"error: no fuzzycell source tree at {SRC}; run from a checkout root",
              file=sys.stderr)
        return 2
    bench_config = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = json.loads((BENCH / "digests.json").read_text())
    if not compileall.compile_dir(SRC, quiet=1) or not compileall.compile_dir(BENCH, quiet=1):
        print("error: byte-compiling the sources failed", file=sys.stderr)
        return 2

    spec = pick(args.workload, args.seed)
    run_dir = WORK / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    samples = []
    start = now()
    try:
        while True:
            trace_this = bool(args.trace) and len(samples) % 2 == 1
            sample_dir = run_dir / f"sample{len(samples)}"
            began = now()
            sample = run_sample(args.workload, spec, trace_this, sample_dir)
            sample["traced"] = trace_this
            if args.workload != "fuzzy_ops" and sample["ok"]:
                want = expected.get(args.workload, {}).get(spec["key"])
                sample["ok"] = want is not None and sample["digests"] == want
            if trace_this and sample["ok"]:
                shutil.copy(sample_dir / "spans.json", WORK / f"{args.workload}.spans.json")
            shutil.rmtree(sample_dir)
            samples.append(sample)
            finished = now()
            enough = len(samples) >= (2 if args.trace else 1)
            if "wall_s" not in sample or (
                enough and finished - start + (finished - began) > args.seconds
            ):
                break  # a crashed sample ends the run rather than looping
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    good = [s for s in samples if s["ok"]]
    failed = len(samples) - len(good)
    timed = good or [s for s in samples if "wall_s" in s]
    if not timed:
        print("error: no sample produced timings", file=sys.stderr)
        return 1
    plain = [s for s in timed if not s["traced"]]
    with_trace = [s for s in timed if s["traced"]]

    if args.trace:
        pairs = zip(samples[::2], samples[1::2])  # (untraced, traced)
        values = {"trace.overhead_s": _median(
            t["wall_s"] - u["wall_s"] for u, t in pairs if "wall_s" in u and "wall_s" in t
        )}
        names = {name for s in with_trace for name in s["layers"]}
        for name in names:
            values[name] = _median(s["layers"].get(name, 0) for s in with_trace)
        wanted = bench_config["per_layer"]
    else:
        values = {
            "setup_s": _median(s["setup_ref_s"] for s in plain),
            "wall_ref_s": _median(s["wall_ref_s"] for s in plain),
            "vehicle_steps_per_ref_s": _median(
                s["vehicle_steps"] / s["wall_ref_s"] for s in plain
            ),
            "ops_per_ref_s": _median(s["ops"] / s["wall_ref_s"] for s in plain),
            "peak_rss_mb": _median(s["rss_mb"] for s in plain),
        }
        wanted = bench_config["end_to_end"]
    metrics = {m["name"]: {"value": values.get(m["name"], 0), "unit": m["unit"]} for m in wanted}

    for name, entry in metrics.items():
        print(f"{name:48s} {entry['value']:>16.6g} {entry['unit']}")
    if args.trace:
        print(f"{'peak_rss_mb (untraced samples)':48s} "
              f"{_median(s['rss_mb'] for s in plain):>16.6g} MB")
    else:
        for name in ("setup_s", "wall_s"):
            print(f"{name + ' (wall-clock, not scaled)':48s} "
                  f"{_median(s[name] for s in plain):>16.6g} s")
    print(f"{'failed_share':48s} {failed / len(samples):>16.6g} ({failed}/{len(samples)})")
    print("provenance " + json.dumps(provenance(args.workload, args.seed, spec, samples)))
    print(json.dumps({"correct": failed == 0, "attempted": len(samples), "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
