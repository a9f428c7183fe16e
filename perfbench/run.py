"""gridcrit benchmark: closed-loop CLI workloads with correctness gates.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from ``src/``.
``--trace 0`` measures the end-to-end metrics with tracing off. ``--trace 1``
runs one untraced and one traced command and reports the per-layer split (see
``perfbench/README.md``). The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from harness import probe, run_cli, timed_cli
from tracing import Tracer, per_layer_metrics
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
HARNESS = HERE / "harness.py"

SETUP_REPEATS = 5
MAX_COMMANDS = 200       # cap on the closed loop when commands fail at once
CHILD_TIMEOUT_S = 120
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
END_TO_END = {
    "setup_s": "s",
    "scenarios_per_ref": "1/ref",
    "cpu_ref_per_kscenario": "ref",
    "peak_rss_mb": "MB",
}


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--tiny", action="store_true",
                    help="smoke-test sizes and a single set-up sample")
    return ap.parse_args(argv)


# -- machine facts ---------------------------------------------------------

def _loaded_blas() -> dict:
    """Thread count of every OpenBLAS this process has loaded (numpy's, scipy's)."""
    found = {}
    try:
        maps = Path("/proc/self/maps").read_text()
    except OSError:
        return found
    for line in maps.splitlines():
        fields = line.split()
        if len(fields) < 6:
            continue
        path = fields[-1]
        if "openblas" not in Path(path).name.lower() or Path(path).name in found:
            continue
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            try:
                fn = getattr(lib, sym)
            except AttributeError:
                continue
            fn.restype = ctypes.c_int
            found[Path(path).name] = fn()
            break
    return found


def machine_facts() -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (AttributeError, KeyError, TypeError, ValueError):
        blas = "unknown"
    model = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads": _loaded_blas(),
        "blas_env": {k: os.environ.get(k, "unset") for k in BLAS_ENV},
    }


def host_steal_s() -> float:
    """CPU time the hypervisor took from this machine's vCPUs so far (0 if unknown)."""
    try:
        fields = Path("/proc/stat").read_text().split("\n", 1)[0].split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return 0.0


# -- child processes -------------------------------------------------------

def child_env(**extra) -> dict:
    env = dict(os.environ, **extra)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def measure_setup(config_path: Path, repeats: int) -> list[float]:
    """Seconds from spawning a fresh interpreter to its "ready" line."""
    samples = []
    for _ in range(repeats):
        start = time.clock_gettime(time.CLOCK_MONOTONIC)
        proc = subprocess.run([sys.executable, str(HARNESS), "setup", str(config_path)],
                              capture_output=True, text=True, env=child_env(),
                              cwd=ROOT, timeout=CHILD_TIMEOUT_S)
        words = proc.stdout.split()
        if proc.returncode != 0 or words[:1] != ["ready"]:
            raise RuntimeError(f"set-up child failed: {proc.stderr.strip()}")
        samples.append(float(words[1]) - start)
    return samples


def single_thread_blas(argv: list[str]) -> dict:
    """The same command in a fresh interpreter with BLAS limited to one thread."""
    proc = subprocess.run([sys.executable, str(HARNESS), "command", *argv],
                          capture_output=True, text=True, cwd=ROOT,
                          env=child_env(**{k: "1" for k in BLAS_ENV}),
                          timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        return {"exit": proc.returncode, "wall_s": 0.0, "cpu_s": 0.0}
    return json.loads(proc.stdout.splitlines()[-1])


# -- commands and gates ----------------------------------------------------

class PoolCapture:
    """A pass-through on ``gridcrit.cli.run_search`` that keeps its last result.

    A search's gate needs the final scenario pool, which no artifact contains.
    """

    def __init__(self):
        import gridcrit.cli as cli

        self.cli, self.last = cli, None
        self.original = cli.run_search

        def run_search(*args, **kwargs):
            self.last = self.original(*args, **kwargs)
            return self.last

        cli.run_search = run_search

    def take(self):
        result, self.last = self.last, None
        return result

    def close(self) -> None:
        self.cli.run_search = self.original


def closed_loop(workload, configs: list[Path], work: Path, seconds: float,
                capture: PoolCapture) -> list[dict]:
    """One command at a time, cycling through the run's inputs, until the next
    would end after ``seconds``; every input runs at least once.

    The workload's host probe runs before the first command and after each
    one; a command's ``ref_wall_s`` and ``ref_cpu_s`` are the means of the
    probes around it."""
    samples = []
    start = time.perf_counter()
    before = probe(workload.probe, workload.probe_passes)
    while len(samples) < MAX_COMMANDS:
        i = len(samples) % len(configs)
        outdir = work / f"cmd{len(samples)}"
        sample = timed_cli(workload.argv(configs[i], outdir))
        after = probe(workload.probe, workload.probe_passes)
        sample.update(input=i, outdir=outdir, result=capture.take(),
                      **{f"ref_{k}": (before[k] + after[k]) / 2 for k in before})
        samples.append(sample)
        before = after
        elapsed = time.perf_counter() - start
        step = statistics.median(s["wall_s"] for s in samples) + (
            workload.probe_passes * statistics.median(s["ref_wall_s"] for s in samples))
        if len(samples) >= len(configs) and elapsed + step > seconds:
            break
    return samples


def same_artifacts(a: Path, b: Path) -> bool:
    names = sorted(p.name for p in a.iterdir())
    if names != sorted(p.name for p in b.iterdir()):
        return False
    return all((a / n).read_bytes() == (b / n).read_bytes() for n in names)


def gate_command(workload, outdir: Path, search_result) -> tuple[list[str], dict, dict]:
    """Gate one command's artifacts; returns (problems, quality, result doc)."""
    # Imported here: gates imports gridcrit, which main() puts on sys.path.
    from gates import gate_oracle, gate_search
    from gridcrit import load_feeder

    try:
        doc = json.loads((outdir / "result.json").read_text())
        config = json.loads((outdir / "manifest.json").read_text())["config"]
        feeder = load_feeder(workload.feeder_path)
        if workload.command == "search":
            if search_result is None:
                return ["the search returned no scenario pool"], {}, doc
            pool = [tuple(s.bits) for s in search_result.scenarios]
            gate, quality = gate_search(doc, pool, feeder, config,
                                        workload.exhaustive_oracle)
        else:
            gate, quality = gate_oracle(doc, feeder, config, workload.count)
    except (OSError, KeyError, ValueError, TypeError, IndexError) as exc:
        return [f"unreadable artifacts: {exc!r}"], {}, {}
    return gate.problems, quality, doc


def gate_run(workload, samples: list[dict]) -> tuple[int, list[str], dict, dict]:
    """Gate the first successful command of each input; its repeats must write
    byte-identical artifacts. Returns (failed commands, problems, quality per
    gated input, search-space size per input that wrote a result)."""
    failed, problems, quality, sizes = 0, [], {}, {}
    for i in sorted({s["input"] for s in samples}):
        mine = [s for s in samples if s["input"] == i]
        ok = [s for s in mine if s["exit"] == 0]
        failed += len(mine) - len(ok)
        if not ok:
            problems.append(f"input {i}: exit {mine[0]['exit']}: {mine[0]['output'][-300:]}")
            continue
        issues, quality[i], doc = gate_command(workload, ok[0]["outdir"], ok[0]["result"])
        if isinstance(doc.get("search_space_size"), int):
            sizes[i] = doc["search_space_size"]
        if issues:
            problems += [f"input {i}: {p}" for p in issues]
            failed += len(ok)
            continue
        failed += sum(not same_artifacts(ok[0]["outdir"], s["outdir"]) for s in ok[1:])
    return failed, problems, quality, sizes


# -- the two modes ---------------------------------------------------------

def warm_up(workload, seed: int, work: Path) -> None:
    """One untimed small command (a single search step) so lazy imports and
    caches are filled before timing."""
    tiny = workload.tiny(max_steps=1)
    cfg = tiny.write_config(seed, work / "warmup-config.json")
    run_cli(tiny.argv(cfg, work / "warmup"))


def _mean_of_inputs(samples, sizes, per_command) -> float:
    """Mean over inputs of the median over that input's commands.

    The median damps machine noise across repeats of one input; the mean
    across inputs, unlike a median, averages the seed-to-seed spread of a
    search's cost, which is bimodal (short and long searches).
    """
    return statistics.fmean(
        statistics.median(per_command(s, size) for s in samples
                          if s["input"] == i and s["exit"] == 0)
        for i, size in sizes.items())


def untraced_run(workload, args, configs: list[Path], work: Path) -> dict:
    setup = measure_setup(configs[0], 1 if args.tiny else SETUP_REPEATS)
    warm_up(workload, args.seed, work)
    capture = PoolCapture()
    steal = host_steal_s()
    try:
        samples = closed_loop(workload, configs, work, args.seconds, capture)
    finally:
        capture.close()
    steal = host_steal_s() - steal
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    failed, problems, quality, sizes = gate_run(workload, samples)

    metrics = {"setup_s": statistics.median(setup), "peak_rss_mb": peak_rss_mb}
    in_seconds = {}
    if sizes:
        # Gated: times in units of the probe passes around each command,
        # which the host slows by the same factor as the program.
        metrics["scenarios_per_ref"] = _mean_of_inputs(
            samples, sizes, lambda s, size: size * s["ref_wall_s"] / s["wall_s"])
        metrics["cpu_ref_per_kscenario"] = _mean_of_inputs(
            samples, sizes, lambda s, size: 1000.0 * s["cpu_s"] / s["ref_cpu_s"] / size)
        # Reported only: the same in seconds, which follow the host's load.
        in_seconds = {key: _mean_of_inputs(samples, sizes, lambda s, _: s[key])
                      for key in ("wall_s", "cpu_s", "ref_wall_s")}
        in_seconds["scenarios_per_s"] = _mean_of_inputs(
            samples, sizes, lambda s, size: size / s["wall_s"])
        in_seconds["cpu_ms_per_scenario"] = _mean_of_inputs(
            samples, sizes, lambda s, size: 1000.0 * s["cpu_s"] / size)
    seeds = workload.program_seeds(args.seed)
    report = {
        "commands": [{k: s[k] for k in ("input", "wall_s", "cpu_s", "ref_wall_s",
                                        "ref_cpu_s", "exit")}
                     for s in samples],
        "setup_samples_s": setup,
        "host_steal_s": steal,
        "quality": {"in_seconds": in_seconds,
                    **{f"program_seed_{seeds[i]}": q for i, q in quality.items()}},
        "problems": problems,
    }
    return {"attempted": len(samples), "failed": failed,
            "metrics": {k: (metrics[k], END_TO_END[k]) for k in END_TO_END if k in metrics},
            "report": report}


def traced_run(workload, args, configs: list[Path], work: Path) -> dict:
    """Untraced, traced and single-thread-BLAS runs of the run's first input."""
    config_path = configs[0]
    warm_up(workload, args.seed, work)
    capture = PoolCapture()
    try:
        plain = timed_cli(workload.argv(config_path, work / "untraced"))
    finally:
        capture.close()

    run_id = f"{workload.name}-seed{args.seed}"
    root = f"cli.{workload.command}"
    tracer = Tracer(run_id)
    tracer.install()
    try:
        traced_exit, _ = tracer.call(root, run_cli, (workload.argv(config_path, work / "traced"),), {})
    finally:
        tracer.uninstall()
    tracer.write(work / "spans.jsonl")
    blas1 = single_thread_blas(workload.argv(config_path, work / "blas1"))

    problems, quality = [], {}
    if plain["exit"] != 0:
        problems.append(f"untraced command exited {plain['exit']}")
    else:
        problems, quality, _ = gate_command(workload, work / "untraced", capture.take())
    failed = int(bool(problems))
    if traced_exit != 0:
        problems.append(f"traced command exited {traced_exit}")
        failed += 1
    elif plain["exit"] == 0 and not same_artifacts(work / "untraced", work / "traced"):
        problems.append("tracing changed the command's artifacts")
        failed += 1
    if blas1["exit"] != 0:
        problems.append(f"single-thread-BLAS command exited {blas1['exit']}")
        failed += 1

    layer, absent = per_layer_metrics(tracer, root)
    traced_wall = tracer.stats()[root]["s"]
    layer["cli.artifact_bytes"] = (
        float(sum(p.stat().st_size for p in (work / "traced").iterdir()))
        if (work / "traced").is_dir() else 0.0, "bytes")
    layer["tracing.untraced_wall_s"] = (plain["wall_s"], "s")
    layer["tracing.traced_wall_s"] = (traced_wall, "s")
    layer["tracing.overhead_s"] = (traced_wall - plain["wall_s"], "s")
    layer["blas1.wall_s"] = (blas1["wall_s"], "s")
    layer["blas1.cpu_s"] = (blas1["cpu_s"], "s")
    report = {"quality": quality, "problems": problems, "absent": absent,
              "untraced_cpu_s": plain["cpu_s"], "spans": len(tracer.spans),
              "hooked": sorted(tracer.hooked)}
    return {"attempted": 3, "failed": failed, "metrics": layer, "report": report}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "gridcrit" / "__init__.py").is_file():
        print(f"perfbench: no gridcrit sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    workload = WORKLOADS[args.workload]
    if args.tiny:
        workload = workload.tiny()
    work = WORK / f"{args.workload}-s{args.seed}-t{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    configs = [workload.write_config(seed, work / f"config{i}.json")
               for i, seed in enumerate(workload.program_seeds(args.seed))]

    run = (traced_run if args.trace else untraced_run)(workload, args, configs, work)
    facts = machine_facts()
    for entry in work.iterdir():  # command outputs are large; keep config, spans, details
        if entry.is_dir():
            shutil.rmtree(entry)
    details = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
               "tiny": args.tiny, "machine": facts, **run}
    (work / "details.json").write_text(json.dumps(details, indent=2, default=str) + "\n")

    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{run['attempted']} commands, {run['failed']} failed "
          f"(error_rate {run['failed'] / run['attempted']:.3f})")
    for name, (value, unit) in sorted(run["metrics"].items()):
        print(f"  {name:40s} {value:14.6g} {unit}")
    report = run["report"]
    for key in ("quality", "problems", "absent", "host_steal_s"):
        if report.get(key):
            print(f"{key}: {json.dumps(report[key], default=str)}")
    print(f"machine: {json.dumps(facts)}")
    print(json.dumps({
        "correct": run["failed"] == 0,
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in run["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
