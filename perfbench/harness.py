"""Run one gridcrit CLI command in-process and time it, and time the host
probes that measure how fast the host is at the moment.

Also the entry point of the benchmark's child processes:

    python3 perfbench/harness.py setup CONFIG
        fresh interpreter to ready: import gridcrit and its CLI, load the
        feeder and resolve the config through the public API, print
        "ready" and the CLOCK_MONOTONIC time
    python3 perfbench/harness.py command ARG...
        run one CLI command and print {"wall_s", "cpu_s", "exit"} as JSON

The parent sets PYTHONPATH to the checkout's ``src``.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import time
import traceback


def run_cli(argv: list[str]) -> tuple[int, str]:
    """Run ``gridcrit ARGV`` in this process; returns (exit code, output)."""
    import click

    from gridcrit.cli import main

    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out):
            main.main(args=argv, prog_name="gridcrit", standalone_mode=False)
        code = 0
    except click.exceptions.Exit as exc:
        code = exc.exit_code
    except click.ClickException as exc:
        code = exc.exit_code
        out.write(f"error: {exc.format_message()}\n")
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    except Exception:  # a crash is a failed operation, not a benchmark crash
        code = 1
        out.write(traceback.format_exc())
    return code, out.getvalue()


def timed_cli(argv: list[str]) -> dict:
    """Wall and process CPU time (all threads) of one in-process command."""
    t0, c0 = time.perf_counter(), time.process_time()
    code, output = run_cli(argv)
    wall, cpu = time.perf_counter() - t0, time.process_time() - c0
    return {"wall_s": wall, "cpu_s": cpu, "exit": code, "output": output}


# -- host probes -----------------------------------------------------------
#
# A probe is a fixed piece of work that uses no gridcrit code. A shared host
# slows a kind of work by a factor that changes within seconds and can stay
# near 2x for a minute or more, and it slows different kinds of work
# differently: interpreter-bound code with numpy calls on short vectors more
# than large vectorised and BLAS work. Each workload names the probe that
# resembles its hot path; a command's time divided by the time of the probe
# passes around it measures the program, not the neighbours.

def _interp_inputs():
    import numpy as np

    rng = np.random.default_rng(0)
    points = [rng.random(14) for _ in range(160)]
    matrix = rng.random((15, 15)) + 15.0 * np.eye(15)
    return points, matrix, rng.random(15)


def _interp_probe(inputs) -> None:
    """Like brute force: pairwise dominance tests on short vectors, small dense
    solves and dict bookkeeping (~0.1 s on a quiet 2 GHz Xeon core)."""
    import numpy as np

    points, matrix, rhs = inputs
    count = 0
    for a in points:
        for b in points:
            count += bool(np.all(a >= b) and np.any(a > b))
    for _ in range(3000):
        np.linalg.solve(matrix, rhs)
    table: dict[int, int] = {}
    for i in range(100_000):
        table[i % 1000] = table.get(i % 1000, 0) + i


def _vector_inputs():
    import numpy as np

    rng = np.random.default_rng(0)
    candidates = rng.integers(0, 4, size=(300, 17)).astype(float)
    pool = rng.integers(0, 4, size=(600, 17)).astype(float)
    a = rng.random((200, 200))
    return candidates, pool, a @ a.T + 200.0 * np.eye(200)


def _vector_probe(inputs) -> None:
    """Like a search: broadcast dominance of candidates against a pool and
    Cholesky factorisations (~0.08 s on a quiet 2 GHz Xeon core)."""
    import numpy as np

    candidates, pool, spd = inputs
    for _ in range(4):
        ge = np.all(pool[None, :, :] >= candidates[:, None, :], axis=2)
        gt = np.any(pool[None, :, :] > candidates[:, None, :], axis=2)
        np.any(ge & gt, axis=1)
    for _ in range(10):
        np.linalg.cholesky(spd)


PROBES = {"interp": (_interp_inputs, _interp_probe),
          "vector": (_vector_inputs, _vector_probe)}
_probe_inputs: dict = {}


def probe(kind: str, passes: int) -> dict:
    """Mean wall and process CPU time of ``passes`` passes of probe ``kind``."""
    make_inputs, run = PROBES[kind]
    if kind not in _probe_inputs:
        _probe_inputs[kind] = make_inputs()
    t0, c0 = time.perf_counter(), time.process_time()
    for _ in range(passes):
        run(_probe_inputs[kind])
    return {"wall_s": (time.perf_counter() - t0) / passes,
            "cpu_s": (time.process_time() - c0) / passes}


def _setup(config_path: str) -> None:
    import gridcrit  # noqa: F401  (the package import is part of set-up)
    import gridcrit.cli  # noqa: F401
    from gridcrit import DiffusionParams, SearchConfig, ViolationConfig, load_feeder

    with open(config_path) as fh:
        config = json.load(fh)
    feeder = load_feeder(config["feeder"])
    feeder.partition()
    DiffusionParams(**config["diffusion"])
    ViolationConfig()
    SearchConfig(seed=config["seed"], **config["search"])
    # CLOCK_MONOTONIC is system-wide, so the parent can subtract its spawn time.
    print("ready", time.clock_gettime(time.CLOCK_MONOTONIC), flush=True)


if __name__ == "__main__":
    mode, *rest = sys.argv[1:]
    if mode == "setup":
        _setup(rest[0])
    elif mode == "command":
        sample = timed_cli(rest)
        print(json.dumps({k: sample[k] for k in ("wall_s", "cpu_s", "exit")}))
    else:
        sys.exit(f"unknown mode {mode}")
