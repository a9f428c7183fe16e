"""Command-line interface: feeder generation, simulation, evaluation, search,
brute-force enumeration and report emission.

Every run command writes a ``manifest.json`` with the fully resolved
configuration; re-running with the manifest as the config reproduces all
artifacts byte-identically.

Exit codes: 0 success, 2 usage error, 3 validation error, 4 numerical
failure, 5 search stopped by search-space exhaustion.
"""

from __future__ import annotations

import csv
import json
import sys
from collections.abc import Iterator
from dataclasses import asdict, fields
from json.encoder import encode_basestring_ascii
from pathlib import Path

import click
import numpy as np

from gridcrit.adoption import (
    DiffusionParams,
    _check_int,
    _check_real,
    bitstrings,
    load_scenarios,
    save_scenarios,
    simulate_batch,
)
from gridcrit.feeder import (
    FeederError,
    apply_partition,
    fallback_partition,
    generate_synthetic_feeder,
    load_feeder,
    save_feeder,
)
from gridcrit.powerflow import ViolationConfig, violation_map
from gridcrit.search import (
    ORACLE_BUDGET,
    SearchAbort,
    SearchConfig,
    brute_force_oracle,
    evaluate_scenarios,
    run_search,
)
from gridcrit.surrogate import NumericalError

CONFIG_SCHEMA_VERSION = 1

EXIT_VALIDATION = 3
EXIT_NUMERICAL = 4
EXIT_EXHAUSTED = 5


class ConfigError(click.ClickException):
    """Configuration problem; maps to the validation exit code."""

    exit_code = EXIT_VALIDATION


class NumericalFailure(click.ClickException):
    """Numerical breakdown in the solver or surrogate; exit code 4."""

    exit_code = EXIT_NUMERICAL


class OutputPathError(click.ClickException):
    """An output path that cannot be written; a usage error, exit code 2."""

    exit_code = 2


def _check_output_file(output: str) -> None:
    """Refuse an output file whose directory is missing, or that is a directory."""
    path = Path(output)
    if path.is_dir():
        raise OutputPathError(f"output {output} is a directory")
    if not path.parent.is_dir():
        raise OutputPathError(f"output directory {path.parent} does not exist")


def _check_output_dir(output_dir: str) -> None:
    """Refuse an output directory that exists as a file or lies under one."""
    path = Path(output_dir)
    existing = next(p for p in (path, *path.parents) if p.exists())
    if not existing.is_dir():
        raise OutputPathError(f"cannot make output directory {output_dir}: "
                              f"{existing} is not a directory")


def _fmt(value: float) -> str:
    """Deterministic float formatting for CSV artifacts."""
    return repr(float(value))


def _load_config(path: str) -> dict:
    """Read a run config (or a manifest wrapping one) and apply defaults."""
    try:
        doc = json.loads(Path(path).read_text())
    except OSError as exc:
        raise ConfigError(f"cannot read config file: {exc}")
    except ValueError as exc:  # invalid JSON or text that is not UTF-8
        raise ConfigError(f"config is not valid JSON: {exc}")
    if isinstance(doc, dict) and "command" in doc and "config" in doc:
        doc = doc["config"]  # manifest re-run
    if not isinstance(doc, dict):
        raise ConfigError("config must be a JSON object")
    if doc.get("schema") != CONFIG_SCHEMA_VERSION:
        raise ConfigError(f"config schema must be {CONFIG_SCHEMA_VERSION}")
    if "feeder" not in doc:
        raise ConfigError("config is missing the 'feeder' path")
    if not isinstance(doc["feeder"], str):
        raise ConfigError(f"config 'feeder' must be a path string, not {doc['feeder']!r}")
    seed = doc.get("seed", 0)
    try:
        _check_int("seed", seed, 0)
    except ValueError:
        raise ConfigError(f"config 'seed' must be a non-negative integer, not {seed!r}")
    resolved = {
        "schema": CONFIG_SCHEMA_VERSION,
        "feeder": doc["feeder"],
        "seed": seed,
        "diffusion": {
            "p": 0.01, "q": 0.164, "horizon_steps": 10, "initial_rate": 0.0,
        },
        "violation": {"line_bins": [0.0, 0.1, 0.25, 0.5]},
        "powerflow": {"tol": 1e-8, "max_iter": 50, "pv_derate": 1.0},
        "search": {},
    }
    unknown = sorted(set(doc) - set(resolved))
    if unknown:
        raise ConfigError(f"unknown config keys: {', '.join(unknown)}")
    known = {s: set(resolved[s]) for s in ("diffusion", "violation", "powerflow")}
    known["search"] = {f.name for f in fields(SearchConfig)}
    for section, keys in known.items():
        extra = doc.get(section, {})
        if not isinstance(extra, dict):
            raise ConfigError(f"config section '{section}' must be an object")
        unknown = sorted(set(extra) - keys)
        if unknown:
            raise ConfigError(
                f"unknown keys in config section '{section}': {', '.join(unknown)}"
            )
        resolved[section].update(extra)
    resolved["search"].setdefault("seed", resolved["seed"])
    return resolved


def _build_parts(config: dict):
    """Instantiate library objects from a resolved config."""
    try:
        feeder = load_feeder(config["feeder"])
        diffusion = DiffusionParams(**config["diffusion"])
        viol_cfg = ViolationConfig(line_bins=tuple(config["violation"]["line_bins"]))
        search_cfg = SearchConfig(**config["search"])
        _check_powerflow(config["powerflow"])
    except (FeederError, ValueError, TypeError) as exc:
        raise ConfigError(f"invalid config: {exc}")
    return feeder, diffusion, viol_cfg, search_cfg


def _check_powerflow(pf: dict) -> None:
    """Raise ValueError unless the power-flow settings can be handed to the solver."""
    _check_real("powerflow tol", pf["tol"])
    if pf["tol"] <= 0:
        raise ValueError("powerflow tol must be > 0")
    _check_int("powerflow max_iter", pf["max_iter"], 1)
    _check_real("powerflow pv_derate", pf["pv_derate"])
    if pf["pv_derate"] < 0:
        raise ValueError("powerflow pv_derate must be >= 0")


def _write_manifest(outdir: Path, command: str, config: dict, **extra) -> None:
    manifest = {
        "schema": CONFIG_SCHEMA_VERSION,
        "command": command,
        "config": config,
        **extra,
    }
    _write_json(outdir / "manifest.json", manifest)


def _write_json(path: Path, doc: dict) -> None:
    """Write ``json.dumps(doc, indent=2, sort_keys=True)`` and a newline."""
    with open(path, "w") as fh:
        fh.writelines(_json_chunks(doc))
        fh.write("\n")


_NUMBER_TYPES = {int, float}
_JSON_LEAF_BLOCK = 256  # leaves per call of the C encoder


def _json_chunks(doc) -> Iterator[str]:
    """``json.dumps(doc, indent=2, sort_keys=True)`` in chunks, for string keys.

    With an indent, ``json`` falls back to its pure-Python encoder. Here the
    layout is written by hand, and the C encoder writes the numbers. Each
    list of numbers, and each other scalar but a string as a one-element
    list, is a leaf; a block of leaves is encoded in one call and split at
    its "], [" and ", " separators, which no number's text contains.
    """
    pieces: list[str | None] = []  # None: the next leaf
    leaves: list = []
    indents: list[str | None] = []  # per leaf, its items' indent; None for a scalar
    # Layout strings repeat from row to row; each is made once.
    layout: dict[tuple, str] = {}

    def text(*parts: str) -> str:
        s = layout.get(parts)
        if s is None:
            s = layout[parts] = "".join(parts)
        return s

    def emit(obj, indent: str) -> None:
        inner = indent + "  "
        if isinstance(obj, str):
            pieces.append(encode_basestring_ascii(obj))
        elif isinstance(obj, (dict, list, tuple)) and not obj:
            pieces.append("{}" if isinstance(obj, dict) else "[]")
        elif isinstance(obj, dict):
            sep = "{\n"
            for key, value in sorted(obj.items()):
                pieces.append(text(sep, inner, encode_basestring_ascii(key), ": "))
                emit(value, inner)
                sep = ",\n"
            pieces.append(text("\n", indent, "}"))
        elif isinstance(obj, (list, tuple)) and not set(map(type, obj)) <= _NUMBER_TYPES:
            sep = "[\n"
            for value in obj:
                pieces.append(text(sep, inner))
                emit(value, inner)
                sep = ",\n"
            pieces.append(text("\n", indent, "]"))
        else:
            number_list = isinstance(obj, (list, tuple))
            leaves.append(obj if number_list else [obj])
            indents.append(inner if number_list else None)
            pieces.append(None)

    emit(doc, "")
    del emit  # it holds itself through its closure; free the leaves without the cyclic GC

    def leaf_texts() -> Iterator[str]:
        for start in range(0, len(leaves), _JSON_LEAF_BLOCK):
            texts = json.dumps(leaves[start:start + _JSON_LEAF_BLOCK]).split("], [")
            texts[0] = texts[0][2:]
            texts[-1] = texts[-1][:-2]
            yield from texts

    # Leaves are encoded a block at a time and laid out only as they are
    # written, so few of their strings are alive at once.
    leaf = zip(leaf_texts(), indents)
    for piece in pieces:
        if piece is None:
            piece, inner = next(leaf)
            if inner is not None:
                items = piece.replace(", ", ",\n" + inner)
                piece = f"[\n{inner}{items}\n{inner[:-2]}]"
        yield piece


def _result_document(feeder, result, stop_reason: str, extra=None) -> dict:
    """result.json of a search or brute-force result (both carry the same fields)."""
    num_bus = result.num_bus_objectives
    num_line = result.num_line_objectives
    fronts = result.fronts
    # Every critical scenario is an evaluated one.
    ids = sorted(result.stresses)
    bits = dict(zip(ids, bitstrings(result.bits[ids])))

    def scen_entry(sid: int, lo: int, hi: int) -> dict:
        return {
            "id": sid,
            "bits": bits[sid],
            "violations": result.violations[sid][lo:hi].tolist(),
        }

    doc = {
        "schema": CONFIG_SCHEMA_VERSION,
        "feeder_hash": feeder.content_hash(),
        "stop_reason": stop_reason,
        "num_evaluations": len(result.stresses),
        "search_space_size": len(result.bits),
        "num_bus_objectives": num_bus,
        "num_line_objectives": num_line,
        "critical_objectives": {
            "bus": list(fronts.critical_objectives_bus),
            "line": list(fronts.critical_objectives_line),
        },
        "per_objective_max_violation": [
            float(v) for v in fronts.per_objective_max_violation
        ],
        "critical_scenarios": {
            "bus": [scen_entry(i, 0, num_bus) for i in fronts.bus_ids],
            "line": [
                scen_entry(i, num_bus, num_bus + num_line) for i in fronts.line_ids
            ],
        },
        "invalid_ids": sorted(result.invalid_ids),
        "evaluations": [
            {
                "id": sid,
                "bits": bits[sid],
                "stress": result.stresses[sid].tolist(),
                "violations": result.violations[sid].tolist(),
            }
            for sid in ids
        ],
    }
    if extra:
        doc.update(extra)
    return doc


@click.group()
def main() -> None:
    """Critical-scenario discovery for distributed-PV adoption on radial feeders."""


@main.command("make-feeder")
@click.option("--buses", type=int, required=True)
@click.option("--adopters", type=int, required=True)
@click.option("--groups", type=int, default=1, show_default=True)
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--output", "-o", type=click.Path(), required=True)
def cmd_make_feeder(buses, adopters, groups, seed, output) -> None:
    """Generate a synthetic radial feeder with a balanced bus partition."""
    if adopters >= buses or adopters < 1 or buses < 2:
        raise click.UsageError("need 1 <= adopters < buses and buses >= 2")
    if not 1 <= groups <= buses:
        raise click.UsageError("groups must be in [1, buses]")
    _check_output_file(output)
    try:
        feeder = generate_synthetic_feeder(buses, adopters, seed)
        feeder = apply_partition(feeder, fallback_partition(feeder, groups))
    except (FeederError, ValueError) as exc:
        raise ConfigError(str(exc))
    extremes = np.array([[0], [1]], dtype=np.uint8).repeat(feeder.num_adopters, axis=1)
    _, converged = evaluate_scenarios(feeder, extremes)
    if not converged.all():
        raise ConfigError(
            "the generated feeder's power flow does not converge at zero and full adoption"
        )
    save_feeder(feeder, output)
    click.echo(f"wrote {output} ({buses} buses, {adopters} adopters, {groups} groups)")


@main.command("simulate")
@click.option("--config", "config_path", type=click.Path(), required=True)
@click.option("--count", type=int, required=True)
@click.option("--output", "-o", type=click.Path(), required=True)
def cmd_simulate(config_path, count, output) -> None:
    """Simulate adoption scenarios and write them to a scenario file."""
    if count < 1:
        raise click.UsageError("count must be >= 1")
    _check_output_file(output)
    config = _load_config(config_path)
    feeder, diffusion, _, _ = _build_parts(config)
    bits = simulate_batch(feeder, diffusion, count, seed=config["seed"])
    save_scenarios(output, bits, feeder)
    click.echo(f"wrote {output} ({count} scenarios)")


@main.command("evaluate")
@click.option("--config", "config_path", type=click.Path(), required=True)
@click.option("--scenarios", "scenario_path", type=click.Path(), required=True)
@click.option("--output", "-o", type=click.Path(), required=True)
def cmd_evaluate(config_path, scenario_path, output) -> None:
    """Evaluate a scenario file: power flow, stresses and violations to CSV."""
    _check_output_file(output)
    config = _load_config(config_path)
    feeder, _, viol_cfg, _ = _build_parts(config)
    try:
        bits = load_scenarios(scenario_path, feeder)
    except (FeederError, ValueError) as exc:
        raise ConfigError(str(exc))
    pf_cfg = config["powerflow"]
    stresses, converged = evaluate_scenarios(
        feeder, bits, pf_cfg["tol"], pf_cfg["max_iter"], pf_cfg["pv_derate"]
    )
    violations = violation_map(stresses, feeder.num_groups, viol_cfg)
    dim = feeder.num_groups + feeder.num_lines
    with open(output, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["id"]
            + [f"stress_{k}" for k in range(dim)]
            + [f"violation_{k}" for k in range(dim)]
            + ["converged"]
        )
        for sid, (stress, viol, ok) in enumerate(zip(stresses, violations, converged)):
            if not ok:
                writer.writerow([sid] + [""] * (2 * dim) + [False])
            else:
                writer.writerow(
                    [sid] + [_fmt(v) for v in stress] + [_fmt(v) for v in viol]
                    + [True]
                )
    click.echo(f"wrote {output}")


def _write_search_artifacts(outdir: Path, feeder, result) -> None:
    num_bus = result.num_bus_objectives
    doc = _result_document(
        feeder, result, result.stop_reason,
        extra={
            "relevance": {
                str(k): [float(v) for v in vec] for k, vec in result.relevance.items()
            },
        },
    )
    _write_json(outdir / "result.json", doc)

    with open(outdir / "tau_trace.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["step", "tau_bus", "tau_line"])
        for step, tb, tl in zip(
            result.tau_steps, result.tau_bus_trace, result.tau_line_trace
        ):
            writer.writerow(
                [step, _fmt(tb) if np.isfinite(tb) else "",
                 _fmt(tl) if np.isfinite(tl) else ""]
            )

    with open(outdir / "evaluation_log.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        dim = num_bus + result.num_line_objectives
        writer.writerow(["step", "id", "bits"] + [f"stress_{k}" for k in range(dim)])
        ids = [sid for _, sid in result.evaluation_log]
        for (step, sid), bits in zip(result.evaluation_log, bitstrings(result.bits[ids])):
            writer.writerow([step, sid, bits] + [_fmt(v) for v in result.stresses[sid]])

    adopters = feeder.adopters
    for k, vec in sorted(result.relevance.items()):
        with open(outdir / f"relevance_obj_{k}.csv", "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["adopter_bus", "relevance"])
            for bus_id, val in zip(adopters, vec):
                writer.writerow([bus_id, _fmt(val)])


@main.command("search")
@click.option("--config", "config_path", type=click.Path(), required=True)
@click.option("--output-dir", "-o", type=click.Path(), required=True)
def cmd_search(config_path, output_dir) -> None:
    """Run the Bayesian-optimization search and write result artifacts."""
    _check_output_dir(output_dir)
    config = _load_config(config_path)
    feeder, diffusion, viol_cfg, search_cfg = _build_parts(config)
    outdir = Path(output_dir)
    outdir.mkdir(parents=True, exist_ok=True)
    pf_cfg = config["powerflow"]
    try:
        result = run_search(
            feeder, diffusion, viol_cfg, search_cfg,
            pf_tol=pf_cfg["tol"], pf_max_iter=pf_cfg["max_iter"],
            pv_derate=pf_cfg["pv_derate"],
        )
    except (NumericalError, SearchAbort) as exc:
        raise NumericalFailure(str(exc))
    config["search"] = {**asdict(search_cfg)}
    _write_manifest(outdir, "search", config)
    _write_search_artifacts(outdir, feeder, result)
    click.echo(
        f"{result.stop_reason}: {result.num_evaluations} evaluations, "
        f"{len(result.fronts.bus_ids)} bus-critical, "
        f"{len(result.fronts.line_ids)} line-critical -> {outdir}"
    )
    if result.stop_reason == "exhausted":
        sys.exit(EXIT_EXHAUSTED)


@main.command("brute-force")
@click.option("--config", "config_path", type=click.Path(), required=True)
@click.option("--scenarios", "scenario_path", type=click.Path(), default=None,
              help="Scenario file to enumerate; simulated from config when omitted.")
@click.option("--count", type=int, default=4096, show_default=True,
              help="Number of scenarios to simulate when --scenarios is omitted.")
@click.option("--output-dir", "-o", type=click.Path(), required=True)
def cmd_brute_force(config_path, scenario_path, count, output_dir) -> None:
    """Exhaustively evaluate a scenario set and write the exact fronts."""
    _check_output_dir(output_dir)
    config = _load_config(config_path)
    feeder, diffusion, viol_cfg, _ = _build_parts(config)
    if scenario_path is not None:
        try:
            bits = load_scenarios(scenario_path, feeder)
        except (FeederError, ValueError) as exc:
            raise ConfigError(str(exc))
    else:
        if count < 1:
            raise click.UsageError("count must be >= 1")
        if count > ORACLE_BUDGET:
            raise ConfigError(f"{count} scenarios exceed the oracle budget of {ORACLE_BUDGET}")
        bits = simulate_batch(feeder, diffusion, count, seed=config["seed"])
    pf_cfg = config["powerflow"]
    try:
        oracle = brute_force_oracle(
            feeder, viol_cfg, bits,
            pf_tol=pf_cfg["tol"], pf_max_iter=pf_cfg["max_iter"],
            pv_derate=pf_cfg["pv_derate"],
        )
    except ValueError as exc:  # more scenarios than the oracle budget
        raise ConfigError(str(exc))
    outdir = Path(output_dir)
    outdir.mkdir(parents=True, exist_ok=True)
    _write_manifest(outdir, "brute-force", config, count=count,
                    scenarios=scenario_path)
    doc = _result_document(feeder, oracle, "oracle")
    _write_json(outdir / "result.json", doc)
    click.echo(
        f"oracle: {len(oracle.stresses)} evaluations, "
        f"{len(oracle.fronts.bus_ids)} bus-critical, "
        f"{len(oracle.fronts.line_ids)} line-critical -> {outdir}"
    )


# The result.json fields that ``report`` reads.
_RESULT_KEYS = (
    "feeder_hash",
    "num_bus_objectives",
    "num_line_objectives",
    "per_objective_max_violation",
    "evaluations",
)


def _read_result(path: Path, feeder) -> dict:
    """A result.json written for ``feeder``; anything else is a validation error."""
    if not path.exists():
        raise ConfigError(f"missing result file: {path}")
    try:
        doc = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path} is not valid JSON: {exc}")
    if not isinstance(doc, dict):
        raise ConfigError(f"{path} is not a result document")
    missing = [key for key in _RESULT_KEYS if key not in doc]
    if missing:
        raise ConfigError(f"{path} lacks {', '.join(missing)}")
    if doc["feeder_hash"] != feeder.content_hash():
        raise ConfigError(f"{path} was written for another feeder")
    dim = feeder.num_groups + feeder.num_lines
    if (doc["num_bus_objectives"] != feeder.num_groups
            or doc["num_line_objectives"] != feeder.num_lines
            or not _is_numbers(doc["per_objective_max_violation"], dim)):
        raise ConfigError(f"{path} does not match the feeder's {dim} objectives")
    if not isinstance(doc["evaluations"], list) or not all(
        isinstance(e, dict) and type(e.get("id")) is int
        and isinstance(e.get("bits"), str) and len(e["bits"]) == feeder.num_adopters
        and set(e["bits"]) <= {"0", "1"} and _is_numbers(e.get("violations"), dim)
        for e in doc["evaluations"]
    ):
        raise ConfigError(f"{path} has an evaluation that does not fit the feeder")
    relevance = doc.get("relevance", {})
    objectives = {str(k) for k in range(dim)}
    if not isinstance(relevance, dict) or not all(
        key in objectives and _is_numbers(vec, feeder.num_adopters)
        for key, vec in relevance.items()
    ):
        raise ConfigError(f"{path} has a relevance entry that does not fit the feeder")
    return doc


def _is_numbers(value, length: int) -> bool:
    """True iff ``value`` is a list of ``length`` JSON numbers."""
    return isinstance(value, list) and len(value) == length and all(
        type(v) in _NUMBER_TYPES for v in value)


@main.command("report")
@click.option("--feeder", "feeder_path", type=click.Path(), required=True)
@click.option("--search-dir", type=click.Path(), required=True)
@click.option("--oracle-dir", type=click.Path(), default=None)
@click.option("--top-n", type=int, default=25, show_default=True)
@click.option("--output-dir", "-o", type=click.Path(), required=True)
def cmd_report(feeder_path, search_dir, oracle_dir, top_n, output_dir) -> None:
    """Emit plot-ready CSVs: PV ranking, max-violation comparison, relevance."""
    if top_n < 1:
        raise click.UsageError("top-n must be >= 1")
    _check_output_dir(output_dir)
    try:
        feeder = load_feeder(feeder_path)
    except (FeederError, ValueError, TypeError) as exc:
        raise ConfigError(str(exc))
    search_doc = _read_result(Path(search_dir) / "result.json", feeder)
    oracle_doc = (
        _read_result(Path(oracle_dir) / "result.json", feeder) if oracle_dir else None
    )
    outdir = Path(output_dir)
    outdir.mkdir(parents=True, exist_ok=True)
    num_bus = search_doc["num_bus_objectives"]
    pv_caps = np.array(
        [b.pv_capacity for b in feeder.buses if b.is_adopter]
    )

    def total_pv(bits: str) -> float:
        return float(np.array([int(c) for c in bits]) @ pv_caps)

    # (a) evaluated scenarios ranked by total adopted PV capacity.
    rows = [
        (
            e["id"], e["bits"], total_pv(e["bits"]),
            max(e["violations"][:num_bus]),
        )
        for e in search_doc["evaluations"]
    ]
    rows.sort(key=lambda r: (-r[2], r[0]))
    with open(outdir / "scenarios_by_pv.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["id", "bits", "total_pv_kw", "max_bus_violation"])
        for rid, bits, pv, mv in rows:
            writer.writerow([rid, bits, _fmt(pv), _fmt(mv)])

    # (b) per-objective max violation: search vs oracle vs naive top-N-by-PV.
    base_doc = oracle_doc or search_doc
    ranked = sorted(
        {e["bits"]: e for e in base_doc["evaluations"]}.values(),
        key=lambda e: (-total_pv(e["bits"]), e["id"]),
    )
    top = ranked[:top_n]
    dim = num_bus + search_doc["num_line_objectives"]
    top_max = np.zeros(dim)
    for e in top:
        top_max = np.maximum(top_max, e["violations"])
    with open(outdir / "max_violation_comparison.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        header = ["objective", "search_max", f"top{top_n}_max"]
        if oracle_doc:
            header.insert(2, "oracle_max")
        writer.writerow(header)
        for k in range(dim):
            row = [k, _fmt(search_doc["per_objective_max_violation"][k]),
                   _fmt(top_max[k])]
            if oracle_doc:
                row.insert(2, _fmt(oracle_doc["per_objective_max_violation"][k]))
            writer.writerow(row)

    # (c) adopter relevance matrix over critical objectives.
    with open(outdir / "relevance.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["objective"] + [str(b) for b in feeder.adopters])
        for key in sorted(search_doc.get("relevance", {}), key=int):
            writer.writerow(
                [key] + [_fmt(v) for v in search_doc["relevance"][key]]
            )
    click.echo(f"wrote report -> {outdir}")


if __name__ == "__main__":
    main()
