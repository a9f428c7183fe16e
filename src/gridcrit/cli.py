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
from dataclasses import asdict, fields
from pathlib import Path

import click
import numpy as np

from gridcrit.adoption import (
    DiffusionParams,
    bitstrings,
    load_scenarios,
    save_scenarios,
    simulate_batch,
)
from gridcrit.feeder import (
    FeederError,
    _check_int,
    apply_partition,
    fallback_partition,
    generate_synthetic_feeder,
    load_feeder,
    save_feeder,
)
from gridcrit.pareto import distinct_rows
from gridcrit.powerflow import PowerFlowConfig, ViolationConfig, violation_map
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


# Each config section and the type that checks it and holds its defaults.
_SECTIONS = {
    "diffusion": DiffusionParams,
    "violation": ViolationConfig,
    "powerflow": PowerFlowConfig,
    "search": SearchConfig,
}


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
    if isinstance(doc.get("schema"), bool) or doc.get("schema") != CONFIG_SCHEMA_VERSION:
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
        # The search section keeps only the keys given, plus its seed.
        **{section: {} if cls is SearchConfig else asdict(cls())
           for section, cls in _SECTIONS.items()},
    }
    unknown = sorted(set(doc) - set(resolved))
    if unknown:
        raise ConfigError(f"unknown config keys: {', '.join(unknown)}")
    for section, cls in _SECTIONS.items():
        extra = doc.get(section, {})
        if not isinstance(extra, dict):
            raise ConfigError(f"config section '{section}' must be an object")
        unknown = sorted(set(extra) - {f.name for f in fields(cls)})
        if unknown:
            raise ConfigError(
                f"unknown keys in config section '{section}': {', '.join(unknown)}"
            )
        resolved[section].update(extra)
    resolved["search"].setdefault("seed", resolved["seed"])
    return resolved


def _build_parts(config: dict):
    """The feeder and the diffusion, violation, power-flow and search settings
    of a resolved config."""
    try:
        feeder = load_feeder(config["feeder"])
        parts = [cls(**config[section]) for section, cls in _SECTIONS.items()]
    except (FeederError, ValueError, TypeError) as exc:
        raise ConfigError(f"invalid config: {exc}")
    return feeder, *parts


def _write_manifest(outdir: Path, command: str, config: dict, **extra) -> None:
    manifest = {
        "schema": CONFIG_SCHEMA_VERSION,
        "command": command,
        "config": config,
        **extra,
    }
    _write_json(outdir / "manifest.json", manifest)


def _write_json(path: Path, doc: dict) -> None:
    """Write ``json.dumps(doc, indent=2, sort_keys=True)`` and a newline; a
    ``_Table`` stands for the list of its records."""
    with open(path, "w") as fh:
        _write_value(fh, doc, "")
        fh.write("\n")


def _write_value(fh, value, indent: str) -> None:
    """Write ``value`` laid out at ``indent``: a dict (string keys) key by key,
    so that its tables are written from their columns, anything else through
    ``json.dumps``."""
    if isinstance(value, _Table):
        value.write(fh, indent)
    elif isinstance(value, dict) and value:
        inner = indent + "  "
        sep = "{\n"
        for key, item in sorted(value.items()):
            fh.write(f"{sep}{inner}{json.dumps(key)}: ")
            _write_value(fh, item, inner)
            sep = ",\n"
        fh.write(f"\n{indent}}}")
    else:
        # No string's JSON text holds a newline, so each newline is layout.
        fh.write(json.dumps(value, indent=2, sort_keys=True).replace("\n", "\n" + indent))


_TABLE_BLOCK = 256  # rows per call of the C encoder, and per write


class _Table:
    """A JSON list of records with the same keys, held as aligned columns.

    A column is a list of strings or numbers, one per record, or a matrix of
    numbers with at least one column, one row per record. Each distinct row
    of a matrix is encoded once.
    """

    def __init__(self, **columns):
        self.columns = columns

    def write(self, fh, indent: str) -> None:
        count = len(next(iter(self.columns.values())))
        if not count:
            fh.write("[]")
            return
        record, key, item = indent + "  ", indent + "    ", indent + "      "
        entries, cells = [], []  # per key: its entry of the record template; its texts and row index
        for name, column in sorted(self.columns.items()):
            entry = f"{key}{json.dumps(name)}: ".replace("%", "%%")
            if isinstance(column, list):
                # No JSON text of a string or a number holds a raw newline.
                entries.append(entry + "%s")
                cells.append((json.dumps(column, separators=("\n", ":"))[1:-1].split("\n"), None))
            else:
                entries.append(f"{entry}[\n{item}%s\n{key}]")
                cells.append(_distinct_row_texts(column, ",\n" + item))
        template = f"\n{record}{{\n" + ",\n".join(entries) + f"\n{record}}}"
        for start in range(0, count, _TABLE_BLOCK):
            stop = start + _TABLE_BLOCK
            block = zip(*(texts[start:stop] if index is None
                          else [texts[i] for i in index[start:stop].tolist()]
                          for texts, index in cells))
            fh.write(("," if start else "[") + ",".join(template % row for row in block))
        fh.write(f"\n{indent}]")


def _distinct_row_texts(matrix: np.ndarray, sep: str) -> tuple[list[str], np.ndarray]:
    """JSON texts of the distinct rows of a number matrix, without brackets
    and with ``sep`` between items, and each row's index among them.
    """
    first, inverse = distinct_rows(matrix)
    encoder = json.JSONEncoder(separators=(sep, ": "), check_circular=False)
    texts: list[str] = []
    for start in range(0, len(first), _TABLE_BLOCK):
        # No number's text holds "]", so a block splits at its row ends.
        text = encoder.encode(matrix[first[start:start + _TABLE_BLOCK]].tolist())
        texts += text[2:-2].split(f"]{sep}[")
    return texts, inverse


def _result_document(feeder, result, stop_reason: str, extra=None) -> dict:
    """result.json of an ``OracleResult``; a ``SearchResult`` is one too."""
    num_bus = result.num_bus_objectives
    num_line = result.num_line_objectives
    fronts = result.fronts
    order = np.argsort(result.ids)
    ids = result.ids[order]
    violations = result.violations[order]

    def critical(front_ids, objectives: slice) -> _Table:
        front_ids = np.array(front_ids, dtype=ids.dtype)
        rows = np.searchsorted(ids, front_ids)  # every critical scenario is an evaluated one
        return _Table(id=front_ids.tolist(), bits=bitstrings(result.bits[front_ids]),
                      violations=violations[rows, objectives])

    doc = {
        "schema": CONFIG_SCHEMA_VERSION,
        "feeder_hash": feeder.content_hash(),
        "stop_reason": stop_reason,
        "num_evaluations": result.num_evaluations,
        "search_space_size": len(result.bits),
        "num_bus_objectives": num_bus,
        "num_line_objectives": num_line,
        "critical_objectives": {
            "bus": list(fronts.critical_objectives_bus),
            "line": list(fronts.critical_objectives_line),
        },
        "per_objective_max_violation": fronts.per_objective_max_violation.tolist(),
        "critical_scenarios": {
            "bus": critical(fronts.bus_ids, slice(0, num_bus)),
            "line": critical(fronts.line_ids, slice(num_bus, num_bus + num_line)),
        },
        "invalid_ids": result.invalid_ids,
        "evaluations": _Table(id=ids.tolist(), bits=bitstrings(result.bits[ids]),
                              stress=result.stress[order], violations=violations),
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
@click.option("--seed", type=click.IntRange(min=0), default=0, show_default=True)
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
    feeder, diffusion, *_ = _build_parts(config)
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
    feeder, _, viol_cfg, pf_cfg, _ = _build_parts(config)
    try:
        bits = load_scenarios(scenario_path, feeder)
    except (FeederError, ValueError) as exc:
        raise ConfigError(str(exc))
    stresses, converged = evaluate_scenarios(feeder, bits, pf_cfg)
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
        for step, row in enumerate(result.tau.tolist(), start=1):
            writer.writerow([step] + ["" if np.isnan(t) else _fmt(t) for t in row])

    with open(outdir / "evaluation_log.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        dim = num_bus + result.num_line_objectives
        writer.writerow(["step", "id", "bits"] + [f"stress_{k}" for k in range(dim)])
        for step, sid, bits, stress in zip(result.steps.tolist(), result.ids.tolist(),
                                           bitstrings(result.bits[result.ids]), result.stress):
            writer.writerow([step, sid, bits] + [_fmt(v) for v in stress])

    # A search into the directory of an earlier run may write fewer
    # relevance files; that run's others would read as this run's.
    written = {f"relevance_obj_{k}.csv" for k in result.relevance}
    for stale in outdir.glob("relevance_obj_*.csv"):
        if stale.name not in written:
            stale.unlink()
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
    feeder, diffusion, viol_cfg, pf_cfg, search_cfg = _build_parts(config)
    outdir = Path(output_dir)
    outdir.mkdir(parents=True, exist_ok=True)
    try:
        result = run_search(feeder, diffusion, viol_cfg, search_cfg, pf_cfg)
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
    feeder, diffusion, viol_cfg, pf_cfg, _ = _build_parts(config)
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
    try:
        oracle = brute_force_oracle(feeder, viol_cfg, bits, pf_cfg)
    except ValueError as exc:  # more scenarios than the oracle budget
        raise ConfigError(str(exc))
    outdir = Path(output_dir)
    outdir.mkdir(parents=True, exist_ok=True)
    _write_manifest(outdir, "brute-force", config, count=count,
                    scenarios=scenario_path)
    doc = _result_document(feeder, oracle, "oracle")
    _write_json(outdir / "result.json", doc)
    click.echo(
        f"oracle: {oracle.num_evaluations} evaluations, "
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


_NUMBER_TYPES = {int, float}


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
