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
    ParseError,
    _check_int,
    _read_json_object,
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
ORACLE_COUNT = 4096  # scenarios ``brute-force`` simulates by default
MAX_FEEDER_BUSES = 10_000  # largest feeder ``make-feeder`` generates

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


def _write_csv(path, header: list, rows) -> None:
    """Write a CSV artifact: the header row, then ``rows``."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


# Each config section and the type that checks it and holds its defaults.
_SECTIONS = {
    "diffusion": DiffusionParams,
    "violation": ViolationConfig,
    "powerflow": PowerFlowConfig,
    "search": SearchConfig,
}


def _load_config(path: str) -> tuple[dict, dict]:
    """Read a run config (or a manifest wrapping one) and apply defaults.

    Returns the resolved config and the manifest (empty for a plain config),
    whose command options a re-run takes where no flag sets them.
    """
    try:
        doc = _read_json_object(path, "config file")
    except ParseError as exc:
        raise ConfigError(str(exc))
    manifest = {}
    if "command" in doc and "config" in doc:
        manifest, doc = doc, doc["config"]  # manifest re-run
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
    return resolved, manifest


def _recorded_scenarios(manifest: dict) -> tuple[str | None, int]:
    """The scenario file (``None`` if simulated) and count a brute-force
    manifest recorded."""
    scenarios, count = manifest.get("scenarios"), manifest.get("count", ORACLE_COUNT)
    if scenarios is not None and not isinstance(scenarios, str):
        raise ConfigError(f"manifest 'scenarios' must be a path string or null, not {scenarios!r}")
    try:
        _check_int("count", count, 1)
    except ValueError:
        raise ConfigError(f"manifest 'count' must be a positive integer, not {count!r}")
    return scenarios, count


def _check_budget(count: int) -> None:
    """Refuse to simulate more scenarios than the oracle evaluates."""
    if count > ORACLE_BUDGET:
        raise ConfigError(f"{count} scenarios exceed the oracle budget of {ORACLE_BUDGET}")


def _build_parts(config: dict):
    """The feeder and the diffusion, violation, power-flow and search settings
    of a resolved config. A feeder without adopters has no scenarios to run."""
    try:
        feeder = load_feeder(config["feeder"])
        parts = [cls(**config[section]) for section, cls in _SECTIONS.items()]
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"invalid config: {exc}")
    if not feeder.num_adopters:
        raise ConfigError(f"invalid config: feeder {config['feeder']} has no adopters")
    return feeder, *parts


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
    numbers with at least one column, one row per record. A matrix may also
    be given as a tuple of such matrices, its column parts: a record's list
    is their rows' items in turn. Each distinct row of a matrix, or of a
    part, is encoded once, so a part whose rows take few values (such as the
    line severities of a violation row) is encoded a few times only.
    """

    def __init__(self, **columns):
        self.columns = columns

    def write(self, fh, indent: str) -> None:
        first = next(iter(self.columns.values()))
        count = len(first[0] if isinstance(first, tuple) else first)
        if not count:
            fh.write("[]")
            return
        record, key, item = indent + "  ", indent + "    ", indent + "      "
        # Per key, its entry of the record template; per slot of the template,
        # its texts and each record's index among them (None: one per record).
        entries, cells = [], []
        for name, column in sorted(self.columns.items()):
            entry = f"{key}{json.dumps(name)}: ".replace("%", "%%")
            if isinstance(column, list):
                # No JSON text of a string or a number holds a raw newline.
                entries.append(entry + "%s")
                cells.append((json.dumps(column, separators=("\n", ":"))[1:-1].split("\n"), None))
            else:
                parts = column if isinstance(column, tuple) else (column,)
                items = f",\n{item}".join(["%s"] * len(parts))
                entries.append(f"{entry}[\n{item}{items}\n{key}]")
                cells += [_distinct_row_texts(part, ",\n" + item) for part in parts]
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


def _write_run(outdir: Path, command: str, config: dict, feeder, result,
               stop_reason: str, relevance: dict | None = None, **recorded) -> None:
    """Make ``outdir``, write its ``manifest.json`` (``config`` and the
    ``recorded`` command options) and the ``result.json`` of an
    ``OracleResult`` (a ``SearchResult`` is one too), then print the run's
    summary line."""
    outdir.mkdir(parents=True, exist_ok=True)
    _write_json(outdir / "manifest.json", {
        "schema": CONFIG_SCHEMA_VERSION, "command": command, "config": config, **recorded})

    num_bus = feeder.num_groups
    num_line = feeder.num_lines
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
        "num_evaluations": len(ids),
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
        # Bus and line parts apart: the line part takes few distinct values.
        "evaluations": _Table(id=ids.tolist(), bits=bitstrings(result.bits[ids]),
                              stress=result.stress[order],
                              violations=(violations[:, :num_bus], violations[:, num_bus:])),
    }
    if relevance is not None:
        doc["relevance"] = relevance
    _write_json(outdir / "result.json", doc)
    click.echo(f"{stop_reason}: {len(ids)} evaluations, {len(fronts.bus_ids)} bus-critical, "
               f"{len(fronts.line_ids)} line-critical -> {outdir}")


@click.group()
def main() -> None:
    """Critical-scenario discovery for distributed-PV adoption on radial feeders."""


@main.command("make-feeder")
@click.option("--buses", type=click.IntRange(max=MAX_FEEDER_BUSES), required=True)
@click.option("--adopters", type=click.IntRange(max=MAX_FEEDER_BUSES - 1), required=True)
@click.option("--groups", type=click.IntRange(max=MAX_FEEDER_BUSES), default=1,
              show_default=True)
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
        feeder = fallback_partition(generate_synthetic_feeder(buses, adopters, seed), groups)
    except ValueError as exc:
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
    config, _ = _load_config(config_path)
    feeder, diffusion, *_ = _build_parts(config)
    _check_budget(count)
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
    config, _ = _load_config(config_path)
    feeder, _, viol_cfg, pf_cfg, _ = _build_parts(config)
    try:
        bits = load_scenarios(scenario_path, feeder)
    except ValueError as exc:
        raise ConfigError(str(exc))
    stresses, converged = evaluate_scenarios(feeder, bits, pf_cfg)
    violations = violation_map(stresses, feeder.num_groups, viol_cfg)
    dim = feeder.num_groups + feeder.num_lines
    _write_csv(
        output,
        ["id"] + [f"stress_{k}" for k in range(dim)]
        + [f"violation_{k}" for k in range(dim)] + ["converged"],
        ([sid] + [_fmt(v) for v in stress] + [_fmt(v) for v in viol] + [True] if ok
         else [sid] + [""] * (2 * dim) + [False]
         for sid, (stress, viol, ok) in enumerate(zip(stresses, violations, converged))),
    )
    click.echo(f"wrote {output}")


def _write_search_artifacts(outdir: Path, feeder, result) -> None:
    """Write a search's CSVs into its run directory."""
    _write_csv(outdir / "tau_trace.csv", ["step", "tau_bus", "tau_line"],
               ([step] + ["" if np.isnan(t) else _fmt(t) for t in row]
                for step, row in enumerate(result.tau.tolist(), start=1)))

    dim = feeder.num_groups + feeder.num_lines
    _write_csv(outdir / "evaluation_log.csv",
               ["step", "id", "bits"] + [f"stress_{k}" for k in range(dim)],
               ([step, sid, bits] + [_fmt(v) for v in stress]
                for step, sid, bits, stress in zip(
                    result.steps.tolist(), result.ids.tolist(),
                    bitstrings(result.bits[result.ids]), result.stress)))

    # A search into the directory of an earlier run may write fewer
    # relevance files; that run's others would read as this run's.
    written = {f"relevance_obj_{k}.csv" for k in result.relevance}
    for stale in outdir.glob("relevance_obj_*.csv"):
        if stale.name not in written:
            stale.unlink()
    adopters = feeder.adopters
    for k, vec in sorted(result.relevance.items()):
        _write_csv(outdir / f"relevance_obj_{k}.csv", ["adopter_bus", "relevance"],
                   ([bus_id, _fmt(val)] for bus_id, val in zip(adopters, vec)))


@main.command("search")
@click.option("--config", "config_path", type=click.Path(), required=True)
@click.option("--output-dir", "-o", type=click.Path(), required=True)
def cmd_search(config_path, output_dir) -> None:
    """Run the Bayesian-optimization search and write result artifacts."""
    _check_output_dir(output_dir)
    config, _ = _load_config(config_path)
    feeder, diffusion, viol_cfg, pf_cfg, search_cfg = _build_parts(config)
    try:
        result = run_search(feeder, diffusion, viol_cfg, search_cfg, pf_cfg)
    except (NumericalError, SearchAbort) as exc:
        raise NumericalFailure(str(exc))
    outdir = Path(output_dir)
    config["search"] = asdict(search_cfg)
    relevance = {str(k): [float(v) for v in vec] for k, vec in result.relevance.items()}
    _write_run(outdir, "search", config, feeder, result, result.stop_reason, relevance)
    _write_search_artifacts(outdir, feeder, result)
    if result.stop_reason == "exhausted":
        sys.exit(EXIT_EXHAUSTED)


@main.command("brute-force")
@click.option("--config", "config_path", type=click.Path(), required=True)
@click.option("--scenarios", "scenario_path", type=click.Path(), default=None,
              help="Scenario file to enumerate; simulated from config when omitted.")
@click.option("--count", type=int, default=None,
              help="Number of scenarios to simulate when --scenarios is omitted "
                   f"[default: a brute-force manifest's, else {ORACLE_COUNT}].")
@click.option("--output-dir", "-o", type=click.Path(), required=True)
def cmd_brute_force(config_path, scenario_path, count, output_dir) -> None:
    """Exhaustively evaluate a scenario set and write the exact fronts."""
    if count is not None and count < 1:
        raise click.UsageError("count must be >= 1")
    _check_output_dir(output_dir)
    config, manifest = _load_config(config_path)
    if scenario_path is None and count is None and manifest.get("command") == "brute-force":
        scenario_path, count = _recorded_scenarios(manifest)
    if count is None:
        count = ORACLE_COUNT
    feeder, diffusion, viol_cfg, pf_cfg, _ = _build_parts(config)
    if scenario_path is not None:
        try:
            bits = load_scenarios(scenario_path, feeder)
        except ValueError as exc:
            raise ConfigError(str(exc))
    else:
        _check_budget(count)
        bits = simulate_batch(feeder, diffusion, count, seed=config["seed"])
    try:
        oracle = brute_force_oracle(feeder, viol_cfg, bits, pf_cfg)
    except ValueError as exc:  # more scenarios than the oracle budget
        raise ConfigError(str(exc))
    _write_run(Path(output_dir), "brute-force", config, feeder, oracle, "oracle",
               count=count, scenarios=scenario_path)


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
    try:
        doc = _read_json_object(path, "result file")
    except ParseError as exc:
        raise ConfigError(str(exc))
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
    except (ValueError, TypeError) as exc:
        raise ConfigError(str(exc))
    search_doc = _read_result(Path(search_dir) / "result.json", feeder)
    oracle_doc = (
        _read_result(Path(oracle_dir) / "result.json", feeder) if oracle_dir else None
    )
    outdir = Path(output_dir)
    outdir.mkdir(parents=True, exist_ok=True)
    num_bus = feeder.num_groups
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
    _write_csv(outdir / "scenarios_by_pv.csv",
               ["id", "bits", "total_pv_kw", "max_bus_violation"],
               ([rid, bits, _fmt(pv), _fmt(mv)] for rid, bits, pv, mv in rows))

    # (b) per-objective max violation: search vs oracle vs naive top-N-by-PV.
    base_doc = oracle_doc or search_doc
    ranked = sorted(
        {e["bits"]: e for e in base_doc["evaluations"]}.values(),
        key=lambda e: (-total_pv(e["bits"]), e["id"]),
    )
    top = ranked[:top_n]
    dim = num_bus + feeder.num_lines
    top_max = np.zeros(dim)
    for e in top:
        top_max = np.maximum(top_max, e["violations"])
    maxima = {
        "search_max": search_doc["per_objective_max_violation"],
        **({"oracle_max": oracle_doc["per_objective_max_violation"]} if oracle_doc else {}),
        f"top{top_n}_max": top_max,
    }
    _write_csv(outdir / "max_violation_comparison.csv", ["objective", *maxima],
               ([k] + [_fmt(m[k]) for m in maxima.values()] for k in range(dim)))

    # (c) adopter relevance matrix over critical objectives.
    relevance = search_doc.get("relevance", {})
    _write_csv(outdir / "relevance.csv", ["objective"] + [str(b) for b in feeder.adopters],
               ([key] + [_fmt(v) for v in relevance[key]] for key in sorted(relevance, key=int)))
    click.echo(f"wrote report -> {outdir}")


if __name__ == "__main__":
    main()
