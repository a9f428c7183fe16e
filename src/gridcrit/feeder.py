"""Radial feeder data model, file I/O, synthetic generation and partitioning."""

from __future__ import annotations

import hashlib
import json
import math
import numbers
from dataclasses import dataclass, fields, replace
from functools import cached_property
from pathlib import Path

import numpy as np

SCHEMA_VERSION = 1


class ParseError(ValueError):
    """Raised when a feeder file is malformed."""


class ValidationError(ValueError):
    """Raised when a feeder violates a structural invariant."""


def _check_int(name: str, value, minimum: int | None = None,
               maximum: int | None = None) -> None:
    """Raise ValueError unless ``value`` is an integer (not a bool), at least
    ``minimum`` and at most ``maximum``, of those given."""
    # The builtin type first: an ABC check alone costs ~10x as much.
    if isinstance(value, bool) or not isinstance(value, (int, numbers.Integral)):
        raise ValueError(f"{name} must be an integer, not {value!r}")
    if minimum is not None and value < minimum:
        raise ValueError(f"{name} must be >= {minimum}")
    if maximum is not None and value > maximum:
        raise ValueError(f"{name} must be <= {maximum}")


def _check_real(name: str, value) -> None:
    """Raise ValueError unless ``value`` is a finite real number (not a bool);
    an int beyond float range is not finite."""
    try:
        finite = isinstance(value, (float, int, numbers.Real)) and math.isfinite(value)
    except OverflowError:
        finite = False
    if isinstance(value, bool) or not finite:
        raise ValueError(f"{name} must be a finite number, not {value!r}")


@dataclass(frozen=True)
class Bus:
    """A network node at the minimum-daytime-load snapshot.

    Loads are in kW/kvar, voltage bounds in p.u., PV capacity in kW.
    """

    id: int
    load_p: float
    load_q: float
    v_lower: float
    v_upper: float
    group: int
    is_adopter: bool
    pv_capacity: float


@dataclass(frozen=True)
class Line:
    """A branch between two buses; impedance in ohm, rating in p.u. flow."""

    id: int
    from_bus: int
    to_bus: int
    resistance: float
    reactance: float
    rating: float


@dataclass(frozen=True)
class Feeder:
    """A radial distribution feeder, immutable and checked when built.

    The buses and lines are kept in id order. A feeder that breaks a
    structural invariant raises ValidationError, whether it is built directly
    or through ``dataclasses.replace``.
    """

    buses: tuple[Bus, ...]
    lines: tuple[Line, ...]
    slack_bus: int
    base_voltage: float
    base_power: float
    num_groups: int

    def __post_init__(self):
        object.__setattr__(self, "buses", tuple(sorted(self.buses, key=lambda b: b.id)))
        object.__setattr__(self, "lines", tuple(sorted(self.lines, key=lambda ln: ln.id)))
        buses, lines = self.buses, self.lines
        ids = [b.id for b in buses]
        if len(set(ids)) != len(ids):
            raise ValidationError("duplicate bus ids")
        if len({ln.id for ln in lines}) != len(lines):
            raise ValidationError("duplicate line ids")
        id_set = set(ids)
        if self.slack_bus not in id_set:
            raise ValidationError(f"slack bus {self.slack_bus} not in bus set")
        if self.base_voltage <= 0 or self.base_power <= 0:
            raise ValidationError("base voltage and base power must be positive")
        for b in buses:
            if not b.v_lower < b.v_upper:
                raise ValidationError(f"bus {b.id}: v_lower must be < v_upper")
            if b.pv_capacity < 0:
                raise ValidationError(f"bus {b.id}: negative pv_capacity")
            if b.pv_capacity > 0 and not b.is_adopter:
                raise ValidationError(f"bus {b.id}: pv_capacity > 0 on a non-adopter")
            if not 1 <= b.group <= self.num_groups:
                raise ValidationError(
                    f"bus {b.id}: group {b.group} outside [1, {self.num_groups}]"
                )
        groups = {b.group for b in buses}
        for g in range(1, self.num_groups + 1):
            if g not in groups:
                raise ValidationError(f"group {g} is empty")
        for ln in lines:
            if ln.resistance < 0 or ln.reactance < 0:
                raise ValidationError(f"line {ln.id}: negative impedance")
            if ln.resistance + ln.reactance <= 0:
                raise ValidationError(f"line {ln.id}: zero impedance")
            if ln.rating <= 0:
                raise ValidationError(f"line {ln.id}: rating must be positive")
            if ln.from_bus not in id_set or ln.to_bus not in id_set:
                raise ValidationError(f"line {ln.id}: endpoint not a known bus")
        if len(lines) != len(buses) - 1:
            raise ValidationError(
                f"not radial: {len(lines)} lines for {len(buses)} buses"
            )
        self.tree  # raises ValidationError on a cycle

    @cached_property
    def tree(self) -> tuple[tuple[int, int, int], ...]:
        """The feeder oriented away from the slack bus: ``(bus, parent, line)``
        positions in ``buses`` and ``lines`` of every non-slack bus, in BFS
        order from the slack, each bus's lines taken in line order.

        The power-flow sweep sums in this order. Raises ValidationError if the
        slack does not reach every bus: with one line fewer than buses, the
        lines then close a cycle.
        """
        pos = {b.id: i for i, b in enumerate(self.buses)}
        adj: list[list[tuple[int, int]]] = [[] for _ in self.buses]
        for li, ln in enumerate(self.lines):
            a, b = pos[ln.from_bus], pos[ln.to_bus]
            adj[a].append((b, li))
            adj[b].append((a, li))
        order = [pos[self.slack_bus]]
        seen = set(order)
        tree = []
        for u in order:  # grows as the BFS reaches new buses
            for v, li in adj[u]:
                if v not in seen:
                    seen.add(v)
                    order.append(v)
                    tree.append((v, u, li))
        if len(order) < len(self.buses):
            raise ValidationError("not radial: cycle detected")
        return tuple(tree)

    @property
    def num_buses(self) -> int:
        return len(self.buses)

    @property
    def num_lines(self) -> int:
        return len(self.lines)

    @property
    def adopters(self) -> tuple[int, ...]:
        """Adopter bus ids in ascending order; defines scenario bit order."""
        return tuple(b.id for b in self.buses if b.is_adopter)

    @property
    def num_adopters(self) -> int:
        return len(self.adopters)

    def partition(self) -> dict[int, int]:
        """The partition carried by the bus records: bus id -> group 1..P."""
        return {b.id: b.group for b in self.buses}

    def content_hash(self) -> str:
        """Stable hash of the feeder contents, used in scenario file headers."""
        doc = json.dumps(feeder_to_document(self), sort_keys=True)
        return hashlib.sha256(doc.encode()).hexdigest()[:16]


def _integer(record: dict, key: str) -> int:
    _check_int(key, record[key])
    return int(record[key])


def _real(record: dict, key: str) -> float:
    _check_real(key, record[key])
    return float(record[key])


def _flag(record: dict, key: str) -> bool:
    if not isinstance(record[key], bool):
        raise ValueError(f"{key} must be true or false, not {record[key]!r}")
    return record[key]


# A bus or line record in a document holds its fields by name. Per record
# type, in field order: each field's name and the reader of its declared type
# (``f.type`` is the annotation's text: this module postpones annotations).
_FIELDS = {
    cls: tuple((f.name, {"int": _integer, "float": _real, "bool": _flag}[f.type])
               for f in fields(cls))
    for cls in (Bus, Line)
}


def _to_record(item: Bus | Line) -> dict:
    return {name: getattr(item, name) for name, _ in _FIELDS[type(item)]}


def _from_record(cls: type, record: dict) -> Bus | Line:
    return cls(*[read(record, name) for name, read in _FIELDS[cls]])


def feeder_to_document(feeder: Feeder) -> dict:
    """Serialize a feeder to its JSON document form (schema 1): each bus and
    line record is ``{field name: value}``."""
    return {
        "schema": SCHEMA_VERSION,
        "base_voltage_kv": feeder.base_voltage,
        "base_power_mva": feeder.base_power,
        "slack_bus": feeder.slack_bus,
        "num_groups": feeder.num_groups,
        "buses": [_to_record(b) for b in feeder.buses],
        "lines": [_to_record(ln) for ln in feeder.lines],
    }


def feeder_from_document(doc: dict) -> Feeder:
    """Build and validate a feeder from its JSON document form.

    Nothing is coerced: each record field is read as its declared type, so
    ids, line ends, the slack, groups and ``num_groups`` must be integers,
    ``is_adopter`` a bool and the other fields finite numbers, or the
    document is a ParseError.
    """
    if isinstance(doc.get("schema"), bool) or doc.get("schema") != SCHEMA_VERSION:
        raise ParseError(f"unsupported or missing schema version: {doc.get('schema')!r}")
    try:
        buses = [_from_record(Bus, b) for b in doc["buses"]]
        lines = [_from_record(Line, ln) for ln in doc["lines"]]
        slack_bus = _integer(doc, "slack_bus")
        base_voltage = _real(doc, "base_voltage_kv")
        base_power = _real(doc, "base_power_mva")
        num_groups = _integer(doc, "num_groups")
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ParseError(f"malformed feeder document: {exc}") from exc
    return Feeder(buses, lines, slack_bus, base_voltage, base_power, num_groups)


def _read_json_object(path, what: str) -> dict:
    """The JSON object in the UTF-8 file at ``path``. Raises ParseError, naming
    the file as ``what``, for a path that cannot be read (a directory too),
    text that is not UTF-8 or not JSON, and a document that is not an object.
    """
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
    except OSError as exc:
        raise ParseError(f"cannot read {what}: {exc}") from exc
    except ValueError as exc:  # invalid JSON or text that is not UTF-8
        raise ParseError(f"{what} {path} is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ParseError(f"{what} {path} is not a JSON object")
    return doc


def load_feeder(path) -> Feeder:
    """Load and validate a feeder JSON file."""
    return feeder_from_document(_read_json_object(path, "feeder file"))


def save_feeder(feeder: Feeder, path) -> None:
    """Write a feeder to disk; byte-deterministic for a given feeder."""
    Path(path).write_text(
        json.dumps(feeder_to_document(feeder), indent=2, sort_keys=True) + "\n"
    )


def generate_synthetic_feeder(
    num_buses: int, num_adopters: int, seed: int
) -> Feeder:
    """Generate a random radial feeder for desk-scale experiments.

    The tree is grown as up to three chain-biased branches hanging off a
    shared trunk bus below the slack, so every injection couples into every
    voltage through the trunk line. Branches carry asymmetric load and PV
    profiles (a heavy-load/low-PV
    branch, a light-load/high-PV branch, a balanced one, shuffled by seed) so
    that undervoltage, overvoltage, forward-overload and reverse-overload
    objectives genuinely conflict and non-trivial Pareto fronts exist.

    Parameter ranges (documented contract of the generator):

    - load_p ~ U(8, 16) kW times a branch factor in {2.2, 1.2, 0.7},
      load_q = 0.3 * load_p
    - pv_capacity ~ U(18, 40) kW times a branch factor in {0.45, 1.0, 1.8}
      on adopter buses (placed uniformly among non-slack buses), times
      max(1, (15/14) * (n - 1) / A)
    - line resistance ~ U(0.15, 0.45) ohm times (15/n)^1.5,
      reactance = 0.5 * resistance
    - line rating ~ U(0.6, 1.1) p.u. scaled up near the substation by the
      number of downstream buses, times (n/15)^0.5
    - voltage tolerance (0.95, 1.05) p.u., base 1.0 kV / 0.1 MVA

    Here n is ``num_buses`` and A ``num_adopters``. The three size factors
    keep the voltage drop and the PV per adopter near those of a 15-bus
    feeder with 12 adopters; each is exactly 1 when n <= 15, so those feeders
    are unscaled. Checked from 16 to 400 buses with A = max(12, n // 5): the
    power flow converges for every adoption pattern tried, and each feeder
    can undervolt, overvolt and overload a line.

    Deterministic for a fixed argument triple. All buses are placed in a
    single group; :func:`fallback_partition` regroups it for multi-group
    studies.
    """
    if num_buses < 2:
        raise ValueError("num_buses must be >= 2")
    if not 1 <= num_adopters < num_buses:
        raise ValueError("need 1 <= num_adopters < num_buses")
    rng = np.random.default_rng(seed)
    # Size factors; a factor of exactly 1.0 leaves a feeder of <= 15 buses bit for bit.
    n, scaled = num_buses, num_buses > 15
    z_scale = (15 / n) ** 1.5 if scaled else 1.0
    rating_scale = (n / 15) ** 0.5 if scaled else 1.0
    pv_scale = max(1.0, (15 / 14) * (n - 1) / num_adopters) if scaled else 1.0

    num_branches = min(3, num_buses - 1)
    parents = np.zeros(num_buses, dtype=int)  # parents[i] for bus i >= 1
    branch_of = np.zeros(num_buses, dtype=int)
    branch_members: list[list[int]] = [[] for _ in range(num_branches)]
    for i in range(1, num_buses):
        br = (i - 1) % num_branches
        branch_of[i] = br
        members = branch_members[br]
        if not members:
            # Branch roots share the trunk head (bus 1) rather than the slack,
            # so no subtree is electrically independent of the others.
            parents[i] = 0 if i == 1 else 1
        else:
            # Chain-biased attachment within the branch: prefer recent buses.
            weights = np.arange(1, len(members) + 1, dtype=float) ** 3
            parents[i] = members[rng.choice(len(members), p=weights / weights.sum())]
        members.append(i)

    adopter_ids = set(
        rng.choice(np.arange(1, num_buses), size=num_adopters, replace=False).tolist()
    )

    profiles = [(2.2, 0.45), (0.7, 1.8), (1.2, 1.0)]  # (load factor, PV factor)
    perm = rng.permutation(num_branches)
    load_factor = np.array([profiles[perm[b] % 3][0] for b in range(num_branches)])
    pv_factor = np.array([profiles[perm[b] % 3][1] for b in range(num_branches)])

    # Downstream bus counts, used to grade line ratings toward the substation.
    downstream = np.ones(num_buses)
    for i in range(num_buses - 1, 0, -1):
        downstream[parents[i]] += downstream[i]

    buses = []
    for i in range(num_buses):
        lf = load_factor[branch_of[i]] if i > 0 else 1.0
        pf = pv_factor[branch_of[i]] if i > 0 else 1.0
        load_p = float(rng.uniform(8.0, 16.0)) * lf
        is_adopter = i in adopter_ids
        buses.append(
            Bus(
                id=i,
                load_p=load_p,
                load_q=0.3 * load_p,
                v_lower=0.95,
                v_upper=1.05,
                group=1,
                is_adopter=is_adopter,
                pv_capacity=float(rng.uniform(18.0, 40.0)) * pf * pv_scale if is_adopter else 0.0,
            )
        )
    lines = []
    for i in range(1, num_buses):
        r = float(rng.uniform(0.15, 0.45)) * z_scale
        grade = 1.0 + 0.35 * np.log1p(downstream[i])
        rating = float(rng.uniform(0.6, 1.1)) * grade * rating_scale
        lines.append(
            Line(
                id=num_buses + i - 1,
                from_bus=int(parents[i]),
                to_bus=i,
                resistance=r,
                reactance=0.5 * r,
                rating=rating,
            )
        )
    return Feeder(
        buses,
        lines,
        slack_bus=0,
        base_voltage=1.0,
        base_power=0.1,
        num_groups=1,
    )


def fallback_partition(feeder: Feeder, target_groups: int) -> Feeder:
    """The feeder with its buses in a deterministic balanced tree-cut
    partition into connected groups.

    Greedily cuts ``target_groups - 1`` lines. Each cut splits the largest
    group (ties: the one holding the lowest bus id) at the line whose cut
    leaves a side closest to half of it, ties going to the lowest line id. A
    side is measured below its line in the slack-rooted ``Feeder.tree``:
    ``|size - half|`` is the same from either side of a cut. Every group
    induces a connected subtree. Every other field is kept.
    """
    if not 1 <= target_groups <= feeder.num_buses:
        raise ValueError("target_groups must be in [1, num_buses]")
    tree = feeder.tree
    # Each bus position's group, named by the group's top bus: the slack, or
    # the bus below a cut line. Positions follow bus id order.
    top = [[b.id for b in feeder.buses].index(feeder.slack_bus)] * feeder.num_buses
    while True:
        low = {t: i for i, t in reversed(list(enumerate(top)))}  # group -> lowest position
        if len(low) == target_groups:
            break
        size = [1] * feeder.num_buses  # of each bus's subtree within its group
        for u, par, _ in reversed(tree):
            if top[u] == top[par]:
                size[par] += size[u]
        split = min(low, key=lambda t: (-size[t], low[t]))
        half = size[split] / 2.0
        cut, _ = min(
            ((u, feeder.lines[li].id) for u, _, li in tree if top[u] == split and u != split),
            key=lambda c: (abs(size[c[0]] - half), c[1]),
        )
        top[cut] = cut
        for u, par, _ in tree:  # parents come before their children
            if top[u] == split and top[par] == cut:
                top[u] = cut

    group = {t: g for g, t in enumerate(sorted(low, key=low.get), start=1)}
    return replace(
        feeder,
        buses=tuple(replace(b, group=group[t]) for b, t in zip(feeder.buses, top)),
        num_groups=target_groups,
    )
