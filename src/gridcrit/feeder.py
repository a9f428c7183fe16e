"""Radial feeder data model, file I/O, synthetic generation and partitioning."""

from __future__ import annotations

import hashlib
import json
from dataclasses import astuple, dataclass, replace
from functools import cached_property
from pathlib import Path

import numpy as np

SCHEMA_VERSION = 1


class FeederError(ValueError):
    """Base error for feeder parsing/validation problems."""


class ParseError(FeederError):
    """Raised when a feeder file is malformed."""


class ValidationError(FeederError):
    """Raised when a feeder violates a structural invariant."""


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
class BusPartition:
    """Total assignment of bus ids to group indices 1..P."""

    assignment: tuple[tuple[int, int], ...]

    def as_dict(self) -> dict[int, int]:
        return dict(self.assignment)

    @property
    def num_groups(self) -> int:
        return max(g for _, g in self.assignment)


@dataclass(frozen=True)
class Feeder:
    """A validated radial distribution feeder (immutable after construction)."""

    buses: tuple[Bus, ...]
    lines: tuple[Line, ...]
    slack_bus: int
    base_voltage: float
    base_power: float
    num_groups: int

    def __hash__(self) -> int:
        # Feeders key the power-flow caches, which look one up per solve:
        # hash the contents once.
        return self._hash

    @cached_property
    def _hash(self) -> int:
        return hash(astuple(self))

    @property
    def num_buses(self) -> int:
        return len(self.buses)

    @property
    def num_lines(self) -> int:
        return len(self.lines)

    @property
    def adopters(self) -> tuple[int, ...]:
        """Adopter bus ids in ascending order; defines scenario bit order."""
        return tuple(sorted(b.id for b in self.buses if b.is_adopter))

    @property
    def num_adopters(self) -> int:
        return len(self.adopters)

    def partition(self) -> BusPartition:
        """The partition carried by the bus records."""
        return BusPartition(tuple((b.id, b.group) for b in self.buses))

    def content_hash(self) -> str:
        """Stable hash of the feeder contents, used in scenario file headers."""
        doc = json.dumps(feeder_to_document(self), sort_keys=True)
        return hashlib.sha256(doc.encode()).hexdigest()[:16]


def _validate(feeder: Feeder) -> Feeder:
    buses, lines = feeder.buses, feeder.lines
    ids = [b.id for b in buses]
    if len(set(ids)) != len(ids):
        raise ValidationError("duplicate bus ids")
    id_set = set(ids)
    if feeder.slack_bus not in id_set:
        raise ValidationError(f"slack bus {feeder.slack_bus} not in bus set")
    if feeder.base_voltage <= 0 or feeder.base_power <= 0:
        raise ValidationError("base voltage and base power must be positive")
    for b in buses:
        if not b.v_lower < b.v_upper:
            raise ValidationError(f"bus {b.id}: v_lower must be < v_upper")
        if b.pv_capacity < 0:
            raise ValidationError(f"bus {b.id}: negative pv_capacity")
        if b.pv_capacity > 0 and not b.is_adopter:
            raise ValidationError(f"bus {b.id}: pv_capacity > 0 on a non-adopter")
        if not 1 <= b.group <= feeder.num_groups:
            raise ValidationError(
                f"bus {b.id}: group {b.group} outside [1, {feeder.num_groups}]"
            )
    groups = {b.group for b in buses}
    for g in range(1, feeder.num_groups + 1):
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
    # Union-find connectivity; with |L| = |B|-1 this also rules out cycles.
    parent = {i: i for i in id_set}

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for ln in lines:
        a, b = find(ln.from_bus), find(ln.to_bus)
        if a == b:
            raise ValidationError("not radial: cycle detected")
        parent[a] = b
    roots = {find(i) for i in id_set}
    if len(roots) != 1:
        raise ValidationError("not radial: graph is disconnected")
    return feeder


def make_feeder(
    buses,
    lines,
    slack_bus: int,
    base_voltage: float,
    base_power: float,
    num_groups: int,
) -> Feeder:
    """Construct and validate a feeder."""
    return _validate(
        Feeder(
            buses=tuple(sorted(buses, key=lambda b: b.id)),
            lines=tuple(sorted(lines, key=lambda ln: ln.id)),
            slack_bus=slack_bus,
            base_voltage=base_voltage,
            base_power=base_power,
            num_groups=num_groups,
        )
    )


def feeder_to_document(feeder: Feeder) -> dict:
    """Serialize a feeder to its JSON document form (schema 1)."""
    return {
        "schema": SCHEMA_VERSION,
        "base_voltage_kv": feeder.base_voltage,
        "base_power_mva": feeder.base_power,
        "slack_bus": feeder.slack_bus,
        "num_groups": feeder.num_groups,
        "buses": [
            {
                "id": b.id,
                "load_p": b.load_p,
                "load_q": b.load_q,
                "v_lower": b.v_lower,
                "v_upper": b.v_upper,
                "group": b.group,
                "is_adopter": b.is_adopter,
                "pv_capacity": b.pv_capacity,
            }
            for b in feeder.buses
        ],
        "lines": [
            {
                "id": ln.id,
                "from_bus": ln.from_bus,
                "to_bus": ln.to_bus,
                "resistance": ln.resistance,
                "reactance": ln.reactance,
                "rating": ln.rating,
            }
            for ln in feeder.lines
        ],
    }


def feeder_from_document(doc: dict) -> Feeder:
    """Build and validate a feeder from its JSON document form."""
    if doc.get("schema") != SCHEMA_VERSION:
        raise ParseError(f"unsupported or missing schema version: {doc.get('schema')!r}")
    try:
        buses = [
            Bus(
                id=int(b["id"]),
                load_p=float(b["load_p"]),
                load_q=float(b["load_q"]),
                v_lower=float(b["v_lower"]),
                v_upper=float(b["v_upper"]),
                group=int(b["group"]),
                is_adopter=bool(b["is_adopter"]),
                pv_capacity=float(b["pv_capacity"]),
            )
            for b in doc["buses"]
        ]
        lines = [
            Line(
                id=int(ln["id"]),
                from_bus=int(ln["from_bus"]),
                to_bus=int(ln["to_bus"]),
                resistance=float(ln["resistance"]),
                reactance=float(ln["reactance"]),
                rating=float(ln["rating"]),
            )
            for ln in doc["lines"]
        ]
        slack_bus = int(doc["slack_bus"])
        base_voltage = float(doc["base_voltage_kv"])
        base_power = float(doc["base_power_mva"])
        num_groups = int(doc["num_groups"])
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ParseError(f"malformed feeder document: {exc}") from exc
    return make_feeder(buses, lines, slack_bus, base_voltage, base_power, num_groups)


def load_feeder(path) -> Feeder:
    """Load and validate a feeder JSON file."""
    try:
        doc = json.loads(Path(path).read_text())
    except OSError as exc:
        raise ParseError(f"cannot read feeder file: {exc}") from exc
    except ValueError as exc:  # invalid JSON or text that is not UTF-8
        raise ParseError(f"not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ParseError("feeder document must be a JSON object")
    return feeder_from_document(doc)


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
      on adopter buses (placed uniformly among non-slack buses)
    - line resistance ~ U(0.15, 0.45) ohm, reactance = 0.5 * resistance
    - line rating ~ U(0.6, 1.1) p.u. scaled up near the substation by the
      number of downstream buses
    - voltage tolerance (0.95, 1.05) p.u., base 1.0 kV / 0.1 MVA

    Deterministic for a fixed argument triple. All buses are placed in a
    single group; apply :func:`fallback_partition` + :func:`apply_partition`
    for multi-group studies.
    """
    if num_buses < 2:
        raise ValueError("num_buses must be >= 2")
    if not 1 <= num_adopters < num_buses:
        raise ValueError("need 1 <= num_adopters < num_buses")
    rng = np.random.default_rng(seed)

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
                pv_capacity=float(rng.uniform(18.0, 40.0)) * pf if is_adopter else 0.0,
            )
        )
    lines = []
    for i in range(1, num_buses):
        r = float(rng.uniform(0.15, 0.45))
        rating = float(rng.uniform(0.6, 1.1)) * (1.0 + 0.35 * np.log1p(downstream[i]))
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
    return make_feeder(
        buses,
        lines,
        slack_bus=0,
        base_voltage=1.0,
        base_power=0.1,
        num_groups=1,
    )


def _adjacency(feeder: Feeder) -> dict[int, list[tuple[int, int]]]:
    adj: dict[int, list[tuple[int, int]]] = {b.id: [] for b in feeder.buses}
    for ln in feeder.lines:
        adj[ln.from_bus].append((ln.to_bus, ln.id))
        adj[ln.to_bus].append((ln.from_bus, ln.id))
    return adj


def fallback_partition(feeder: Feeder, target_groups: int) -> BusPartition:
    """Deterministic balanced tree-cut partition into connected groups.

    Greedily removes ``target_groups - 1`` edges; each removal splits the
    largest current component at the edge whose subtree size is closest to
    half that component. Every resulting group induces a connected subtree.
    """
    if not 1 <= target_groups <= feeder.num_buses:
        raise ValueError("target_groups must be in [1, num_buses]")
    adj = _adjacency(feeder)
    removed: set[int] = set()
    # Components tracked as frozensets of bus ids.
    components: list[set[int]] = [set(b.id for b in feeder.buses)]

    def component_of(root: int, comp: set[int]) -> dict[int, int]:
        """Subtree sizes rooted at `root` within comp, skipping removed edges."""
        order, parent_edge = [], {}
        stack, seen = [root], {root}
        while stack:
            u = stack.pop()
            order.append(u)
            for v, eid in adj[u]:
                if v in comp and v not in seen and eid not in removed:
                    seen.add(v)
                    parent_edge[v] = eid
                    stack.append(v)
        sizes = {u: 1 for u in order}
        for u in reversed(order):
            for v, eid in adj[u]:
                if parent_edge.get(v) == eid and v != u:
                    sizes[u] += sizes[v]
        return {parent_edge[v]: sizes[v] for v in parent_edge}

    for _ in range(target_groups - 1):
        components.sort(key=lambda c: (-len(c), min(c)))
        comp = components[0]
        root = min(comp)
        subtree = component_of(root, comp)
        half = len(comp) / 2.0
        # Closest-to-half subtree; ties broken by lowest edge id.
        eid = min(subtree, key=lambda e: (abs(subtree[e] - half), e))
        removed.add(eid)
        cut = next(ln for ln in feeder.lines if ln.id == eid)
        # Collect the side containing cut.to_bus (away from root).
        side: set[int] = set()
        stack = [cut.to_bus if cut.to_bus != root else cut.from_bus]
        start = stack[0]
        seen = {start}
        while stack:
            u = stack.pop()
            side.add(u)
            for v, e2 in adj[u]:
                if v in comp and v not in seen and e2 not in removed:
                    seen.add(v)
                    stack.append(v)
        components[0] = comp - side
        components.append(side)

    components.sort(key=min)
    assignment = []
    for g, comp in enumerate(components, start=1):
        for bus_id in sorted(comp):
            assignment.append((bus_id, g))
    assignment.sort()
    return BusPartition(tuple(assignment))


def apply_partition(feeder: Feeder, partition: BusPartition) -> Feeder:
    """Return a new feeder whose bus groups follow the given partition."""
    mapping = partition.as_dict()
    if set(mapping) != {b.id for b in feeder.buses}:
        raise ValidationError("partition does not cover exactly the feeder's buses")
    buses = [replace(b, group=mapping[b.id]) for b in feeder.buses]
    return make_feeder(
        buses,
        feeder.lines,
        slack_bus=feeder.slack_bus,
        base_voltage=feeder.base_voltage,
        base_power=feeder.base_power,
        num_groups=max(mapping.values()),
    )
