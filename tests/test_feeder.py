"""Feeder model, validation, file round-trips and the synthetic generator."""

import json
import re
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridcrit.feeder import (
    Bus,
    Feeder,
    Line,
    ParseError,
    ValidationError,
    fallback_partition,
    feeder_from_document,
    feeder_to_document,
    generate_synthetic_feeder,
    load_feeder,
    save_feeder,
)
from gridcrit.powerflow import solve_power_flow


def two_bus_document():
    return {
        "schema": 1,
        "base_voltage_kv": 1.0,
        "base_power_mva": 0.1,
        "slack_bus": 0,
        "num_groups": 1,
        "buses": [
            {"id": 0, "load_p": 0.0, "load_q": 0.0, "v_lower": 0.95,
             "v_upper": 1.05, "group": 1, "is_adopter": False, "pv_capacity": 0.0},
            {"id": 1, "load_p": 5.0, "load_q": 1.5, "v_lower": 0.95,
             "v_upper": 1.05, "group": 1, "is_adopter": True, "pv_capacity": 8.0},
        ],
        "lines": [
            {"id": 2, "from_bus": 0, "to_bus": 1, "resistance": 0.2,
             "reactance": 0.1, "rating": 1.0},
        ],
    }


class TestLoadFeeder:
    def test_smallest_radial_network(self, tmp_path):
        path = tmp_path / "f.json"
        path.write_text(json.dumps(two_bus_document()))
        feeder = load_feeder(path)
        assert feeder.num_buses == 2
        assert feeder.num_lines == 1
        assert feeder.adopters == (1,)

    def test_line_count_mismatch_is_not_radial(self, tmp_path):
        doc = two_bus_document()
        doc["buses"].append(
            {"id": 2, "load_p": 1.0, "load_q": 0.3, "v_lower": 0.95,
             "v_upper": 1.05, "group": 1, "is_adopter": False, "pv_capacity": 0.0}
        )
        doc["lines"] += [
            {"id": 3, "from_bus": 1, "to_bus": 2, "resistance": 0.2,
             "reactance": 0.1, "rating": 1.0},
            {"id": 4, "from_bus": 0, "to_bus": 2, "resistance": 0.2,
             "reactance": 0.1, "rating": 1.0},
        ]
        path = tmp_path / "f.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ValidationError, match="not radial"):
            load_feeder(path)

    def test_cycle_detected(self):
        buses = [
            Bus(i, 1.0, 0.3, 0.95, 1.05, 1, False, 0.0) for i in range(4)
        ]
        lines = [
            Line(4, 0, 1, 0.1, 0.05, 1.0),
            Line(5, 1, 2, 0.1, 0.05, 1.0),
            Line(6, 2, 1, 0.1, 0.05, 1.0),  # duplicate edge closes a cycle
        ]
        with pytest.raises(ValidationError, match="cycle detected"):
            Feeder(buses, lines, slack_bus=0, base_voltage=1.0,
                   base_power=0.1, num_groups=1)

    @pytest.mark.parametrize("ends", [
        [(0, 1), (1, 2), (3, 3)],          # a self-loop leaves bus 3 unreached
        [(0, 1), (2, 3), (3, 2)],          # a cycle apart from the slack
    ], ids=["self-loop", "cycle-off-slack"])
    def test_cycle_detected_anywhere(self, ends):
        buses = [Bus(i, 1.0, 0.3, 0.95, 1.05, 1, False, 0.0) for i in range(4)]
        lines = [Line(4 + i, a, b, 0.1, 0.05, 1.0) for i, (a, b) in enumerate(ends)]
        with pytest.raises(ValidationError, match="cycle detected"):
            Feeder(buses, lines, slack_bus=0, base_voltage=1.0,
                   base_power=0.1, num_groups=1)

    def test_duplicate_line_ids(self, tmp_path):
        # Line ids order the partitioner's tie-break; a shared id would leave it
        # to list position.
        doc = two_bus_document()
        doc["buses"].append(
            {"id": 2, "load_p": 1.0, "load_q": 0.3, "v_lower": 0.95,
             "v_upper": 1.05, "group": 1, "is_adopter": False, "pv_capacity": 0.0}
        )
        doc["lines"].append(
            {"id": 2, "from_bus": 1, "to_bus": 2, "resistance": 0.2,
             "reactance": 0.1, "rating": 1.0}
        )
        path = tmp_path / "f.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ValidationError, match="duplicate line ids"):
            load_feeder(path)

    def test_malformed_json(self, tmp_path):
        path = tmp_path / "f.json"
        path.write_text("{not json")
        with pytest.raises(ParseError):
            load_feeder(path)

    @pytest.mark.parametrize("section, key", [
        *(("buses", f.name) for f in fields(Bus)),
        *(("lines", f.name) for f in fields(Line)),
    ])
    def test_missing_field(self, tmp_path, section, key):
        doc = two_bus_document()
        del doc[section][0][key]
        path = tmp_path / "f.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ParseError, match=f"'{key}'"):
            load_feeder(path)

    # Most of these values would pass a cast (``bool("false")`` is True,
    # ``int(5.7)`` is 5) or slip through the range checks (every comparison
    # with NaN is false); an integer beyond the float range cannot be a real.
    BAD_VALUES = {
        "text-load": ("buses", 1, "load_p", "abc"),
        "infinite-slack": (None, None, "slack_bus", float("inf")),
        "text-adopter-flag": ("buses", 0, "is_adopter", "false"),
        "integer-adopter-flag": ("buses", 0, "is_adopter", 0),
        "fractional-line-id": ("lines", 0, "id", 5.7),
        "fractional-bus-id": ("buses", 1, "id", 1.0),
        "numeric-text-load": ("buses", 1, "load_p", "5"),
        "bool-group": ("buses", 1, "group", True),
        "bool-line-end": ("lines", 0, "to_bus", True),
        "fractional-num-groups": (None, None, "num_groups", 1.0),
        "nan-resistance": ("lines", 0, "resistance", float("nan")),
        "nan-load": ("buses", 1, "load_q", float("nan")),
        "nan-base": (None, None, "base_power_mva", float("nan")),
        "bool-rating": ("lines", 0, "rating", True),
        "float-overflowing-load": ("buses", 1, "load_p", 10**400),
    }

    @pytest.mark.parametrize("case", ["missing", "directory", *BAD_VALUES])
    def test_unreadable_or_unconvertible_file_is_parse_error(self, tmp_path, case):
        path = tmp_path / "f.json"
        doc = two_bus_document()
        if case == "directory":
            path.mkdir()
        elif case in self.BAD_VALUES:
            section, index, key, value = self.BAD_VALUES[case]
            (doc[section][index] if section else doc)[key] = value
            path.write_text(json.dumps(doc))
        with pytest.raises(ParseError):
            load_feeder(path)

    def test_wrong_schema_version(self):
        for schema in (99, True):
            doc = two_bus_document()
            doc["schema"] = schema
            with pytest.raises(ParseError, match="schema"):
                feeder_from_document(doc)


def extra_bus(doc, *lines):
    """Add a non-adopter bus 2 to ``doc`` and a line per ``(id, from, to)``."""
    doc["buses"].append(
        {"id": 2, "load_p": 1.0, "load_q": 0.3, "v_lower": 0.95,
         "v_upper": 1.05, "group": 1, "is_adopter": False, "pv_capacity": 0.0}
    )
    doc["lines"] += [{"id": i, "from_bus": a, "to_bus": b, "resistance": 0.2,
                      "reactance": 0.1, "rating": 1.0} for i, a, b in lines]


def feeder_fields(doc) -> dict:
    """The ``Feeder`` fields a document holds, read without any check."""
    return {
        "buses": tuple(Bus(**b) for b in doc["buses"]),
        "lines": tuple(Line(**ln) for ln in doc["lines"]),
        "slack_bus": doc["slack_bus"],
        "base_voltage": doc["base_voltage_kv"],
        "base_power": doc["base_power_mva"],
        "num_groups": doc["num_groups"],
    }


class TestValidation:
    # Each feeder check, as an edit of the two-bus document and its message.
    CHECKS = {
        "duplicate-bus-ids": (lambda d: d["buses"][1].update(id=0), "duplicate bus ids"),
        "duplicate-line-ids": (lambda d: extra_bus(d, (2, 1, 2)), "duplicate line ids"),
        "unknown-slack": (lambda d: d.update(slack_bus=77), "slack bus 77 not in bus set"),
        "zero-base-voltage": (lambda d: d.update(base_voltage_kv=0.0),
                              "base voltage and base power must be positive"),
        "negative-base-power": (lambda d: d.update(base_power_mva=-0.1),
                                "base voltage and base power must be positive"),
        "inverted-voltage-bounds": (lambda d: d["buses"][1].update(v_lower=1.1),
                                    "bus 1: v_lower must be < v_upper"),
        "negative-pv": (lambda d: d["buses"][1].update(pv_capacity=-1.0),
                        "bus 1: negative pv_capacity"),
        "pv-on-non-adopter": (lambda d: d["buses"][1].update(is_adopter=False),
                              "bus 1: pv_capacity > 0 on a non-adopter"),
        "group-zero": (lambda d: d["buses"][1].update(group=0), "bus 1: group 0 outside [1, 1]"),
        "group-above-count": (lambda d: d["buses"][1].update(group=2),
                              "bus 1: group 2 outside [1, 1]"),
        "empty-group": (lambda d: d.update(num_groups=2), "group 2 is empty"),
        "negative-impedance": (lambda d: d["lines"][0].update(reactance=-0.1),
                               "line 2: negative impedance"),
        "zero-impedance": (lambda d: d["lines"][0].update(resistance=0.0, reactance=0.0),
                           "line 2: zero impedance"),
        "zero-rating": (lambda d: d["lines"][0].update(rating=0.0),
                        "line 2: rating must be positive"),
        "unknown-endpoint": (lambda d: d["lines"][0].update(to_bus=5),
                             "line 2: endpoint not a known bus"),
        "too-few-lines": (lambda d: d.update(lines=[]), "not radial: 0 lines for 2 buses"),
        "cycle": (lambda d: extra_bus(d, (3, 1, 0)), "not radial: cycle detected"),
    }

    @pytest.mark.parametrize("route", ["document", "constructor", "replace"])
    @pytest.mark.parametrize("check", list(CHECKS))
    def test_every_check_fires_however_the_feeder_is_built(self, check, route):
        edit, message = self.CHECKS[check]
        doc = two_bus_document()
        edit(doc)
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            if route == "document":
                feeder_from_document(doc)
            elif route == "constructor":
                Feeder(**feeder_fields(doc))
            else:
                valid = feeder_from_document(two_bus_document())
                changed = {name: value for name, value in feeder_fields(doc).items()
                           if value != getattr(valid, name)}
                assert changed
                replace(valid, **changed)

    def test_pv_on_non_adopter(self):
        doc = two_bus_document()
        doc["buses"][1]["is_adopter"] = False
        with pytest.raises(ValidationError, match="non-adopter"):
            feeder_from_document(doc)

    def test_inverted_voltage_bounds(self):
        doc = two_bus_document()
        doc["buses"][1]["v_lower"] = 1.1
        with pytest.raises(ValidationError, match="v_lower"):
            feeder_from_document(doc)

    def test_zero_impedance_line(self):
        doc = two_bus_document()
        doc["lines"][0]["resistance"] = 0.0
        doc["lines"][0]["reactance"] = 0.0
        with pytest.raises(ValidationError, match="impedance"):
            feeder_from_document(doc)

    def test_unknown_slack(self):
        doc = two_bus_document()
        doc["slack_bus"] = 77
        with pytest.raises(ValidationError, match="slack"):
            feeder_from_document(doc)

    def test_empty_group(self):
        doc = two_bus_document()
        doc["num_groups"] = 2
        with pytest.raises(ValidationError, match="group"):
            feeder_from_document(doc)


class TestRoundTrip:
    def test_save_load_identity(self, tmp_path, standard_feeder):
        path = tmp_path / "f.json"
        save_feeder(standard_feeder, path)
        assert load_feeder(path) == standard_feeder

    def test_equal_feeders_hash_equal(self, tmp_path, standard_feeder):
        path = tmp_path / "f.json"
        save_feeder(standard_feeder, path)
        copy = load_feeder(path)
        assert copy is not standard_feeder
        assert {copy: 1}[standard_feeder] == 1
        assert hash(copy) == hash(copy) == hash(standard_feeder)

    def test_save_is_byte_deterministic(self, tmp_path, standard_feeder):
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        save_feeder(standard_feeder, p1)
        save_feeder(standard_feeder, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_content_hash_tracks_content(self, standard_feeder):
        assert standard_feeder.content_hash() == standard_feeder.content_hash()
        doc = feeder_to_document(standard_feeder)
        doc["buses"][1]["load_p"] += 1.0
        assert feeder_from_document(doc).content_hash() != standard_feeder.content_hash()


class TestGenerator:
    def test_deterministic(self):
        assert generate_synthetic_feeder(15, 12, seed=7) == generate_synthetic_feeder(15, 12, seed=7)

    def test_generated_feeder_is_valid(self):
        feeder = generate_synthetic_feeder(15, 12, seed=7)
        assert feeder.num_buses == 15
        assert feeder.num_lines == 14
        assert feeder.num_adopters == 12

    def test_minimal_size(self):
        feeder = generate_synthetic_feeder(2, 1, seed=0)
        assert feeder.num_lines == 1

    def test_invalid_sizes(self):
        with pytest.raises(ValueError):
            generate_synthetic_feeder(1, 0, seed=0)
        with pytest.raises(ValueError):
            generate_synthetic_feeder(5, 5, seed=0)

    @given(
        num_buses=st.integers(min_value=2, max_value=30),
        seed=st.integers(min_value=0, max_value=10_000),
    )
    @settings(max_examples=40, deadline=None)
    def test_generator_invariants_hold(self, num_buses, seed):
        num_adopters = max(1, num_buses // 2)
        feeder = generate_synthetic_feeder(num_buses, num_adopters, seed)
        # Independent connectivity check via union-find.
        parent = {b.id: b.id for b in feeder.buses}

        def find(i):
            while parent[i] != i:
                parent[i] = parent[parent[i]]
                i = parent[i]
            return i

        for ln in feeder.lines:
            a, b = find(ln.from_bus), find(ln.to_bus)
            assert a != b  # no cycle
            parent[a] = b
        assert len({find(b.id) for b in feeder.buses}) == 1
        assert feeder.num_lines == feeder.num_buses - 1
        assert feeder.num_adopters == num_adopters

    @pytest.mark.parametrize("num_buses", range(16, 61))
    def test_scaled_feeders_solve_and_violate(self, num_buses):
        # Above 15 buses the size factors keep the power flow convergent while
        # every kind of violation stays reachable.
        num_adopters = max(12, num_buses // 5)
        for seed in range(5):
            feeder = fallback_partition(generate_synthetic_feeder(num_buses, num_adopters, seed), 4)
            rng = np.random.default_rng(seed)
            bits = np.vstack([np.zeros((1, num_adopters)), np.ones((1, num_adopters)),
                              rng.integers(0, 2, (64, num_adopters))]).astype(np.uint8)
            pf = solve_power_flow(feeder, bits)
            assert pf.converged.all(), seed
            assert (pf.voltages < [b.v_lower for b in feeder.buses]).any(), seed
            assert (pf.voltages > [b.v_upper for b in feeder.buses]).any(), seed
            assert (pf.flows > [ln.rating for ln in feeder.lines]).any(), seed


def partition_of(feeder, k):
    """``fallback_partition(feeder, k).partition()``, after checking that the
    result has k groups and differs from ``feeder`` in its bus groups alone."""
    out = fallback_partition(feeder, k)
    assert out.num_groups == k
    regrouped = tuple(replace(b, group=o.group) for b, o in zip(feeder.buses, out.buses))
    assert replace(feeder, buses=regrouped, num_groups=k) == out
    return out.partition()


class TestPartition:
    def test_single_group(self, standard_feeder):
        part = partition_of(standard_feeder, 1)
        assert set(part) == {b.id for b in standard_feeder.buses}
        assert set(part.values()) == {1}

    def test_singleton_groups(self, standard_feeder):
        n = standard_feeder.num_buses
        part = partition_of(standard_feeder, n)
        assert sorted(part.values()) == list(range(1, n + 1))

    def test_groups_are_connected(self, standard_feeder):
        mapping = partition_of(standard_feeder, 3)
        adj = {b.id: set() for b in standard_feeder.buses}
        for ln in standard_feeder.lines:
            adj[ln.from_bus].add(ln.to_bus)
            adj[ln.to_bus].add(ln.from_bus)
        for g in range(1, 4):
            members = {i for i, grp in mapping.items() if grp == g}
            assert members, f"group {g} empty"
            # BFS restricted to the group must reach every member.
            start = min(members)
            seen, frontier = {start}, [start]
            while frontier:
                u = frontier.pop()
                for v in adj[u] & members - seen:
                    seen.add(v)
                    frontier.append(v)
            assert seen == members

    def test_deterministic(self, standard_feeder):
        assert partition_of(standard_feeder, 3) == partition_of(standard_feeder, 3)

    @pytest.mark.parametrize("call, error, message", [
        (lambda f: fallback_partition(f, 0), ValueError,
         "target_groups must be in [1, num_buses]"),
        (lambda f: fallback_partition(f, f.num_buses + 1), ValueError,
         "target_groups must be in [1, num_buses]"),
    ], ids=["no-groups", "more-groups-than-buses"])
    def test_bad_partition_rejected(self, standard_feeder, call, error, message):
        with pytest.raises(error, match=f"^{re.escape(message)}$"):
            call(standard_feeder)


@st.composite
def random_radial_feeders(draw):
    """A random tree over up to 60 buses: scrambled bus and line ids, line
    ends in either direction, the slack anywhere."""
    n = draw(st.integers(min_value=2, max_value=60))
    label = draw(st.permutations(range(n)))
    parents = [draw(st.integers(min_value=0, max_value=i - 1)) for i in range(1, n)]
    line_ids = draw(st.permutations(range(n, 2 * n - 1)))
    flips = draw(st.lists(st.booleans(), min_size=n - 1, max_size=n - 1))
    slack = draw(st.integers(min_value=0, max_value=n - 1))
    buses = [Bus(i, 1.0, 0.3, 0.95, 1.05, 1, False, 0.0) for i in range(n)]
    lines = []
    for i, (par, line_id, flip) in enumerate(zip(parents, line_ids, flips), start=1):
        a, b = (label[i], label[par]) if flip else (label[par], label[i])
        lines.append(Line(line_id, a, b, 0.1, 0.05, 1.0))
    return Feeder(buses, lines, slack_bus=slack, base_voltage=1.0,
                  base_power=0.1, num_groups=1)


@given(feeder=random_radial_feeders())
@settings(max_examples=40, deadline=None)
def test_document_round_trip(feeder):
    assert feeder_from_document(feeder_to_document(feeder)) == feeder


def reference_partitions(feeder):
    """The greedy tree cut, restarted from the whole feeder each time:
    partitions into 1..n groups, by BFS over the feeder minus the cut lines.

    Each cut splits the largest group (ties: lowest bus id) at the remaining
    line one of whose sides is closest to half of it (ties: lowest line id).
    """
    def reach(start, cut):
        adj = {b.id: [] for b in feeder.buses}
        for ln in feeder.lines:
            if ln.id not in cut:
                adj[ln.from_bus].append(ln.to_bus)
                adj[ln.to_bus].append(ln.from_bus)
        seen, frontier = {start}, [start]
        while frontier:
            for v in adj[frontier.pop()]:
                if v not in seen:
                    seen.add(v)
                    frontier.append(v)
        return seen

    def groups(cut):
        out = []
        for b in feeder.buses:  # ascending ids: groups come out by lowest id
            if not any(b.id in g for g in out):
                out.append(reach(b.id, cut))
        return out

    cut: set[int] = set()
    partitions = []
    while True:
        comps = groups(cut)
        partitions.append(
            {bus: g for g, comp in enumerate(comps, start=1) for bus in comp}
        )
        if len(comps) == feeder.num_buses:
            return partitions
        comp = min(comps, key=lambda c: (-len(c), min(c)))
        half = len(comp) / 2.0
        best = min(
            (ln for ln in feeder.lines if ln.id not in cut and ln.from_bus in comp),
            key=lambda ln: (abs(len(reach(ln.to_bus, cut | {ln.id})) - half), ln.id),
        )
        cut.add(best.id)


@given(feeder=random_radial_feeders())
@settings(max_examples=40, deadline=None)
def test_partition_matches_the_reference_at_every_group_count(feeder):
    expected = reference_partitions(feeder)
    for k in range(1, feeder.num_buses + 1):
        assert partition_of(feeder, k) == expected[k - 1], k
