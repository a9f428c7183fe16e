"""Feeder model, validation, file round-trips and the synthetic generator."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridcrit.feeder import (
    Bus,
    Line,
    ParseError,
    ValidationError,
    apply_partition,
    fallback_partition,
    feeder_from_document,
    feeder_to_document,
    generate_synthetic_feeder,
    load_feeder,
    make_feeder,
    save_feeder,
)


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
            make_feeder(buses, lines, slack_bus=0, base_voltage=1.0,
                        base_power=0.1, num_groups=1)

    def test_malformed_json(self, tmp_path):
        path = tmp_path / "f.json"
        path.write_text("{not json")
        with pytest.raises(ParseError):
            load_feeder(path)

    def test_missing_field(self, tmp_path):
        doc = two_bus_document()
        del doc["buses"][0]["load_p"]
        path = tmp_path / "f.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ParseError):
            load_feeder(path)

    @pytest.mark.parametrize("case", ["missing", "directory", "text-load", "infinite-slack"])
    def test_unreadable_or_unconvertible_file_is_parse_error(self, tmp_path, case):
        path = tmp_path / "f.json"
        doc = two_bus_document()
        if case == "directory":
            path.mkdir()
        elif case == "text-load":
            doc["buses"][1]["load_p"] = "abc"
        elif case == "infinite-slack":
            doc["slack_bus"] = float("inf")
        if case in ("text-load", "infinite-slack"):
            path.write_text(json.dumps(doc))
        with pytest.raises(ParseError):
            load_feeder(path)

    def test_wrong_schema_version(self):
        doc = two_bus_document()
        doc["schema"] = 99
        with pytest.raises(ParseError, match="schema"):
            feeder_from_document(doc)


class TestValidation:
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
        # The power-flow caches key on a feeder's hash, computed once.
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


class TestPartition:
    def test_single_group(self, standard_feeder):
        part = fallback_partition(standard_feeder, 1)
        assert part.num_groups == 1
        assert set(part.as_dict().values()) == {1}

    def test_singleton_groups(self, standard_feeder):
        n = standard_feeder.num_buses
        part = fallback_partition(standard_feeder, n)
        assert sorted(part.as_dict().values()) == list(range(1, n + 1))

    def test_groups_are_connected(self, standard_feeder):
        part = fallback_partition(standard_feeder, 3)
        mapping = part.as_dict()
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
        assert fallback_partition(standard_feeder, 3) == fallback_partition(standard_feeder, 3)

    def test_apply_partition_sets_groups(self, standard_feeder):
        part = fallback_partition(standard_feeder, 4)
        updated = apply_partition(standard_feeder, part)
        assert updated.num_groups == 4
        assert updated.partition() == part
