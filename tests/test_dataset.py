import copy
import functools
import json
import operator
import random

import numpy as np
import pytest

from fuzzykernels import cli, dataset, sets
from fuzzykernels import (
    Dataset,
    DiscreteFuzzySet,
    GaussianFuzzySet,
    GroundSpace,
    Partition,
    ValidationError,
    compute_gram,
    dataset_from_obj,
    dataset_to_obj,
    parse_dataset,
    spec_from_config,
    write_dataset,
)
from fuzzykernels.cli import main
from test_benchmark_outputs import workloads
from test_cli import HOSTILE, MUTATED_DATA, TABLE, _sites

MINIMAL = {
    "ground_space": {"points": [[0.0], [5.0], [10.0]]},
    "records": [[{"type": "discrete", "degrees": {"0": 1.0, "1": 0.5}}]],
}


def write_json(tmp_path, obj, name="data.json"):
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return path


class TestParse:
    def test_minimal_valid_file(self, tmp_path):
        ds = parse_dataset(write_json(tmp_path, MINIMAL))
        assert len(ds) == 1
        assert isinstance(ds.records[0][0], DiscreteFuzzySet)
        assert ds.records[0][0].degrees[1] == 0.5
        assert ds.labels is None

    def test_degree_out_of_range_names_record(self, tmp_path):
        bad = json.loads(json.dumps(MINIMAL))
        bad["records"][0][0]["degrees"]["1"] = 1.5
        with pytest.raises(ValidationError, match=r"records\[0\]\[0\]"):
            parse_dataset(write_json(tmp_path, bad))

    def test_partition_with_unknown_index(self, tmp_path):
        bad = json.loads(json.dumps(MINIMAL))
        bad["ground_space"]["partition"] = {"cells": [[0, 1], [2, 7]]}
        with pytest.raises(ValidationError, match="partition"):
            parse_dataset(write_json(tmp_path, bad))

    def test_degree_index_outside_ground(self, tmp_path):
        bad = json.loads(json.dumps(MINIMAL))
        bad["records"][0][0]["degrees"]["9"] = 0.5
        with pytest.raises(ValidationError, match=r"records\[0\]\[0\]"):
            parse_dataset(write_json(tmp_path, bad))

    def test_malformed_json_reports_location(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{"records": [')
        with pytest.raises(ValidationError, match="line"):
            parse_dataset(path)

    def test_arity_mismatch(self, tmp_path):
        bad = json.loads(json.dumps(MINIMAL))
        bad["records"].append(
            [
                {"type": "discrete", "degrees": {"0": 1.0}},
                {"type": "discrete", "degrees": {"1": 1.0}},
            ]
        )
        with pytest.raises(ValidationError, match=r"records\[1\]"):
            parse_dataset(write_json(tmp_path, bad))

    def test_kind_mismatch(self, tmp_path):
        bad = json.loads(json.dumps(MINIMAL))
        bad["records"].append([{"type": "gaussian", "m": [0.0], "sigma": [1.0]}])
        with pytest.raises(ValidationError, match=r"records\[1\]"):
            parse_dataset(write_json(tmp_path, bad))

    def test_labels_validated(self, tmp_path):
        bad = json.loads(json.dumps(MINIMAL))
        bad["labels"] = [2]
        with pytest.raises(ValidationError, match=r"labels\[0\]"):
            parse_dataset(write_json(tmp_path, bad))
        bad["labels"] = [1, -1]
        with pytest.raises(ValidationError, match="labels"):
            parse_dataset(write_json(tmp_path, bad))

    def test_gaussian_records_need_no_ground(self, tmp_path):
        obj = {"records": [[{"type": "gaussian", "m": [0.0, 1.0], "sigma": [1.0, 2.0]}]]}
        ds = parse_dataset(write_json(tmp_path, obj))
        assert ds.ground is None
        assert isinstance(ds.records[0][0], GaussianFuzzySet)

    def test_discrete_without_ground_rejected(self, tmp_path):
        obj = {"records": [[{"type": "discrete", "degrees": {"0": 1.0}}]]}
        with pytest.raises(ValidationError, match="ground_space"):
            parse_dataset(write_json(tmp_path, obj))

    @pytest.mark.parametrize(
        "m, sigma, match",
        [
            pytest.param([0.0], [0.0], r"records\[0\]\[0\]: sigma\[0\] must be finite and > 0", id="sigma-zero"),
            pytest.param([0.0, "a"], [1.0, 1.0], r"records\[0\]\[0\]: m\[1\] must be a number", id="m-string"),
            pytest.param([0.0], [True], r"records\[0\]\[0\]: sigma\[0\] must be a number", id="sigma-bool"),
            pytest.param(
                [0.0, 1.0], [1.0], r"records\[0\]\[0\]: m and sigma must be equal-length non-empty vectors",
                id="shapes",
            ),
            pytest.param([[0.0]], [[1.0]], r"records\[0\]\[0\]: m and sigma must be equal-length", id="m-matrix"),
        ],
    )
    def test_gaussian_errors_name_the_file_keys(self, tmp_path, m, sigma, match):
        # GaussianFuzzySet's own errors name means[...] and widths[...]; the reader names the keys it read
        obj = {"records": [[{"type": "gaussian", "m": m, "sigma": sigma}]]}
        with pytest.raises(ValidationError, match=match):
            parse_dataset(write_json(tmp_path, obj))


class TestRoundTrip:
    def _dataset(self):
        p = Partition([[0, 1], [2]], measures=[2.0, 1.5])
        g = GroundSpace([[0.0], [5.0], [10.0]], partition=p)
        records = [
            (DiscreteFuzzySet(g, {0: 1.0, 1: 0.25}),),
            (DiscreteFuzzySet(g, {2: 0.75}),),
        ]
        return Dataset(ground=g, records=records, labels=np.array([1, -1]))

    def test_parse_after_serialize_is_identity(self, tmp_path):
        ds = self._dataset()
        path = tmp_path / "round.json"
        write_dataset(ds, path)
        back = parse_dataset(path)
        assert back == ds

    def test_obj_round_trip_gaussian(self):
        records = [
            (GaussianFuzzySet([0.0], [1.0]), GaussianFuzzySet([2.0], [0.5])),
            (GaussianFuzzySet([1.0], [1.0]), GaussianFuzzySet([3.0], [0.5])),
        ]
        ds = Dataset(ground=None, records=records)
        assert dataset_from_obj(dataset_to_obj(ds)) == ds

    def test_serialization_is_deterministic(self, tmp_path):
        ds = self._dataset()
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        write_dataset(ds, p1)
        write_dataset(ds, p2)
        assert p1.read_bytes() == p2.read_bytes()


def _two_records():
    ground = GroundSpace([[0.0], [1.0]])
    return ground, [(DiscreteFuzzySet(ground, {0: 1.0}),), (DiscreteFuzzySet(ground, {1: 0.5}),)]


def _mutated_to_a_float():
    """A Dataset whose records were set, after it was built, to one whose attribute is no fuzzy set."""
    ds = Dataset(ground=None, records=[(GaussianFuzzySet([0.0], [1.0]),)])
    ds.records = [(1.0,)]
    return ds


class TestLabels:
    """A Dataset checks its own labels by the reader's rule, so no Dataset holds labels that
    ``write_dataset`` would write and ``parse_dataset`` refuse."""

    @pytest.mark.parametrize(
        "labels, match",
        [
            pytest.param([2, 1], r"labels\[0\] must be \+1 or -1, got 2", id="two"),
            pytest.param(np.array([1, 2]), r"labels\[1\] must be \+1 or -1, got 2", id="int-array-two"),
            pytest.param([1, 0.5], r"labels\[1\] must be \+1 or -1, got 0.5", id="half"),
            pytest.param([1], r"a flat vector of 2 entries, got shape \(1,\)", id="one-short"),
            pytest.param([1, -1, 1], r"a flat vector of 2 entries, got shape \(3,\)", id="one-over"),
            pytest.param([[1, -1]], r"a flat vector of 2 entries, got shape \(1, 2\)", id="nested"),
            pytest.param(["1", -1], r"labels\[0\] must be a number", id="string"),
            pytest.param([True, -1], r"labels\[0\] must be a number", id="bool"),
        ],
    )
    def test_bad_labels_raise_the_readers_message(self, labels, match):
        ground, records = _two_records()
        with pytest.raises(ValidationError, match=match) as built:
            Dataset(ground=ground, records=records, labels=labels)
        doc = dataset_to_obj(Dataset(ground=ground, records=records))
        with pytest.raises(ValidationError) as read:
            dataset_from_obj({**doc, "labels": np.asarray(labels, dtype=object).tolist()})
        assert str(built.value) == str(read.value)

    @pytest.mark.parametrize(
        "labels",
        [
            pytest.param(np.array([1, -1]), id="int-array"),
            pytest.param(np.array([1.0, -1.0]), id="float-array"),
            pytest.param([1.0, -1], id="float-list"),
            pytest.param((1, -1), id="tuple"),
        ],
    )
    def test_labels_are_held_as_ints_and_read_back_equal(self, tmp_path, labels):
        ground, records = _two_records()
        ds = Dataset(ground=ground, records=records, labels=labels)
        assert ds.labels == [1, -1] and {*map(type, ds.labels)} == {int}
        write_dataset(ds, tmp_path / "data.json")
        assert parse_dataset(tmp_path / "data.json") == ds
        assert ds != Dataset(ground=ground, records=records)

    def test_write_refuses_an_attribute_that_is_no_fuzzy_set(self, tmp_path):
        with pytest.raises(ValidationError, match="not a fuzzy attribute: 1.0"):
            write_dataset(Dataset(ground=None, records=[(1.0,)]), tmp_path / "data.json")

    @pytest.mark.parametrize("ds", [lambda: None, _mutated_to_a_float], ids=["none", "bad-attribute"])
    def test_write_opens_no_file_for_a_bad_dataset(self, tmp_path, ds):
        # the file was opened, and left empty, before the dataset was read
        with pytest.raises(ValidationError):
            write_dataset(ds(), tmp_path / "data.json")
        assert not (tmp_path / "data.json").exists()

    @pytest.mark.parametrize(
        "mutate, match",
        [
            pytest.param(lambda ds: setattr(ds, "labels", [5, 5]), r"labels\[0\] must be \+1 or -1", id="labels-set"),
            pytest.param(lambda ds: ds.labels.__setitem__(1, 5), r"labels\[1\] must be \+1 or -1", id="label-changed"),
            pytest.param(
                lambda ds: setattr(ds, "records", [(1.0,)]), r"records\[0\]\[0\]: not a fuzzy attribute: 1.0",
                id="records-set",
            ),
        ],
    )
    def test_write_checks_fields_changed_after_construction(self, tmp_path, mutate, match):
        # the fields are plain, mutable lists: the writer once wrote labels and records that
        # parse_dataset refuses, because only the constructor checked them
        ground, records = _two_records()
        ds = Dataset(ground=ground, records=records, labels=[1, -1])
        mutate(ds)
        with pytest.raises(ValidationError, match=match):
            write_dataset(ds, tmp_path / "data.json")
        assert not (tmp_path / "data.json").exists()


def _fuzzified(method):
    """The Dataset that ``fuzzify`` builds from TABLE by ``method``, caught before it is written."""

    def build(tmp_path, monkeypatch):
        built = []
        monkeypatch.setattr(cli, "write_dataset", lambda ds, path: built.append(ds))
        (tmp_path / "table.csv").write_text(TABLE)
        out = tmp_path / "out.json"
        assert main(["fuzzify", "--data", str(tmp_path / "table.csv"), "--out", str(out), "--method", *method]) == 0
        return built[0]

    return build


def _code_built(**kwargs):
    return lambda tmp_path, monkeypatch: Dataset(**kwargs)


_GROUND = GroundSpace([[0.0], [1.0], [2.0]])
_PARTITIONED = GroundSpace([[0.0], [1.0], [2.0]], Partition([[0, 1], [2]], [2.0, 0.5]))
_G = [GaussianFuzzySet([0.0, 1.0], [0.5, 1.0]), GaussianFuzzySet([1.5, -1.0], [2.0, 0.25])]

ROUND_TRIPS = [
    *(
        pytest.param(lambda tmp_path, monkeypatch, n=name, s=seed: dataset_from_obj(workloads.generate(n, s).document),
                     id=f"{name}-{seed}")
        for name in workloads.NAMES
        for seed in (1, 7)
    ),
    pytest.param(_fuzzified(["gaussian", "--widths", "0.5,2,1"]), id="fuzzify-gaussian"),
    pytest.param(_fuzzified(["histogram", "--bins", "4"]), id="fuzzify-histogram"),
    pytest.param(_code_built(ground=None, records=[(_G[0], _G[1]), [_G[1], _G[0]]]), id="gaussian-only"),
    pytest.param(
        _code_built(ground=_PARTITIONED, records=[(DiscreteFuzzySet(_PARTITIONED, {0: 1.0, 2: 0.5}),),
                                                  (DiscreteFuzzySet(_PARTITIONED, {1: 0.25}),)]),
        id="partitioned",
    ),
    pytest.param(
        _code_built(ground=_GROUND, records=[(DiscreteFuzzySet(_GROUND, {0: 1.0}), _G[0]),
                                             (DiscreteFuzzySet(_GROUND, {1: 0.5, 2: 1.0}), _G[1])]),
        id="two-slot",
    ),
    pytest.param(
        _code_built(ground=_GROUND, records=[(DiscreteFuzzySet(_GROUND, {0: 1.0}),),
                                             (DiscreteFuzzySet(_GROUND, {2: 0.75}),)], labels=np.array([-1.0, 1.0])),
        id="labelled",
    ),
    pytest.param(  # a set on an equal ground that is another object is on the dataset's ground
        _code_built(ground=_GROUND, records=[(DiscreteFuzzySet(GroundSpace([[0.0], [1.0], [2.0]]), {1: 1.0}),)]),
        id="equal-ground",
    ),
]


@pytest.mark.parametrize("build", ROUND_TRIPS)
def test_every_dataset_that_builds_reads_back_equal(tmp_path, monkeypatch, build):
    ds = build(tmp_path, monkeypatch)
    assert type(ds.records) is list and {*map(type, ds.records)} == {tuple}
    assert dataset_from_obj(dataset_to_obj(ds)) == ds
    write_dataset(ds, tmp_path / "back.json")
    assert parse_dataset(tmp_path / "back.json") == ds


_SET = DiscreteFuzzySet(_GROUND, {0: 1.0})


@pytest.mark.parametrize(
    "ground, records, match",
    [
        pytest.param(_GROUND, 5, r"records must be a non-empty list of records, got 5", id="records-number"),
        pytest.param(_GROUND, [], r"records must be a non-empty list of records, got \[\]", id="records-empty"),
        pytest.param(_GROUND, ((_SET,),), r"records must be a non-empty list", id="records-tuple"),
        pytest.param(_GROUND, [5], r"records\[0\]: must be a non-empty list of attributes", id="record-number"),
        pytest.param(_GROUND, [(_SET,), ()], r"records\[1\]: must be a non-empty list of attributes",
                     id="record-empty"),
        pytest.param(_GROUND, [(5,)], r"records\[0\]\[0\]: not a fuzzy attribute: 5", id="attribute-number"),
        pytest.param(_GROUND, [(_SET,), (_SET, _SET)], r"records\[1\]: has 2 attributes, expected 1", id="arity"),
        pytest.param(_GROUND, [(_SET,), (_G[0],)],
                     r"records\[1\]: attribute kinds \('GaussianFuzzySet',\) differ from \('DiscreteFuzzySet',\)",
                     id="kinds"),
        pytest.param(_GROUND, [(_SET,), (5,)], r"records\[1\]: attribute kinds \('int',\)",
                     id="later-attribute-number"),
        pytest.param(None, [(_SET,)], r"records\[0\]\[0\]: discrete attribute not on the dataset's ground space",
                     id="no-ground"),
        pytest.param(_PARTITIONED, [(_G[0], DiscreteFuzzySet(_PARTITIONED, {0: 1.0})), (_G[1], _SET)],
                     r"records\[1\]\[1\]: discrete attribute not on the dataset's ground space", id="other-ground"),
        pytest.param(5, [(_G[0],)], r"ground must be a GroundSpace or None, got 5", id="ground-number"),
    ],
)
def test_a_dataset_the_reader_would_refuse_does_not_build(ground, records, match):
    # each of these once built, and write_dataset then raised a raw TypeError or wrote a file parse_dataset refuses
    with pytest.raises(ValidationError, match=match):
        Dataset(ground=ground, records=records)


def _parsed(obj):
    """``dataset_from_obj(obj)`` with the repr of every degree and array the sets
    hold (so 1 and 1.0, a dtype or a writeable flag differ), or the type and
    text of what it raised."""
    try:
        ds = dataset_from_obj(obj)
    except Exception as exc:  # the two paths must agree on every exception, not only the expected ones
        return type(exc), str(exc)
    held = [
        [
            [(v.tolist(), v.dtype, v.shape, v.flags.writeable) for v in (a._idx, a._deg)] + list(a.degrees.items())
            if isinstance(a, DiscreteFuzzySet)
            else [(v.tolist(), v.dtype, v.shape, v.flags.writeable) for v in (a.means, a.widths)]
            for a in rec
        ]
        for rec in ds.records
    ]
    return ds, repr(held)


def _assert_slots_match_record_loop(monkeypatch, obj):
    """The slot pass gives what the record loop gives: an equal Dataset, or the
    same exception type and text; so it never accepts what the loop rejects."""
    with monkeypatch.context() as patched:
        patched.setattr(dataset, "_slots", lambda raw_records, ground: None)
        loop = _parsed(obj)
    assert _parsed(obj) == loop, json.dumps(obj, default=repr)[:300]


@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize("name", workloads.NAMES)
def test_slot_pass_matches_record_loop_on_workloads(monkeypatch, name, seed):
    doc = workloads.generate(name, seed).document
    ground = dataset._parse_ground(doc["ground_space"]) if "ground_space" in doc else None
    assert dataset._slots(doc["records"], ground) is not None  # the slot pass itself builds these
    _assert_slots_match_record_loop(monkeypatch, doc)


def _gaussian(m, sigma):
    return {"type": "gaussian", "m": m, "sigma": sigma}


def _discrete(degrees):
    return {"type": "discrete", "degrees": degrees}


# one discrete and one Gaussian slot, so that faults in different slots meet in the record loop,
# which names the first in row-major order
TWO_SLOTS = {
    "ground_space": {"points": [[0.0], [1.0], [2.0], [3.0]]},
    "records": [
        [_discrete({"0": 1.0, "1": 0.5}), _gaussian([0.0, 1.0], [0.5, 1.0])],
        [_discrete({"2": 0.25}), _gaussian([0.5, -1.0], [1.0, 0.25])],
        [_discrete({"1": 0.75, "3": 1.0}), _gaussian([1.5, 2.0], [2.0, 0.5])],
    ],
}


DROP = object()


def _mutated(doc, site, new):
    """A copy of ``doc`` with the key or list entry at ``site`` set to ``new``, or dropped."""
    *path, key = site
    mutated = copy.deepcopy(doc)
    parent = functools.reduce(operator.getitem, path, mutated)
    if new is DROP:
        del parent[key]
    else:
        parent[key] = copy.deepcopy(new)
    return mutated


def test_slot_pass_matches_record_loop_on_every_mutation(monkeypatch):
    """Every document one change away from a MUTATED_DATA one or TWO_SLOTS: a
    key or list entry set to each hostile value, or dropped."""
    for doc in (*MUTATED_DATA.values(), TWO_SLOTS):
        for site in _sites(doc):
            for new in (*HOSTILE, DROP):
                _assert_slots_match_record_loop(monkeypatch, _mutated(doc, site, new))


GROUND = {"points": [[0.0], [1.0], [2.0]]}


@pytest.mark.parametrize(
    "records",
    [
        pytest.param([[_gaussian([0.0], [1.0])], [_gaussian([0.0, 1.0], [1.0, 1.0])]], id="gaussian-ragged"),
        pytest.param([[_gaussian([0.0], [1.0])], [_gaussian(0.5, 2.0)]], id="gaussian-scalar-m"),
        pytest.param([[_gaussian(0.5, 2.0)], [_gaussian(1.5, 1.0)]], id="gaussian-scalars"),
        pytest.param([[_gaussian([0.0], [1.0])], [_gaussian([[0.5]], [[2.0]])]], id="gaussian-nested"),
        pytest.param([[_gaussian([0, 1], [1, 2])], [_gaussian([2, 3], [3, 4])]], id="gaussian-ints"),
        pytest.param([[_gaussian([1e308], [1.0])], [_gaussian([1e308], [1.0])]], id="gaussian-sum-overflows"),
        pytest.param([[_gaussian([], [])], [_gaussian([], [])]], id="gaussian-empty"),
        pytest.param([[_discrete({"0": 1})], [_discrete({"1": 0.5})]], id="int-degree"),
        pytest.param([[_discrete({"0": 1})], [_discrete({"1": 0})]], id="int-degree-zero"),
        pytest.param([[_discrete({"0": 1})], [_discrete({"1": 2})]], id="int-degree-above-one"),
        pytest.param([[_discrete({"0": 1})], [_discrete({"1": 10**400})]], id="int-degree-too-large"),
        pytest.param([[_discrete({"0": 1})], [_discrete({"1": True})]], id="bool-degree"),
        pytest.param([[_discrete({"0": 0.5})], [_discrete({"1": 0.5, "01": 0.25})]], id="index-twice"),
        pytest.param([[_discrete({"0": 0.5})], [_discrete({"3": 0.5})]], id="index-outside"),
        pytest.param([[_discrete({"0": 0.5})], [_discrete({"": 0.5, "1": 0.5})]], id="key-empty"),
        pytest.param([[_discrete({"0": 0.5})], [_discrete({" 1": 0.5})]], id="key-space"),
        pytest.param([[_discrete({"0": 0.5})], [_discrete({0: 0.5})]], id="key-int"),
        pytest.param([[_discrete({"0": 0.5})], [_discrete({"9" * 5000: 0.5})]], id="key-too-long"),
        pytest.param([[_discrete({"0": 0.5})], [_discrete({"01": 0.5})]], id="key-zero-padded"),
        pytest.param([[_discrete({"0": 0.5})], [_discrete({"007": 0.5})]], id="key-two-zeros"),
        # numpy parses 5000 zeros as index 0, where int() refuses more than 4300 digits
        pytest.param([[_discrete({"0": 0.5})], [_discrete({"0" * 5000: 0.5})]], id="key-5000-zeros"),
        pytest.param([[_discrete({"0": 0.5})], [_discrete({"0" * 4299 + "1": 0.5})]], id="key-4300-digits"),
        pytest.param([[_discrete({"0": 0.5})], [_discrete({"9" * 20: 0.5})]], id="key-20-nines"),
        pytest.param([[_discrete({"0": 0.5})], [_discrete({str(2**63): 0.5})]], id="key-past-intp"),
        pytest.param([[_discrete({"0": 0.5})], [_discrete({"1": 0.5, "": 0.5})]], id="key-empty-last"),
        pytest.param([[_discrete({"0": 0.5, "00": 0.25})], [_discrete({"1": 0.5})]], id="index-twice-zeros"),
        pytest.param([[_discrete({})], [_discrete({"2": 1.0})]], id="degrees-empty"),
        pytest.param([[_discrete({"0": 0.5})], [_gaussian([0.0], [1.0])]], id="slot-mixes-kinds"),
        pytest.param(
            [[_discrete({"0": 0.5}), _gaussian([0.0], [1.0])], [_discrete({"1": 1.0}), _gaussian([1.0], [2.0])]],
            id="two-slots",
        ),
        pytest.param([[_discrete({"0": 0.5}), _gaussian([0.0], [1.0])], [_discrete({"1": 1.0})]], id="arity"),
    ],
)
def test_slot_pass_matches_record_loop_on_edge_cases(monkeypatch, records):
    _assert_slots_match_record_loop(monkeypatch, {"ground_space": GROUND, "records": records})


def test_slot_pass_matches_record_loop_on_double_mutations(monkeypatch):
    """A seeded sample of two changes of TWO_SLOTS in a row, the second made to
    the document the first left."""
    rng = random.Random(0)
    for _ in range(400):
        doc = TWO_SLOTS
        for _ in range(2):
            doc = _mutated(doc, rng.choice([*_sites(doc)]), rng.choice([*HOSTILE, DROP]))
        _assert_slots_match_record_loop(monkeypatch, doc)


def _takes_slot_pass(path) -> bool:
    obj = json.loads(path.read_text())
    ground = dataset._parse_ground(obj["ground_space"]) if "ground_space" in obj else None
    return dataset._slots(obj["records"], ground) is not None


def test_written_datasets_take_the_slot_pass(tmp_path, capsys):
    """The files ``write_dataset`` writes, from each workload and from both ``fuzzify``
    methods, are parsed one slot at a time, never by the record loop."""
    for name in workloads.NAMES:
        write_dataset(dataset_from_obj(workloads.generate(name, 1).document), tmp_path / f"{name}.json")
        assert _takes_slot_pass(tmp_path / f"{name}.json"), name
    (tmp_path / "table.csv").write_text(TABLE)
    for method in (["gaussian", "--widths", "0.5"], ["histogram", "--bins", "4"]):
        out = tmp_path / f"{method[0]}.json"
        assert main(["fuzzify", "--data", str(tmp_path / "table.csv"), "--out", str(out), "--method", *method]) == 0
        assert _takes_slot_pass(out), method[0]
    capsys.readouterr()


def test_gaussian_parse_checks_numbers_per_slot_not_per_record(monkeypatch):
    """The number rule runs a fixed number of times for a Gaussian slot, however
    many records it has."""
    calls = []
    check = sets._numbers
    monkeypatch.setattr(sets, "_numbers", lambda *args, **kwargs: calls.append(args[1]) or check(*args, **kwargs))
    counts = []
    for n in (4, 64):
        calls.clear()
        dataset_from_obj({"records": [[_gaussian([0.1 * k, 1.0], [0.5, 2.0])] for k in range(n)]})
        counts.append(len(calls))
    assert counts[0] == counts[1]


def test_slot_pass_takes_integer_degrees():
    # a crisp document's degrees are JSON integers; the slot pass holds them as floats, as __init__ does
    records = dataset._slots([[_discrete({"0": 1, "2": 1})], [_discrete({"1": 1})]], dataset._parse_ground(GROUND))
    assert records is not None
    held = [list(rec[0].degrees.items()) for rec in records]
    assert held == [[(0, 1.0), (2, 1.0)], [(1, 1.0)]]
    assert {type(d) for items in held for _, d in items} == {float}


def test_discrete_sets_hold_arrays_and_build_degrees_on_first_read(tmp_path):
    """Parsing a discrete file and computing its Gram build no ``degrees`` mapping; read afterwards, it
    holds the file's entries in the file's key order, each degree a float, as a constructed set's does.
    The arrays a set holds cannot be written."""
    w = workloads.generate("sparse-intersection", 1)
    for rec in w.document["records"]:  # the file's key order is not the ascending one
        rec[0]["degrees"] = dict(reversed(rec[0]["degrees"].items()))
    w.document["records"][0][0]["degrees"] = {"7": 1, "3": 0.5}  # and a degree may be a JSON integer
    path = write_json(tmp_path, w.document)
    assert _takes_slot_pass(path)
    ds = parse_dataset(path)
    compute_gram(ds.records, spec_from_config(w.kernel, ds.ground))
    built = [rec[0] for rec in ds.records] + [DiscreteFuzzySet(ds.ground, {7: 1, 3: 0.5})]
    assert not any("degrees" in vars(s) for s in built)
    files = [rec[0]["degrees"] for rec in w.document["records"]] + [{"7": 1, "3": 0.5}]
    for s, file in zip(built, files):
        assert list(s.degrees.items()) == [(int(k), float(d)) for k, d in file.items()]
        assert {type(d) for d in s.degrees.values()} == {float}
        for held in (s._idx, s._deg):
            with pytest.raises(ValueError, match="read-only"):
                held[0] = 1
