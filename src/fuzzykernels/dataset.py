"""Dataset file handling: a single JSON document holding the ground space,
fuzzy records and optional labels.

Layout::

    {
      "ground_space": {
        "points": [[0.0], [5.0], [10.0]],
        "partition": {"cells": [[0, 1], [2]], "measures": [2.0, 1.0]}
      },
      "records": [
        [{"type": "discrete", "degrees": {"0": 1.0, "1": 0.5}}],
        [{"type": "discrete", "degrees": {"2": 0.25}}]
      ],
      "labels": [1, -1]
    }

Each record is a list of attributes; an attribute is either
``{"type": "discrete", "degrees": {...}}`` on the shared ground space or
``{"type": "gaussian", "m": [...], "sigma": [...]}``.  "partition",
"measures" (counting measure when omitted), "labels" and — for purely
Gaussian data — "ground_space" are optional.

Records are checked one attribute slot (attribute j of every record) at a time, or
one by one where that declines; an error names the first bad record in row-major order.
:class:`Dataset` checks its records and labels itself, so one built in code holds nothing the reader refuses.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .errors import _PATH, ValidationError, _instance, _labels
from .sets import DiscreteFuzzySet, GaussianFuzzySet, GroundSpace, Partition, _gaussian_parameters

__all__ = ["Dataset", "parse_dataset", "dataset_from_obj", "dataset_to_obj", "write_dataset"]


def _record(rec, i: int, first: tuple | None, ground: GroundSpace | None) -> tuple:
    """Record ``i`` as a tuple: a non-empty tuple or list of fuzzy sets with the arity and attribute kinds
    of ``first`` (None for the first record), each discrete set on ``ground``.  Anything else raises
    ValidationError naming ``records[i]``, or ``records[i][j]`` for attribute j."""
    if not isinstance(rec, (tuple, list)) or not rec:
        raise ValidationError(f"records[{i}]: must be a non-empty list of attributes")
    rec = tuple(rec)
    if first is None:
        first = rec
        for j, a in enumerate(rec):
            if type(a) is not DiscreteFuzzySet and type(a) is not GaussianFuzzySet:
                raise ValidationError(f"records[{i}][{j}]: not a fuzzy attribute: {a!r}")
    elif len(rec) != len(first):
        raise ValidationError(f"records[{i}]: has {len(rec)} attributes, expected {len(first)}")
    for a, kind in zip(rec, first):  # no enumerate: it would take a third of the time
        if type(a) is not type(kind):
            row_kinds, kinds = (tuple(type(x).__name__ for x in r) for r in (rec, first))
            raise ValidationError(f"records[{i}]: attribute kinds {row_kinds} differ from {kinds}")
        if type(a) is DiscreteFuzzySet and a.ground is not ground and a.ground != ground:
            j = [x is a for x in rec].index(True)
            raise ValidationError(f"records[{i}][{j}]: discrete attribute not on the dataset's ground space")
    return rec


@dataclass
class Dataset:
    """The ground space (None for purely Gaussian data), the records, and the labels: None, or one
    +1 or -1 per record, held as a list of ints.  The records are a non-empty list, each record a tuple
    or list of fuzzy sets, held as a tuple, of one arity and one kind per slot, every discrete set on
    the ground space.  Any other records or labels raise ValidationError naming the record or label."""

    ground: GroundSpace | None
    records: list[tuple]
    labels: list[int] | None = None

    def __post_init__(self):
        if self.ground is not None and not isinstance(self.ground, GroundSpace):
            raise ValidationError(f"ground must be a GroundSpace or None, got {self.ground!r}")
        if not isinstance(self.records, list) or not self.records:
            raise ValidationError(f"records must be a non-empty list of records, got {self.records!r}")
        first = _record(self.records[0], 0, None, self.ground)
        self.records = [first] + [_record(r, i, first, self.ground) for i, r in enumerate(self.records[1:], 1)]
        if self.labels is not None:
            self.labels = _labels(self.labels, len(self.records)).astype(int).tolist()

    def __len__(self) -> int:
        return len(self.records)


def _parse_ground(obj) -> GroundSpace:
    if not isinstance(obj, dict) or "points" not in obj:
        raise ValidationError("ground_space: needs a 'points' list")
    partition = None
    if obj.get("partition") is not None:
        pobj = obj["partition"]
        if not isinstance(pobj, dict) or not isinstance(pobj.get("cells"), list):
            raise ValidationError("ground_space.partition: needs a 'cells' list")
        try:
            partition = Partition(pobj["cells"], pobj.get("measures"))
        except (ValueError, TypeError) as exc:
            raise ValidationError(f"ground_space.partition: {exc}") from exc
    try:
        return GroundSpace(obj["points"], partition)
    except (ValueError, TypeError) as exc:
        raise ValidationError(f"ground_space: {exc}") from exc


def _parse_attribute(obj, ground: GroundSpace | None, where: str):
    if not isinstance(obj, dict) or "type" not in obj:
        raise ValidationError(f"{where}: attribute must be an object with a 'type' key")
    kind = obj["type"]
    try:
        if kind == "discrete":
            if ground is None:
                raise ValidationError("discrete attribute but no ground_space in file")
            degrees = obj.get("degrees")
            if not isinstance(degrees, dict):
                raise ValidationError("discrete attribute needs a 'degrees' object")
            digits = "".join(degrees)  # every key plain decimal digits: no sign, space, "_" or other script
            if not (digits.isascii() and digits.isdigit()) and degrees or "" in degrees:
                bad = next(k for k in degrees if not (k.isascii() and k.isdigit()))
                raise ValidationError(f"degree key {bad!r} is not a ground index")
            clean = {int(i): d for i, d in degrees.items()}
            if len(clean) < len(degrees):  # two keys such as "1" and "01" name one index
                keys = [int(i) for i in degrees]
                twice = next(i for k, i in enumerate(keys) if i in keys[:k])
                raise ValidationError(f"index {twice} is given more than once")
            return DiscreteFuzzySet(ground, clean)
        if kind == "gaussian":
            if "m" not in obj or "sigma" not in obj:
                raise ValidationError("gaussian attribute needs 'm' and 'sigma'")
            return GaussianFuzzySet(*_gaussian_parameters(obj["m"], obj["sigma"], ("m", "sigma")))  # the file's keys
    except (ValueError, TypeError) as exc:  # ValidationError too, so one place names the record
        raise ValidationError(f"{where}: {exc}") from exc
    raise ValidationError(f"{where}: unknown attribute type {kind!r}")


def _slots(raw_records: list, ground: GroundSpace | None) -> list[tuple] | None:
    """The records built one attribute slot (attribute j of every record) at a time by the batch
    constructors of ``sets``; None, never an exception, where the slots are not all whole and of
    one kind each, or a batch constructor declines one."""
    if not all(isinstance(raw, list) and raw and len(raw) == len(raw_records[0]) for raw in raw_records):
        return None
    columns = []
    for slot in zip(*raw_records):
        if all(isinstance(a, dict) and a.get("type") == "gaussian" and "m" in a and "sigma" in a for a in slot):
            columns.append(GaussianFuzzySet._slot([a["m"] for a in slot], [a["sigma"] for a in slot]))
        elif ground is not None and all(
            isinstance(a, dict) and a.get("type") == "discrete" and isinstance(a.get("degrees"), dict) for a in slot
        ):
            columns.append(DiscreteFuzzySet._slot(ground, [a["degrees"] for a in slot]))
        else:
            return None
    return None if None in columns else list(zip(*columns))


def dataset_from_obj(obj) -> Dataset:
    """Validate a decoded JSON document into a :class:`Dataset`: one attribute slot at a time,
    or record by record where that declines, naming the first bad record in row-major order."""
    if not isinstance(obj, dict):
        raise ValidationError(f"dataset document (obj) must be a JSON object, got {type(obj).__name__}")
    ground = _parse_ground(obj["ground_space"]) if obj.get("ground_space") is not None else None
    raw_records = obj.get("records")
    if not isinstance(raw_records, list) or not raw_records:
        raise ValidationError("dataset needs a non-empty 'records' list")
    records = _slots(raw_records, ground)
    if records is None:  # the record loop words every error
        records = []
        for i, raw in enumerate(raw_records):
            if not isinstance(raw, list) or not raw:
                raise ValidationError(f"records[{i}]: must be a non-empty list of attributes")
            attrs = [_parse_attribute(a, ground, f"records[{i}][{j}]") for j, a in enumerate(raw)]
            records.append(_record(attrs, i, records[0] if records else None, ground))
    return Dataset(ground=ground, records=records, labels=obj.get("labels"))


def _read_text(path) -> str:
    """The text of a UTF-8 file; a path that is no str or os.PathLike raises ValidationError naming
    ``path``, and a file that cannot be read or is not UTF-8 ValidationError naming the file."""
    _instance(path, _PATH, "path")
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except (OSError, ValueError) as exc:  # ValueError: UnicodeDecodeError
        raise ValidationError(f"{path}: {exc}") from exc


def _read_json(path):
    """The JSON document in a file, read by :func:`_read_text`; a document that cannot be decoded, an
    integer literal too long for int(), or an object that gives one key twice, raises ValidationError
    naming the file."""

    def unique(pairs):
        if len(obj := dict(pairs)) < len(pairs):
            key = next(k for i, (k, _) in enumerate(pairs) if k in dict(pairs[:i]))
            raise ValueError(f"key {key!r} is given more than once")
        return obj

    text = _read_text(path)
    try:
        return json.loads(text, object_pairs_hook=unique)
    except json.JSONDecodeError as exc:
        raise ValidationError(f"{path}: malformed JSON at line {exc.lineno}, column {exc.colno}") from exc
    except (ValueError, RecursionError) as exc:  # int()'s digit limit, a key given twice
        raise ValidationError(f"{path}: {exc}") from exc


def parse_dataset(path) -> Dataset:
    """Read and fully validate a dataset file."""
    return dataset_from_obj(_read_json(path))


def _attribute_to_obj(attr):
    """A checked record's attribute, which is a DiscreteFuzzySet or a GaussianFuzzySet, as its JSON object."""
    if type(attr) is DiscreteFuzzySet:
        return {"type": "discrete", "degrees": {str(i): attr.degrees[i] for i in sorted(attr.degrees)}}
    return {"type": "gaussian", "m": attr.means.tolist(), "sigma": attr.widths.tolist()}


def dataset_to_obj(ds: Dataset) -> dict:
    """``ds`` as the JSON object :func:`dataset_from_obj` reads.  Its fields pass the constructor's
    rules again, so one set or changed after ``ds`` was built raises ValidationError naming it."""
    _instance(ds, Dataset, "ds")
    ds = Dataset(ds.ground, ds.records, ds.labels)
    obj: dict = {}
    if ds.ground is not None:
        gobj: dict = {"points": ds.ground.points.tolist()}
        if ds.ground.partition is not None:
            p = ds.ground.partition
            gobj["partition"] = {
                "cells": [list(cell) for cell in p.cells],
                "measures": p.measures.tolist(),
            }
        obj["ground_space"] = gobj
    obj["records"] = [[_attribute_to_obj(a) for a in rec] for rec in ds.records]
    if ds.labels is not None:
        obj["labels"] = ds.labels
    return obj


def write_dataset(ds: Dataset, path) -> None:
    """Write ``ds`` to ``path`` as compact JSON plus a newline; a ``ds`` that is no Dataset, or
    whose fields break its rules, or a ``path`` that is no str or os.PathLike, raises ValidationError
    before the file is opened."""
    text = json.dumps(dataset_to_obj(ds)) + "\n"
    with open(_instance(path, _PATH, "path"), "w") as fh:
        fh.write(text)
