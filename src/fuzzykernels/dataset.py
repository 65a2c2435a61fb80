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
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .sets import DiscreteFuzzySet, GaussianFuzzySet, GroundSpace, Partition

__all__ = ["Dataset", "parse_dataset", "dataset_from_obj", "dataset_to_obj", "write_dataset"]


@dataclass(eq=False)
class Dataset:
    ground: GroundSpace | None
    records: list[tuple]
    labels: np.ndarray | None = None

    def __len__(self) -> int:
        return len(self.records)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Dataset):
            return NotImplemented
        if self.ground != other.ground or self.records != other.records:
            return False
        if (self.labels is None) != (other.labels is None):
            return False
        return self.labels is None or np.array_equal(self.labels, other.labels)


def _parse_ground(obj) -> GroundSpace:
    if not isinstance(obj, dict) or "points" not in obj:
        raise ValidationError("ground_space: needs a 'points' list")
    partition = None
    if obj.get("partition") is not None:
        pobj = obj["partition"]
        if not isinstance(pobj, dict) or "cells" not in pobj:
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
                raise ValidationError(f"{where}: discrete attribute but no ground_space in file")
            degrees = obj.get("degrees")
            if not isinstance(degrees, dict):
                raise ValidationError(f"{where}: discrete attribute needs a 'degrees' object")
            return DiscreteFuzzySet(ground, {int(i): float(d) for i, d in degrees.items()})
        if kind == "gaussian":
            if "m" not in obj or "sigma" not in obj:
                raise ValidationError(f"{where}: gaussian attribute needs 'm' and 'sigma'")
            return GaussianFuzzySet(obj["m"], obj["sigma"])
    except ValidationError:
        raise
    except (ValueError, TypeError) as exc:
        raise ValidationError(f"{where}: {exc}") from exc
    raise ValidationError(f"{where}: unknown attribute type {kind!r}")


def dataset_from_obj(obj) -> Dataset:
    """Validate a decoded JSON document into a :class:`Dataset`."""
    if not isinstance(obj, dict):
        raise ValidationError("dataset document must be a JSON object")
    ground = _parse_ground(obj["ground_space"]) if obj.get("ground_space") is not None else None
    raw_records = obj.get("records")
    if not isinstance(raw_records, list):
        raise ValidationError("dataset needs a 'records' list")
    records: list[tuple] = []
    arity = None
    kinds = None
    for i, raw in enumerate(raw_records):
        if not isinstance(raw, list) or not raw:
            raise ValidationError(f"records[{i}]: must be a non-empty list of attributes")
        attrs = tuple(
            _parse_attribute(a, ground, f"records[{i}][{j}]") for j, a in enumerate(raw)
        )
        row_kinds = tuple(type(a).__name__ for a in attrs)
        if arity is None:
            arity, kinds = len(attrs), row_kinds
        elif len(attrs) != arity:
            raise ValidationError(f"records[{i}]: has {len(attrs)} attributes, expected {arity}")
        elif row_kinds != kinds:
            raise ValidationError(f"records[{i}]: attribute kinds {row_kinds} differ from {kinds}")
        records.append(attrs)
    labels = None
    if obj.get("labels") is not None:
        raw_labels = obj["labels"]
        if not isinstance(raw_labels, list) or len(raw_labels) != len(records):
            raise ValidationError(
                f"labels: expected a list of {len(records)} entries, got {raw_labels!r}"
            )
        for i, lab in enumerate(raw_labels):
            if lab not in (1, -1):
                raise ValidationError(f"labels[{i}]: must be 1 or -1, got {lab!r}")
        labels = np.array(raw_labels, dtype=int)
    return Dataset(ground=ground, records=records, labels=labels)


def _read_json(path):
    """The JSON document in a file; an unreadable file or malformed JSON raises ValidationError."""
    try:
        with open(path) as fh:
            return json.load(fh)
    except json.JSONDecodeError as exc:
        raise ValidationError(f"{path}: malformed JSON at line {exc.lineno}, column {exc.colno}") from exc
    except OSError as exc:
        raise ValidationError(f"{path}: {exc}") from exc


def parse_dataset(path) -> Dataset:
    """Read and fully validate a dataset file."""
    return dataset_from_obj(_read_json(path))


def _attribute_to_obj(attr):
    if isinstance(attr, DiscreteFuzzySet):
        return {
            "type": "discrete",
            "degrees": {str(i): attr.degrees[i] for i in sorted(attr.degrees)},
        }
    if isinstance(attr, GaussianFuzzySet):
        return {"type": "gaussian", "m": attr.means.tolist(), "sigma": attr.widths.tolist()}
    raise TypeError(f"not a fuzzy attribute: {attr!r}")


def dataset_to_obj(ds: Dataset) -> dict:
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
        obj["labels"] = [int(v) for v in ds.labels]
    return obj


def write_dataset(ds: Dataset, path) -> None:
    with open(path, "w") as fh:
        json.dump(dataset_to_obj(ds), fh, indent=2)
        fh.write("\n")
