"""Hostile values at the library's entry points.

Every number, label, vector and matrix argument of learn.py, gram.py,
the base kernels, the kernel spec, the scalar reference kernels, ``Dataset``, the
histogram fuzzifier, ``GaussianFuzzySet`` and ``Partition``'s measures is set, one at
a time, to a string, a bool, None, NaN, inf, a nested list or a ragged list.  In a
label vector, a vector or a matrix the first entry takes the string, bool, None, NaN
or inf; the whole value is nested one level deeper, and the last row (or, for a
vector, the first entry) is made ragged; a vector (``predict``'s ``coefficients``,
the fuzzifier's ``samples``, the sets' means, widths and measures) is also set to
its bare first entry and to a 2-D array.
Every argument that takes an object (a spec's ``family``, ``tnorm``, ``k1``,
``k2`` and ``metric``, the ``spec`` of the engine's entry points, the T-norm of
``apply_array``, the fuzzifier's ground, the dataset writer's dataset, the scalar
reference kernels' sets, base kernels, distance and partition, and the config
readers' configs and ground) is set to a string, a number, None unless None is its
default, and a 2-D array.
Every list of records (``compute_gram``'s data, the two MMD samples and a
``Dataset``'s records) is set to a string, a number, None and an iterator over
its records.  ``TNorm``'s value, a T-norm's name, is set to a name of none, a
number, None, a list and a 2-D array.  Every file path is set to None, a bool, a
list and an int, with open() patched to fail, since it takes an int or a bool as a
file descriptor.
One test walks the public surface: each parameter of each public callable
needs a row here or in ``test_sets.CONSTRUCTOR_ARGUMENTS``, or a stated reason
in ``EXEMPT``.
Each call must raise ValidationError, or NumericError for a non-finite matrix
entry, naming the argument or its element, with no warning and no value.
An integer argument also takes a numpy integer above 2**53, which must act as
the equal Python int: the same result, or the same error.
"""

import enum
import inspect
import math
import os
import re
import warnings
from unittest import mock

import numpy as np
import pytest

import fuzzykernels
from fuzzykernels import (
    Dataset,
    DiscreteFuzzySet,
    FuzzyKernelSpec,
    GaussianFuzzySet,
    GramMatrix,
    GroundSpace,
    LinearKernel,
    NumericError,
    Partition,
    PolynomialKernel,
    RBFKernel,
    TNorm,
    ValidationError,
    base_kernel_from_config,
    check_psd,
    compute_gram,
    cross_product_kernel,
    cross_validate,
    dataset_from_obj,
    dataset_to_obj,
    distance_gaussian_kernel,
    distance_inner,
    distance_polynomial_kernel,
    evaluate,
    fit,
    fuzzify_from_histogram,
    intersection_kernel,
    mmd_permutation_test,
    mmd_statistic,
    nonsingleton_gaussian_kernel,
    nonsingleton_kernel,
    normalize,
    parse_dataset,
    predict,
    ratio_distance,
    read_matrix,
    spec_from_config,
    tnorms,
    weighted_cross_product_kernel,
    write_dataset,
    write_matrix,
)
from fuzzykernels.errors import _number
from test_sets import CONSTRUCTOR_ARGUMENTS

EYE2 = [[1.0, 0.0], [0.0, 1.0]]
# two blocks of two: seeds 2**60 and 2**60 + 1 draw folds with different accuracies, where the identity
# gave [0.5, 0.5] at both
BLOCKS4 = [[2.0, 1.0, 0.0, 0.0], [1.0, 2.0, 0.0, 0.0], [0.0, 0.0, 2.0, 1.0], [0.0, 0.0, 1.0, 2.0]]
MODEL = fit(np.eye(2), [1, -1], 1.0)
SAMPLES = [GaussianFuzzySet([0.0], [1.0])], [GaussianFuzzySet([1.0], [1.0])]
SPEC = FuzzyKernelSpec(family="nonsingleton_gaussian")
POINTS = [[0.0, 1.0], [1.0, 0.5]]
GROUND = GroundSpace([[0.0], [1.0]], Partition([[0], [1]]))
SET = DiscreteFuzzySet(GROUND, {0: 1.0})

# (entry point, call on keyword arguments, valid arguments, {argument: kind}); a "matrix" argument
# raises NumericError on a non-finite entry, and a "held" one keeps it, so it is not given one here;
# an "integer" argument is a "number" that must be integral; an "object" argument takes neither a number nor
# None, and an "optional" one takes None as its default; "items" is a list of records, and a "vector" a flat
# list of numbers; a "name" is an enum's value; a "path" names a file
ENTRY_POINTS = [
    ("fit", fit, dict(gram=EYE2, labels=[1, -1], regularization=1.0),
     {"gram": "matrix", "labels": "labels", "regularization": "number"}),
    ("predict", lambda cross: predict(MODEL, cross), dict(cross=[[0.5, 0.5], [0.2, 0.8]]), {"cross": "matrix"}),
    ("cross_validate", cross_validate, dict(gram=BLOCKS4, labels=[1, -1, 1, -1], regularization=1.0, folds=2, seed=0),
     {"gram": "matrix", "labels": "labels", "regularization": "number", "folds": "integer", "seed": "integer"}),
    ("mmd_statistic", mmd_statistic, dict(gxx=EYE2, gyy=EYE2, gxy=[[0.5, 0.5], [0.5, 0.5]]),
     {"gxx": "matrix", "gyy": "matrix", "gxy": "matrix"}),
    ("mmd_permutation_test",
     lambda **kw: mmd_permutation_test(*SAMPLES, SPEC, **kw),
     dict(n_permutations=10, seed=0), {"n_permutations": "integer", "seed": "integer"}),
    ("GramMatrix", GramMatrix, dict(values=EYE2), {"values": "held"}),
    ("check_psd", check_psd, dict(g=EYE2, tol=1e-8), {"g": "matrix", "tol": "number"}),
    ("normalize", normalize, dict(g=EYE2), {"g": "matrix"}),
    ("write_matrix", lambda g: write_matrix(os.devnull, g), dict(g=EYE2), {"g": "held"}),
    ("TNorm", TNorm, dict(value="min"), {"value": "name"}),
    ("tnorms.apply_array", lambda t: tnorms.apply_array(t, [0.5], [0.5]), dict(t=TNorm.MINIMUM), {"t": "object"}),
    ("fuzzify_from_histogram", fuzzify_from_histogram, dict(samples=[0.0, 1.0], ground=GROUND),
     {"samples": "vector", "ground": "object"}),
    ("dataset_to_obj", dataset_to_obj, dict(ds=Dataset(GROUND, [(SET,)])), {"ds": "object"}),
    ("write_dataset", lambda ds: write_dataset(ds, os.devnull), dict(ds=Dataset(GROUND, [(SET,)])), {"ds": "object"}),
    # the set constructors' number vectors; test_sets.BAD_ARGUMENTS pins their other arguments' types
    ("GaussianFuzzySet", GaussianFuzzySet, dict(means=[0.0, 1.0], widths=[1.0, 2.0]),
     {"means": "vector", "widths": "vector"}),
    ("Partition", lambda measures: Partition([[0], [1]], measures), dict(measures=[1.0, 2.0]), {"measures": "vector"}),
    *(
        (f"{kernel.__name__}.pairwise", lambda U, V, k=kernel: k().pairwise(U, V), dict(U=POINTS, V=POINTS),
         {"U": "points", "V": "points"})
        for kernel in (LinearKernel, RBFKernel, PolynomialKernel)
    ),
    ("RBFKernel", RBFKernel, dict(gamma=1.0), {"gamma": "number"}),
    ("FuzzyKernelSpec", lambda **kw: FuzzyKernelSpec("nonsingleton", **kw), dict(tnorm=TNorm.MINIMUM),
     {"tnorm": "object"}),
    ("FuzzyKernelSpec", lambda **kw: FuzzyKernelSpec("cross_product", **kw), dict(k1=RBFKernel(), k2=LinearKernel()),
     {"k1": "optional", "k2": "optional"}),
    ("FuzzyKernelSpec", lambda **kw: FuzzyKernelSpec("distance_gaussian", **kw), dict(metric="ratio"),
     {"metric": "object"}),
    ("compute_gram", compute_gram, dict(data=[*SAMPLES[0], *SAMPLES[1]], spec=SPEC),
     {"data": "items", "spec": "object"}),
    ("mmd_permutation_test", mmd_permutation_test, dict(sample_a=SAMPLES[0], sample_b=SAMPLES[1], spec=SPEC),
     {"sample_a": "items", "sample_b": "items", "spec": "object"}),
    ("evaluate", evaluate, dict(spec=SPEC, x=SAMPLES[0][0], y=SAMPLES[1][0]),
     {"spec": "object", "x": "object", "y": "object"}),
    ("FuzzyKernelSpec", FuzzyKernelSpec, dict(family="nonsingleton_gaussian"), {"family": "object"}),
    ("predict", lambda coefficients: predict(coefficients, [[0.5, 0.5]]), dict(coefficients=[1.0, 2.0]),
     {"coefficients": "vector"}),
    ("PolynomialKernel", PolynomialKernel, dict(coef0=1.0, gamma=1.0, degree=2),
     {"coef0": "number", "gamma": "number", "degree": "integer"}),
    ("base_kernel_from_config", base_kernel_from_config, dict(cfg={"kind": "rbf"}), {"cfg": "object"}),
    ("spec_from_config", spec_from_config, dict(cfg={"family": "cross_product"}, ground=GROUND),
     {"cfg": "object", "ground": "optional"}),
    ("FuzzyKernelSpec", lambda **kw: FuzzyKernelSpec("weighted_cross_product", **kw), dict(weights=[1.0, 2.0]),
     {"weights": "vector"}),
    ("FuzzyKernelSpec", lambda **kw: FuzzyKernelSpec("distance_poly", **kw),
     dict(reference=SET, coef0=1.0, gamma=1.0, degree=2),
     {"reference": "object", "coef0": "number", "gamma": "number", "degree": "integer"}),
    # the scalar reference kernels; the float a distance polynomial returns cannot tell an integer degree
    # from its float, so its degree is a "number" here, and PolynomialKernel's row, whose rule checks it,
    # pins the integer cases
    ("cross_product_kernel", cross_product_kernel, dict(x=SET, y=SET, k1=RBFKernel(), k2=LinearKernel()),
     {"x": "object", "y": "object", "k1": "object", "k2": "object"}),
    ("weighted_cross_product_kernel", weighted_cross_product_kernel,
     dict(x=SET, y=SET, k1=RBFKernel(), k2=LinearKernel(), weights=[1.0, 2.0]),
     {"x": "object", "y": "object", "k1": "object", "k2": "object", "weights": "vector"}),
    ("intersection_kernel", intersection_kernel, dict(x=SET, y=SET, t=TNorm.MINIMUM, p=GROUND.partition),
     {"x": "object", "y": "object", "t": "object", "p": "object"}),
    ("nonsingleton_kernel", nonsingleton_kernel, dict(x=SET, y=SET, t=TNorm.MINIMUM),
     {"x": "object", "y": "object", "t": "object"}),
    ("nonsingleton_gaussian_kernel", nonsingleton_gaussian_kernel, dict(x=SAMPLES[0][0], y=SAMPLES[1][0]),
     {"x": "object", "y": "object"}),
    ("ratio_distance", ratio_distance, dict(x=SET, y=SET), {"x": "object", "y": "object"}),
    ("distance_inner", distance_inner, dict(x=SET, y=SET, x0=SET, d=ratio_distance),
     {"x": "object", "y": "object", "x0": "object", "d": "object"}),
    ("distance_polynomial_kernel", distance_polynomial_kernel,
     dict(x=SET, y=SET, x0=SET, d=ratio_distance, coef0=1.0, gamma=1.0, degree=2),
     {"x": "object", "y": "object", "x0": "object", "d": "object", "coef0": "number", "gamma": "number",
      "degree": "number"}),
    ("distance_gaussian_kernel", distance_gaussian_kernel, dict(x=SET, y=SET, d=ratio_distance, gamma=1.0),
     {"x": "object", "y": "object", "d": "object", "gamma": "number"}),
    ("Dataset", Dataset, dict(ground=GROUND, records=[(SET,), (SET,)], labels=[1, -1]),
     {"ground": "optional", "records": "items", "labels": "labels"}),
    ("dataset_from_obj", dataset_from_obj,
     dict(obj={"records": [[{"type": "gaussian", "m": [0.0], "sigma": [1.0]}]]}), {"obj": "object"}),
    ("parse_dataset", parse_dataset, dict(path=os.devnull), {"path": "path"}),
    ("read_matrix", read_matrix, dict(path=os.devnull), {"path": "path"}),
    ("write_matrix", write_matrix, dict(path=os.devnull, g=EYE2), {"path": "path"}),
    ("write_dataset", write_dataset, dict(ds=Dataset(GROUND, [(SET,)]), path=os.devnull), {"path": "path"}),
]

# public names and parameters that no row covers, each with its reason
EXEMPT = {
    "ValidationError": "an exception class, which takes a message",
    "NumericError": "an exception class, which takes a message",
    "BaseKernel": "a type alias, not a constructor",
    "PsdReport": "check_psd's result, which only the library builds",
    "MmdResult": "mmd_permutation_test's result, which only the library builds",
    "apply_array.a": "unchecked by design: its callers pass it degrees that the sets they come from have checked",
    "apply_array.b": "unchecked by design: its callers pass it degrees that the sets they come from have checked",
    "compute_gram.n_jobs": "accepted for compatibility and never read",
    "mmd_permutation_test.n_jobs": "accepted for compatibility and never read",
}


def _first(value, x):
    """``value``, a list or a list of lists, with its first entry replaced by ``x``."""
    return [_first(value[0], x) if isinstance(value[0], list) else x, *value[1:]]


def _hostile(value, kind):
    """(change, hostile value) for each change of a valid argument of the given kind."""
    if kind in ("number", "integer"):
        yield from [("string", str(value)), ("bool", True), ("none", None), ("nan", math.nan), ("inf", math.inf)]
        yield from [("nested", [value]), ("ragged", [value, [value]])]
        return
    if kind in ("object", "optional"):  # "min" names a T-norm in a config file, but no spec or model takes it
        yield from [("string", "min"), ("number", 3), ("array", np.array([[1.0, 2.0]]))]
        if kind == "object":
            yield "none", None
        return
    if kind == "name":  # an enum's value, here a T-norm's name
        # the array once met Enum's own lookup, which compares it with each value and raised numpy's ValueError
        yield from [("string", "hamacher"), ("number", 3), ("none", None), ("list", [value])]
        yield "array", np.array([[1.0, 2.0]])
        return
    if kind == "path":  # open() takes the bool and the int as file descriptors
        yield from [("none", None), ("bool", True), ("list", [value]), ("int", 1)]
        return
    if kind == "items":
        yield from [("string", "min"), ("number", 3), ("none", None), ("iterator", iter(value))]
        return
    for change, x in [("string", str(np.ravel(value)[0])), ("bool", True), ("none", None), ("nan", math.nan), ("inf", math.inf)]:
        if kind != "held" or change not in ("nan", "inf"):
            yield change, _first(value, x)
    yield "nested", [value]
    yield "ragged", [*value[:-1], value[-1][:-1]] if kind not in ("labels", "vector") else [[value[0]], *value[1:]]
    if kind == "vector":
        yield from [("number", value[0]), ("array", np.array([value]))]


CASES = [
    pytest.param(call, {**valid, name: bad}, name, NumericError if kind == "matrix" and change in ("nan", "inf")
                 else ValidationError, id=f"{entry}-{name}-{change}")
    for entry, call, valid, kinds in ENTRY_POINTS
    for name, kind in kinds.items()
    for change, bad in _hostile(valid[name], kind)
]


@pytest.mark.parametrize("call, kwargs, name, error", CASES)
def test_hostile_argument_raises_naming_it(call, kwargs, name, error):
    with warnings.catch_warnings(), mock.patch("builtins.open", side_effect=AssertionError("open() was called")):
        warnings.simplefilter("error")
        with pytest.raises(error) as info:
            call(**kwargs)
    assert re.search(rf"\b{name}\b", str(info.value)), str(info.value)


BIG = 2**60 + 1  # float(BIG) is 2**60


def _outcome(call, kwargs):
    try:
        return call(**kwargs)
    except ValidationError as exc:
        return str(exc)


INTEGER_CASES = [
    pytest.param(call, valid, name, id=f"{entry}-{name}")
    for entry, call, valid, kinds in ENTRY_POINTS
    for name, kind in kinds.items()
    if kind == "integer"
]


@pytest.mark.parametrize("call, valid, name", INTEGER_CASES)
def test_numpy_integer_acts_as_the_equal_int(call, valid, name):
    # a numpy integer once went through float() and came back as 2**60
    expected = _outcome(call, {**valid, name: BIG})
    for np_int in (np.int64, np.uint64):
        assert _outcome(call, {**valid, name: np_int(BIG)}) == expected


@pytest.mark.parametrize("call, valid, name", INTEGER_CASES)
def test_integer_case_tells_big_from_its_float(call, valid, name):
    # otherwise the test above could not see BIG rounded to 2**60
    assert _outcome(call, {**valid, name: BIG}) != _outcome(call, {**valid, name: 2**60})


@pytest.mark.parametrize("np_int", [np.int64, np.uint64])
def test_integral_number_keeps_every_digit(np_int):
    value = _number(np_int(BIG), "seed", closed=True, integral=True)
    assert type(value) is int and value == BIG


def _parameters(obj) -> list[str]:
    """An enum is called with one value; its signature is the functional API's, which differs across Python
    versions."""
    return ["value"] if isinstance(obj, enum.EnumMeta) else list(inspect.signature(obj).parameters)


def test_every_public_parameter_has_a_row():
    # a new public name or parameter fails here until a row, or a reason in EXEMPT, covers it
    covered = {f"{entry.split('.')[-1]}.{name}" for entry, _, _, kinds in ENTRY_POINTS for name in kinds}
    parameters = {
        f"{name}.{parameter}"
        for name in fuzzykernels.__all__
        if name not in EXEMPT
        for parameter in _parameters(getattr(fuzzykernels, name))
    }
    assert sorted(parameters - covered - CONSTRUCTOR_ARGUMENTS.keys() - EXEMPT.keys()) == []
    # and every exemption names a public name or parameter
    assert {key for key in EXEMPT if "." not in key} <= set(fuzzykernels.__all__)
    assert {key for key in EXEMPT if "." in key} <= parameters
