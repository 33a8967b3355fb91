"""The one value base: every public value type is immutable, compares and
hashes by its fields, and copies and pickles through its constructor."""

import copy
import dataclasses
import inspect
import pickle

import pytest

import diamondnet
from diamondnet import (
    AfCoefficients,
    AfReport,
    Certificate,
    Cut,
    Failure,
    GuaranteeReport,
    Network,
    NetworkFile,
    OmegaResult,
    RateTable,
    SandwichReport,
    SelectionResult,
    TradeoffReport,
    VerifyReport,
)

# Two sets of constructor keywords per type, in parameter order; every field
# of the second differs from the first's. NetworkFile's ``network`` cannot
# change on its own: exactly one payload is set.
FIELDS = {
    Cut: ({"members": frozenset({1, 3})}, {"members": frozenset({2})}),
    OmegaResult: (
        {"value": 2.5, "argmin_cut": Cut([2]), "comparisons": 9},
        {"value": 3.0, "argmin_cut": Cut(), "comparisons": 10},
    ),
    SandwichReport: (
        {"omega": 1.0, "lower": 1.5, "upper": 2.0, "gap": 2.0},
        {"omega": 1.25, "lower": 1.75, "upper": 2.5, "gap": 3.0},
    ),
    Certificate: (
        {"anchor_bin": 2, "bins": (0, 1)},
        {"anchor_bin": None, "bins": ()},
    ),
    SelectionResult: (
        {"gamma": (1, 3), "omega_gamma": 2.0, "certificate": None, "comparisons": 7},
        {
            "gamma": (2,),
            "omega_gamma": 2.5,
            "certificate": Certificate(anchor_bin=None, bins=()),
            "comparisons": 8,
        },
    ),
    GuaranteeReport: (
        {
            "k": 2,
            "lower_bound": 0.5,
            "gap_model": "nnc",
            "components": (1.0, 2.6, 0.5),
        },
        {
            "k": 3,
            "lower_bound": 0.0,
            "gap_model": "optimized",
            "components": (1.0, 2.0, 0.5),
        },
    ),
    TradeoffReport: (
        {
            "entries": ((1, 0.0), (2, 0.5)),
            "best_k": 2,
            "baseline": 0.0,
            "gap_model": "nnc",
        },
        {
            "entries": ((1, 0.25),),
            "best_k": 1,
            "baseline": 0.5,
            "gap_model": "routing",
        },
    ),
    AfReport: (
        {
            "rate": 0.75,
            "alpha": AfCoefficients([1.0, 0.5]),
        },
        {
            "rate": 0.5,
            "alpha": AfCoefficients([1.0, 1.0]),
        },
    ),
    Failure: (
        {"seed": 5, "invariant": "omega-oracle", "details": "fast 1.0 != brute 1.5"},
        {"seed": 6, "invariant": "bracket-gap", "details": "upper > omega + gap"},
    ),
    VerifyReport: (
        {"trials": 2, "failures": (), "max_violation": 0.0, "elapsed": 0.25},
        {
            "trials": 3,
            "failures": (Failure(seed=1, invariant="af-bound", details="k=1"),),
            "max_violation": 1e-3,
            "elapsed": 0.5,
        },
    ),
    NetworkFile: (
        {"network": None, "rates": RateTable([1.0], [2.0]), "snr": 4.0, "label": "r"},
        {"rates": RateTable([1.0], [2.5]), "snr": 5.0, "label": "s"},
    ),
    Network: (
        {"snr": 2.0, "gain_s": [0.5, 2.0], "gain_d": [1.0, 0.0]},
        {"snr": 3.0, "gain_s": [0.5, 2.5], "gain_d": [1.5, 0.0]},
    ),
    RateTable: (
        {"r_s": [1.0, 0.0], "r_d": [2.5, 3.0]},
        {"r_s": [1.0, 0.5], "r_d": [2.5, 3.5]},
    ),
    AfCoefficients: ({"alpha": [0.5, 0.25]}, {"alpha": [0.5, 0.5]}),
}

ARRAY_TYPES = (Network, RateTable, AfCoefficients)

# types whose fields are all hashable; AfReport and NetworkFile hold an
# array type, so hashing them raises as hashing their field does
HASHABLE = tuple(
    cls for cls in FIELDS if cls not in ARRAY_TYPES + (AfReport, NetworkFile)
)

# the repr of each first value, as the dataclass-generated ones printed it
REPRS = {
    Cut: "Cut(members=frozenset({1, 3}))",
    OmegaResult: (
        "OmegaResult(value=2.5, argmin_cut=Cut(members=frozenset({2})), comparisons=9)"
    ),
    SandwichReport: "SandwichReport(omega=1.0, lower=1.5, upper=2.0, gap=2.0)",
    Certificate: "Certificate(anchor_bin=2, bins=(0, 1))",
    SelectionResult: (
        "SelectionResult(gamma=(1, 3), omega_gamma=2.0, certificate=None, "
        "comparisons=7)"
    ),
    GuaranteeReport: (
        "GuaranteeReport(k=2, lower_bound=0.5, gap_model='nnc', "
        "components=(1.0, 2.6, 0.5))"
    ),
    TradeoffReport: (
        "TradeoffReport(entries=((1, 0.0), (2, 0.5)), best_k=2, baseline=0.0, "
        "gap_model='nnc')"
    ),
    AfReport: "AfReport(rate=0.75, alpha=AfCoefficients(alpha=[1.0, 0.5]))",
    Failure: (
        "Failure(seed=5, invariant='omega-oracle', details='fast 1.0 != brute 1.5')"
    ),
    VerifyReport: (
        "VerifyReport(trials=2, failures=(), max_violation=0.0, elapsed=0.25)"
    ),
    NetworkFile: (
        "NetworkFile(network=None, rates=RateTable(r_s=[1.0], r_d=[2.0]), snr=4.0, "
        "label='r')"
    ),
    Network: "Network(snr=2.0, gain_s=[0.5, 2.0], gain_d=[1.0, 0.0])",
    RateTable: "RateTable(r_s=[1.0, 0.0], r_d=[2.5, 3.0])",
    AfCoefficients: "AfCoefficients(alpha=[0.5, 0.25])",
}

TYPES = pytest.mark.parametrize("cls", FIELDS, ids=lambda cls: cls.__name__)


def make(cls, which=0):
    return cls(**FIELDS[cls][which])


def test_every_public_value_type_is_covered():
    public = {
        obj
        for obj in map(vars(diamondnet).get, diamondnet.__all__)
        if inspect.isclass(obj) and not issubclass(obj, Exception)
    }
    assert public == set(FIELDS) == set(REPRS)


def test_no_public_class_is_a_dataclass():
    for name in diamondnet.__all__:
        assert not dataclasses.is_dataclass(getattr(diamondnet, name)), name


@TYPES
def test_keyword_and_positional_construction(cls):
    fields = FIELDS[cls][0]
    value = cls(**fields)
    assert list(inspect.signature(cls).parameters) == list(fields)
    assert cls(*fields.values()) == value
    if cls not in ARRAY_TYPES:
        assert {name: getattr(value, name) for name in fields} == fields


@TYPES
def test_constructor_rejects_a_missing_unknown_or_repeated_field(cls):
    # Cut's and NetworkFile's fields have defaults, so only their unknown
    # and repeated fields raise
    fields = FIELDS[cls][0]
    params = inspect.signature(cls).parameters.values()
    required = [p.name for p in params if p.default is inspect.Parameter.empty]
    if required:
        with pytest.raises(TypeError):
            cls(**{name: fields[name] for name in fields if name != required[-1]})
    with pytest.raises(TypeError):
        cls(**fields, extra=None)
    first = next(iter(fields))
    with pytest.raises(TypeError):
        cls(fields[first], **fields)  # the first given twice


@TYPES
def test_equality_is_by_every_field(cls):
    value = make(cls)
    assert value == make(cls) and not value != make(cls)
    assert value != make(cls, 1) and not value == make(cls, 1)
    for name, other in FIELDS[cls][1].items():
        changed = cls(**{**FIELDS[cls][0], name: other})
        assert value != changed and not value == changed, name
    assert value != object()
    for other in FIELDS:
        if other is not cls:
            assert value != make(other)


@TYPES
def test_hashing(cls):
    value = make(cls)
    if cls in HASHABLE:
        assert hash(value) == hash(make(cls))
        assert len({value, make(cls), make(cls, 1)}) == 2
    else:
        with pytest.raises(TypeError):
            hash(value)
    assert (cls.__hash__ is None) == (cls in ARRAY_TYPES)


@TYPES
def test_immutable(cls):
    value = make(cls)
    for name in type(value).__slots__:
        with pytest.raises(AttributeError):
            setattr(value, name, None)
        with pytest.raises(AttributeError):
            delattr(value, name)
    with pytest.raises(AttributeError):
        value.extra = 1
    assert value == make(cls)


CLONES = {
    "copy": copy.copy,
    "deepcopy": copy.deepcopy,
    "pickle": lambda value: pickle.loads(pickle.dumps(value)),
}


@pytest.mark.parametrize("clone", CLONES.values(), ids=CLONES)
@TYPES
def test_copies_and_pickles_are_equal(cls, clone):
    value = make(cls)
    back = clone(value)
    assert type(back) is cls and back == value
    assert repr(back) == repr(value)


@pytest.mark.parametrize("clone", CLONES.values(), ids=CLONES)
@TYPES
def test_copies_go_through_the_constructor(cls, clone, monkeypatch):
    # so a copy is checked (and its arrays read-only) again
    value = make(cls)
    init = cls.__init__
    calls = []

    def counted(self, *args):
        calls.append(args)
        init(self, *args)

    monkeypatch.setattr(cls, "__init__", counted)
    assert clone(value) == value
    assert len(calls) == 1


@TYPES
def test_repr_is_the_dataclass_one(cls):
    assert repr(make(cls)) == REPRS[cls]


def test_result_reprs_from_the_algorithms():
    rt = RateTable([1.0, 2.0], [2.0, 1.0])
    assert repr(diamondnet.omega_fast(rt)) == (
        "OmegaResult(value=2.0, argmin_cut=Cut(members=frozenset()), comparisons=3)"
    )
    assert repr(Cut([3, 1])) == "Cut(members=frozenset({1, 3}))"
    sel = diamondnet.select(diamondnet.tight_config(3), 2, 4.0)
    assert repr(sel.certificate) == "Certificate(anchor_bin=1, bins=(0,))"
    assert repr(sel) == (
        "SelectionResult(gamma=(2, 3), omega_gamma=3.0, "
        "certificate=Certificate(anchor_bin=1, bins=(0,)), comparisons=16)"
    )
