"""The contract of the package's value types: fields cannot be assigned,
equality holds where code compares, the types the process pool sends
survive a pickle, and ``TrainConfig.replace`` checks like the constructor."""

import pickle

import numpy as np
import pytest

from sparsecomm.codec import Message, SubsampledObservation, make_config
from sparsecomm.estimator import (
    LOWER_MINIMAX,
    UPPER_ACHIEVABLE,
    BoundCurve,
    OutOfRegime,
    RiskEstimate,
)
from sparsecomm.model import SCALED, Observation, ParamVector, UniformPerturbation
from sparsecomm.sgdsim import (
    ConvergenceBoundInputs,
    NodeState,
    RoundMetrics,
    TrainConfig,
    TrainResult,
)
from sparsecomm.sparsify import CompressionReport, SparseUpdate, SparsifierSpec


def build(name: str):
    """A fresh instance of the value type ``name``."""
    return {
        "ParamVector": lambda: ParamVector([0.5, 0.25], s=1.5, variant=SCALED, scale=2.0),
        "Observation": lambda: Observation(4, [1, 3]),
        "SubsampledObservation": lambda: SubsampledObservation(4, [1], 2),
        "UniformPerturbation": lambda: UniformPerturbation(0.25),
        "BoundCurve": lambda: BoundCurve(LOWER_MINIMAX, 2.0),
        "SparsifierSpec": lambda: SparsifierSpec.rtop(4, 2),
        "TrainConfig": lambda: TrainConfig(2, 3, SparsifierSpec.top(1), eta=[(0, 0.1), (2, 0.05)]),
        "ConvergenceBoundInputs": lambda: ConvergenceBoundInputs(
            1.0, 1.0, 8, 2, 100, 2, 10, 1.0, 0.1
        ),
        "CodecConfig": lambda: make_config(16, 13),
        "Message": lambda: Message(1, 2, 12),
        "RiskEstimate": lambda: RiskEstimate(0.5, 0.01),
        "OutOfRegime": lambda: OutOfRegime("k=8 < 14"),
        "RoundMetrics": lambda: RoundMetrics(0, 1.0, 2.0, 0.0, 10),
        "TrainResult": lambda: TrainResult([RoundMetrics(0, 1.0, 2.0, 0.0, 10)], np.zeros(3)),
        "CompressionReport": lambda: CompressionReport(1.0, 1.0, 0.0, 2.0, 5, True, True),
        "SparseUpdate": lambda: SparseUpdate(4, np.array([1]), np.array([2.0])),
    }[name]()


# Each type's first field, which an assignment must not change.
FIRST_FIELD = {
    "ParamVector": "values", "Observation": "d", "SubsampledObservation": "d",
    "UniformPerturbation": "halfwidth", "BoundCurve": "kind", "SparsifierSpec": "kind",
    "TrainConfig": "n", "ConvergenceBoundInputs": "smoothness", "CodecConfig": "d",
    "Message": "count", "RiskEstimate": "mean_sq_error", "OutOfRegime": "reason",
    "RoundMetrics": "t", "TrainResult": "records", "CompressionReport": "expected",
    "SparseUpdate": "d",
}

# Compared by value in src/ or the tests: a spec by Train's window test,
# a codec config as a dict key, messages and round records by the codec and
# trajectory tests, a curve and a perturbation after a trip to a pool worker.
BY_VALUE = (
    "SparsifierSpec", "CodecConfig", "Message", "RoundMetrics", "UniformPerturbation", "BoundCurve"
)
# Holding arrays, equal only to themselves, as before.
BY_IDENTITY = ("ParamVector", "Observation", "SubsampledObservation")


@pytest.mark.parametrize("name", sorted(FIRST_FIELD))
def test_fields_cannot_be_assigned(name):
    value = build(name)
    field = FIRST_FIELD[name]
    before = getattr(value, field)
    with pytest.raises(AttributeError):
        setattr(value, field, 7)
    with pytest.raises(AttributeError):
        delattr(value, field)
    assert getattr(value, field) is before


@pytest.mark.parametrize("name", BY_VALUE)
def test_equal_fields_compare_and_hash_alike(name):
    a, b = build(name), build(name)
    assert a is not b
    assert a == b and not a != b
    assert hash(a) == hash(b)


def test_value_types_differ_when_a_field_does():
    assert SparsifierSpec.rtop(4, 2) != SparsifierSpec.rtop(4, 3)
    assert SparsifierSpec.top(2) != SparsifierSpec.random(2)
    assert BoundCurve(LOWER_MINIMAX, 2.0) != BoundCurve(UPPER_ACHIEVABLE, 2.0)
    assert UniformPerturbation(0.25) != UniformPerturbation(0.3)
    assert make_config(16, 13) != make_config(16, 14)
    assert len({SparsifierSpec.top(2), SparsifierSpec.top(2), SparsifierSpec.random(2)}) == 2


@pytest.mark.parametrize("name", BY_IDENTITY)
def test_array_holders_equal_only_themselves(name):
    a, b = build(name), build(name)
    assert a == a and a != b
    assert len({a, b}) == 2


def test_repr_names_the_fields():
    assert repr(SparsifierSpec.rtop(4, 2)) == "SparsifierSpec(kind='rtop_k', k=2, r=4)"
    assert repr(BoundCurve(LOWER_MINIMAX)) == "BoundCurve(kind='lower_minimax', constant=1.0)"
    assert repr(make_config(16, 13)) == (
        "CodecConfig(d=16, k=13, header_bits=5, payload_bits=8, kprime=2)"
    )


@pytest.mark.parametrize("name", ["CodecConfig", "UniformPerturbation", "BoundCurve"])
def test_pool_values_survive_a_pickle(name):
    value = build(name)
    copy = pickle.loads(pickle.dumps(value))
    assert type(copy) is type(value) and copy == value


def test_param_vector_survives_a_pickle_with_equal_fields():
    theta = build("ParamVector")
    copy = pickle.loads(pickle.dumps(theta))
    assert type(copy) is ParamVector and copy is not theta
    assert copy.values.tobytes() == theta.values.tobytes()
    assert not copy.values.flags.writeable
    assert (copy.s, copy.variant, copy.scale) == (theta.s, theta.variant, theta.scale)


def test_codebook_is_computed_from_the_fields():
    cfg = make_config(16, 13)
    assert cfg.codebook == 1 + 16 + 120  # vectors with at most kprime = 2 ones
    assert pickle.loads(pickle.dumps(cfg)).codebook == cfg.codebook


class TestTrainConfigReplace:
    def test_replace_changes_only_the_named_fields(self):
        cfg = build("TrainConfig")
        spec = SparsifierSpec.random(1)
        new = cfg.replace(seed=5, sparsifier=spec)
        assert (new.seed, new.sparsifier) == (5, spec)
        assert (cfg.seed, cfg.sparsifier) == (0, SparsifierSpec.top(1))
        assert (new.n, new.steps, new.eta, new.rate(1), new.rate(2)) == (2, 3, cfg.eta, 0.1, 0.05)

    def test_replace_rebuilds_the_schedule(self):
        new = build("TrainConfig").replace(eta=0.25)
        assert new.rate(0) == new.rate(999) == 0.25

    @pytest.mark.parametrize("eta", [0, [(1, 0.1)], [(0, float("nan"))]])
    def test_bad_eta_raises_as_the_constructor_does(self, eta):
        with pytest.raises(ValueError) as built:
            TrainConfig(2, 3, SparsifierSpec.top(1), eta=eta)
        with pytest.raises(ValueError) as replaced:
            build("TrainConfig").replace(eta=eta)
        assert str(replaced.value) == str(built.value)

    def test_an_unknown_field_is_a_type_error(self):
        with pytest.raises(TypeError):
            build("TrainConfig").replace(etta=0.1)


def test_node_memory_is_reassigned_in_place_of_new_attributes():
    node = NodeState(0, np.arange(3), np.zeros(2), np.random.default_rng(0), None)
    node.memory = np.ones(2)
    assert node.memory.tolist() == [1.0, 1.0]
    with pytest.raises(AttributeError):
        node.memroy = np.ones(2)
