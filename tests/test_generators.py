import hashlib
import random

import pytest

from blockip.errors import BadParamsError
from blockip.generators import random_nfold_instance, random_ones_instance, random_snf_instance
from blockip.model import Solution, StructureClass, classify, dumps, validate
from blockip.oracle import OracleBudget, enumerate_optimum

GENERATORS = {
    "ones": (random_ones_instance, StructureClass.ALL_ONES_ROW),
    "snf": (random_snf_instance, StructureClass.SNF_ELIGIBLE),
    "nfold": (random_nfold_instance, StructureClass.NFOLD_SNF_ELIGIBLE),
}

# sha256 of the dumps of the first five instances from random.Random(2024)
PINNED = {
    "ones": "77cc02a1ea41cdbe",
    "snf": "bc5304b93f6ab761",
    "nfold": "b5c812c2bce251ef",
}


def _stream_digest(make, seed, count=5):
    rng = random.Random(seed)
    h = hashlib.sha256()
    for _ in range(count):
        h.update(dumps(make(rng)).encode())
    return h.hexdigest()[:16]


@pytest.mark.parametrize("name", sorted(GENERATORS))
def test_fixed_seed_reproduces_byte_for_byte(name):
    make, _ = GENERATORS[name]
    first = [dumps(make(random.Random(seed))) for seed in range(20)]
    again = [dumps(make(random.Random(seed))) for seed in range(20)]
    assert first == again
    assert len(set(first)) > 15  # the seed, not a constant, decides the instance
    assert _stream_digest(make, 2024) == PINNED[name]


@pytest.mark.parametrize("name", sorted(GENERATORS))
def test_seeded_instances_are_feasible(name):
    make, cls = GENERATORS[name]
    rng = random.Random(7)
    for trial in range(30):
        inst = make(rng, n=rng.randint(0, 3), seeded_rate=1.0)
        assert classify(inst) == cls, (trial,)
        got = enumerate_optimum(inst, OracleBudget(10 ** 6))
        assert isinstance(got, Solution), (trial,)


def test_snf_scale_stretches_entries_and_boxes():
    rng = random.Random(8)
    big_entry = wide_box = 0
    for _ in range(10):
        inst = random_snf_instance(rng, n=3, s_A=rng.randint(1, 2), scale=10 ** 6)
        assert classify(inst) == StructureClass.SNF_ELIGIBLE
        entries = inst.A.entries + inst.B.entries + inst.C.entries + inst.D.entries
        big_entry += max(map(abs, entries)) > 10 ** 5
        wide_box += max(hi - lo for lo, hi in zip(inst.l, inst.u)) > 10 ** 5
    assert big_entry == wide_box == 10


@pytest.mark.parametrize("name", sorted(GENERATORS))
def test_sizes_out_of_range_raise_before_any_draw(name):
    # coeff or scale 0 once redrew an all-zero brick matrix forever, -1
    # raised ValueError from randint, and n = -1, s_C = -1 or, on the
    # all-ones shape, t_B = -1 returned an instance that validate rejects
    make, cls = GENERATORS[name]
    rng = random.Random(9)
    state = rng.getstate()
    shape = {"ones": "t_B", "snf": "t_B", "nfold": "t_A"}[name]
    for size in ({"coeff": 0}, {"coeff": -1}, {"scale": 0}, {"scale": -1}, {"width": -1}, {"n": -1},
                 {"s_C": -1}, {shape: -1}):
        with pytest.raises(BadParamsError):
            make(rng, **size)
        assert rng.getstate() == state, size
    # the edge of the range is still an instance
    inst = make(rng, n=0, width=0, coeff=1, scale=1)
    assert validate(inst) == [] and classify(inst) == cls


@pytest.mark.parametrize("name", sorted(GENERATORS))
def test_parameters_of_the_wrong_type_raise_before_any_draw(name):
    # n = 2.0 and t_A = 2.0 once raised TypeError from range and randint,
    # after part of the stream was drawn
    make, _ = GENERATORS[name]
    rng = random.Random(10)
    state = rng.getstate()
    shape = {"ones": "t_A", "snf": "s_A", "nfold": "t_A"}[name]
    for param in ("n", shape, "s_C", "width", "coeff", "scale"):
        for bad in (2.0, True, None, "2"):
            with pytest.raises(BadParamsError):
                make(rng, **{param: bad})
            assert rng.getstate() == state, (param, bad)
    for bad in (None, "0.5"):
        with pytest.raises(BadParamsError):
            make(rng, seeded_rate=bad)
        assert rng.getstate() == state
    # an int rate is a rate: 1 seeds every instance, as 1.0 does
    assert dumps(make(random.Random(3), seeded_rate=1)) == dumps(make(random.Random(3), seeded_rate=1.0))
