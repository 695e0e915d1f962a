"""The n-ary linear-combination walk (``combine_apply``).

``linear_combination`` forms ``sum_i c_i t_i`` in one walk over every
operand.  These check it against the dense sum for any number of terms,
repeated operands, zero coefficients and terminal-only terms; that a
cancellation comes out as the exact zero edge; that its memo counts
land in the manager's combined counters; and that the result depends
on the order of the terms only, never on node ids, since store and
cache keys hash the payloads of bases it builds.
"""

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from repro.indices.index import Index
from repro.tdd import construction as tc
from repro.tdd.io import payload_digest, to_dict
from repro.tdd.tdd import linear_combination

from tests.helpers import fresh_manager, random_tensor

NAMES = ["p0", "p1", "p2", "p3"]
INDICES = [Index(name) for name in NAMES]

#: coefficients: zero, exact binary fractions and arbitrary complex
coefficient = st.one_of(
    st.just(0j),
    st.sampled_from([1 + 0j, -1 + 0j, 0.5j, -2 + 0j]),
    st.complex_numbers(max_magnitude=4, allow_nan=False,
                       allow_infinity=False))


def dense_sum(terms, pool):
    return sum((c * pool[k] for c, k in terms),
               np.zeros((2,) * len(NAMES), dtype=complex))


@given(seed=st.integers(min_value=0, max_value=2 ** 32 - 1),
       pool_size=st.integers(min_value=1, max_value=3),
       terms=st.lists(st.tuples(coefficient, st.integers(0, 2)),
                      max_size=8))
def test_matches_the_dense_sum(seed, pool_size, terms):
    # indices into a small pool repeat operands; 0 to 8 terms
    rng = np.random.default_rng(seed)
    manager = fresh_manager(NAMES)
    pool = [random_tensor(rng, len(NAMES)) for _ in range(pool_size)]
    # the pool shares sub-diagrams: its last member reuses the first's
    # low half
    pool[-1][0] = pool[0][0]
    terms = [(c, k % pool_size) for c, k in terms]
    tdds = [tc.from_numpy(manager, arr, INDICES) for arr in pool]
    out = linear_combination(manager, [(c, tdds[k]) for c, k in terms],
                             INDICES)
    assert set(out.indices) == set(INDICES)
    want = dense_sum(terms, pool)
    assert np.allclose(out.to_numpy(), want, atol=1e-9)


@given(values=st.lists(coefficient, max_size=5),
       scale=coefficient)
def test_terminal_only_terms(values, scale):
    manager = fresh_manager(NAMES)
    scalars = [(scale, tc.scalar(manager, v)) for v in values]
    out = linear_combination(manager, scalars)
    assert out.is_scalar
    assert np.isclose(complex(out.to_numpy()), scale * sum(values),
                      atol=1e-9)
    # a terminal term next to a tensor adds a constant tensor
    arr = np.arange(16, dtype=complex).reshape((2,) * 4)
    tensor = tc.from_numpy(manager, arr, INDICES)
    out = linear_combination(manager, [(1, tensor)] + scalars)
    assert np.allclose(out.to_numpy(), arr + scale * sum(values),
                       atol=1e-9)


def test_no_term_is_the_zero_tensor():
    manager = fresh_manager(NAMES)
    out = linear_combination(manager, [], INDICES)
    assert out.is_zero and set(out.indices) == set(INDICES)


def test_one_term_reuses_its_node(rng):
    manager = fresh_manager(NAMES)
    tensor = tc.from_numpy(manager, random_tensor(rng, 4), INDICES)
    nodes = manager.nodes_made
    out = linear_combination(manager, [(2.5j, tensor)])
    assert out.root.node is tensor.root.node
    assert out.root.weight == 2.5j * tensor.root.weight
    assert manager.nodes_made == nodes


def test_cancellation_is_the_exact_zero_edge(rng):
    manager = fresh_manager(NAMES)
    a = tc.from_numpy(manager, random_tensor(rng, 4), INDICES)
    b = tc.from_numpy(manager, random_tensor(rng, 4), INDICES)
    out = linear_combination(manager, [(1, a), (0.5j, b), (-1, a),
                                       (-0.5j, b)])
    assert out.is_zero and out.root.node is manager.terminal
    # operands that share their low half cancel there exactly
    low = random_tensor(rng, 3)
    arr_a = np.stack([low, random_tensor(rng, 3)])
    arr_b = np.stack([low, random_tensor(rng, 3)])
    c = tc.from_numpy(manager, arr_a, INDICES)
    d = tc.from_numpy(manager, arr_b, INDICES)
    out = linear_combination(manager, [(1, c), (-1, d)])
    dense = out.to_numpy()
    assert np.all(dense[0] == 0)
    assert np.allclose(dense[1], arr_a[1] - arr_b[1], atol=1e-9)


def test_memo_counts_join_the_combined_counters(rng):
    manager = fresh_manager(NAMES)
    tdds = [tc.from_numpy(manager, random_tensor(rng, 4), INDICES)
            for _ in range(3)]
    before = manager.cache_counters()
    linear_combination(manager, [(1, t) for t in tdds])
    after = manager.cache_counters()
    walked = manager.combine_cache
    assert walked.misses > 0
    assert after["hits"] - before["hits"] == walked.hits
    assert after["misses"] - before["misses"] == walked.misses
    # add_* count binary additions only, and the memo lives for one call
    assert after["add_hits"] == before["add_hits"]
    assert after["add_misses"] == before["add_misses"]
    assert len(walked) == 0


def test_result_depends_on_the_terms_not_on_node_ids():
    # the same terms in two fresh managers, the operands built in
    # opposite orders so that their nodes' ids do not sort alike
    rng = np.random.default_rng(7)
    arrays = [random_tensor(rng, 4) for _ in range(6)]
    for arr in arrays[1:]:
        arr[0, 0] = arrays[0][0, 0]  # shared sub-diagrams merge
    coefficients = rng.normal(size=6) + 1j * rng.normal(size=6)
    digests = []
    for order in (range(6), reversed(range(6))):
        manager = fresh_manager(NAMES)
        built = {k: tc.from_numpy(manager, arrays[k], INDICES)
                 for k in order}
        terms = [(coefficients[k], built[k]) for k in range(6)]
        digests.append(payload_digest(to_dict(
            linear_combination(manager, terms))))
    assert digests[0] == digests[1]
