"""The see-saw's projector stacks against the einsum formula they replace,
bit for bit (``seesaw_oracle.qubit_stacks``)."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import seesaw_oracle as oracle
from bellcert.quantum import _qubit_stacks

# signed zeros, exact Pauli weights, unnormalised entries of any sign, and the
# smallest subnormals, whose halves round to a signed zero
ENTRIES = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5, -2.0, 5e-324, -5e-324]),
    st.floats(-4.0, 4.0),
    st.floats(allow_nan=False, allow_infinity=False),
)


def bloch_arrays():
    shapes = st.tuples(st.integers(1, 6), st.integers(1, 4), st.just(3))
    return shapes.flatmap(lambda shape: arrays(np.float64, shape, elements=ENTRIES))


def bits(a):
    """The array's 64-bit words, in which -0.0 and 0.0 differ."""
    return np.ascontiguousarray(a).view(np.uint64)


@settings(max_examples=300, deadline=None)
@given(bloch_arrays())
def test_flat_stacks_equal_the_einsum_formula_bit_for_bit(bloch):
    want = oracle.qubit_stacks(bloch)
    got = _qubit_stacks(bloch)
    assert got.dtype == np.complex128
    assert got.shape == (bloch.shape[0], bloch.shape[1] * 2, 4)
    assert np.array_equal(bits(got.reshape(want.shape)), bits(want))

