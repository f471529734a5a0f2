"""Random rhs programs through the RK4 recorder: the replayed, fused step must
equal ``_rk4_update`` on the same numpy arrays, byte for byte but for the
sign and payload of a NaN."""

import math
import operator

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from duffinglab.integrators import _rk4_update, record_rk4  # noqa: E402
from test_integrators import SPECIAL, _same, _special_lanes  # noqa: E402

# the constants an rhs program may use: signed zeros, subnormals, values whose
# products overflow, infinities and nan
CONSTANTS = [0.0, -0.0, 5e-324, -5e-324, 1e-310, 0.5, -2.0, 3.0, 1e300,
             math.inf, -math.inf, math.nan]
OPS = {"+": operator.add, "-": operator.sub, "*": operator.mul}


def _operand(k):
    """Node k's second operand: an earlier value or a constant."""
    return st.one_of(st.integers(0, 2 + k), st.sampled_from(CONSTANTS))


@st.composite
def rhs_programs(draw):
    """An rhs f(q, p, c) as a DAG of +, -, * and unary - nodes.

    Node k reads values by index in [u, v, c, node 0, ..., node k-1], or a
    constant, which may stand on either side.  ``mirror`` evaluates the DAG
    on (q, p, c) for dq and on (p, q, c) for dp: then the two rates are made
    by partner operations wherever a node reads only u-side values and
    constants.  Otherwise dq and dp are two picks from one evaluation, which
    may be a leaf (dq = p, as in the Duffing kinds), the same node twice or a
    constant: shapes with nothing to fuse.
    """
    nodes = []
    for k in range(draw(st.integers(0, 7))):
        op = draw(st.sampled_from(["+", "-", "*", "neg"]))
        nodes.append((op, draw(st.integers(0, 2 + k)), draw(_operand(k)),
                      draw(st.booleans())))
    pick = st.one_of(st.integers(0, 2 + len(nodes)), st.sampled_from(CONSTANTS))
    return nodes, draw(st.booleans()), draw(pick), draw(pick)


def _evaluate(nodes, u, v, c):
    vals = [u, v, c]
    for op, a, b, swap in nodes:
        x = vals[a]
        if op == "neg":
            vals.append(-x)
            continue
        y = vals[b] if isinstance(b, int) else b
        vals.append(OPS[op](y, x) if swap else OPS[op](x, y))
    return vals


def _rhs(program):
    nodes, mirror, dq, dp = program

    def at(vals, i):
        return vals[i] if isinstance(i, int) else i

    def f(q, p, c):
        vals = _evaluate(nodes, q, p, c)
        if mirror:
            return at(vals, dq), at(_evaluate(nodes, p, q, c), dq)
        return at(vals, dq), at(vals, dp)

    return f


# a chain of partner operations inside the rhs: dq = -(2*q*q) + 0.5 and dp
# the same on p
@example(([("*", 0, 0, False), ("*", 3, 2.0, True), ("neg", 4, 0, False),
           ("+", 5, 0.5, False)], True, 6, 6), 0.013)
# dq = p, as in the Duffing kinds: no stage's rates can be stacked
@example(([("*", 0, 0, False), ("-", 2, 3, False)], False, 1, 4), 0.013)
# both rates one lane, and a constant rate
@example(([("*", 1, 2, False)], False, 3, 3), 0.013)
@example(([], False, 2, -0.0), 0.5)
# dq = dp = q: p's final sum reads q, which the step overwrites with q_new
@example(([], False, 0, 0), 0.013)
@settings(max_examples=150, deadline=None)
@given(rhs_programs(), st.sampled_from([0.013, 0.5, 1e-300, 3.0]))
def test_replayed_fused_step_equals_rk4_update_bitwise(program, h):
    f = _rhs(program)
    widths, bind = record_rk4(f, h)
    n = len(SPECIAL) ** 2
    x, cs = np.empty((2, n)), [np.empty(n) for _ in range(3)]
    # stale values in the scratch buffers must never reach an output
    prog = bind((x, *cs), [np.full((w, n), 7.0) for w in widths])
    for shift in (0, 4):
        lanes = _special_lanes(shift)
        for buf, v in zip((*x, *cs), lanes):
            buf[:] = v
        with np.errstate(all="ignore"):
            for uf, a, b, o in prog:
                uf(a, b, o)
            expected = _rk4_update(f, *lanes[:2], h, *lanes[2:])
        assert all(map(_same, x, expected))
        assert [b.tobytes() for b in cs] == [v.tobytes() for v in lanes[2:]]
