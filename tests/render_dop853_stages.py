"""Render ``src/indefinite_bvp/dop853_stages.py``, the straight-line
stages of the float DOP853 stepper, from the tableau in
``dop853_coefficients``.

Run ``PYTHONPATH=src python tests/render_dop853_stages.py`` from the
repository root to rewrite the module; ``test_integrator.py`` asserts
that the checked-in module equals :func:`render`.  Every sum is rendered
as
``0.0 + a_0 * k_0 + a_1 * k_1 + ...`` over the nonzero coefficients of
its tableau row, left to right, each coefficient a literal with the bits
of the tableau's float: the order in which a loop over the row, starting
from 0.0, adds the products.
"""

import pathlib

from indefinite_bvp import dop853_coefficients as dop

MODULE = pathlib.Path(__file__).resolve().parents[1] / "src" / \
    "indefinite_bvp" / "dop853_stages.py"

WIDTH = 79
N = dop.N_STAGES

HEADER = '''\
"""The stages of one DOP853 step on two floats, written out.

Generated from the tableau of :mod:`dop853_coefficients`, scipy's
numbers under its BSD license, by ``tests/render_dop853_stages.py``; do
not edit it by hand, rerun that script.  A test pins this module to the
script's output, and :func:`integrator.dop853` to the stepper that loops
over the tableau rows, bit for bit.

Each stage sum is ``0.0 + a_0 * k_0 + a_1 * k_1 + ...`` over the nonzero
coefficients of its row, left to right: the order in which a loop from
0.0 adds the products, so the written-out stages keep its bits.  The
field takes and returns floats, ``field(t, u, y) -> (u', y')``.
"""
'''


def nonzero(row):
    """(index, coefficient) of the nonzero entries of a tableau row."""
    return [(j, float(a)) for j, a in enumerate(row) if a != 0.0]


def sum_lines(name, row, comp):
    """``name = 0.0 + a_j * k<j><comp> + ...`` over ``row``, in
    parentheses broken into lines of at most WIDTH columns when it does
    not fit on one."""
    terms = ["0.0"] + ["%r * k%d%s" % (a, j, comp) for j, a in row]
    line = "    %s = %s" % (name, " + ".join(terms))
    if len(line) <= WIDTH:
        return [line]
    head = "    %s = (" % name
    lines, line = [], head + terms[0]
    for term in terms[1:]:
        if len(line) + len(" + ") + len(term) + 1 > WIDTH:
            lines.append(line)
            line = " " * (len(head) - 1) + "+ " + term
        else:
            line += " + " + term
    return lines + [line + ")"]


def stage_lines(s):
    """The two sums of stage ``s`` and its field call."""
    row = nonzero(dop.A[s, :s])
    return sum_lines("su", row, "u") + sum_lines("sy", row, "y") + [
        "    k%du, k%dy = field(t + %r * h, u + su * h, y + sy * h)"
        % (s, s, float(dop.C[s]))]


def names(comp, ks):
    return ", ".join("k%d%s" % (j, comp) for j in ks)


STEP_DOC = '''\
    """One attempted step of size h from (t, u, y), whose field is
    (k0u, k0y): the 11 further stages, then the 5th- and 3rd-order
    error sums and the 8th-order solution.

    Returns (u_new, y_new, e5u, e5y, e3u, e3y, ku, ky), with ku and
    ky the stages 0..11 of the step.
    """'''

DENSE_DOC = '''\
    """The 16 stages of an accepted step of size h from (t, u, y): its
    stages 0..12, ku and ky (those of :func:`step` and the field at the
    step end), then the three extra stages of the dense output."""'''


def render():
    out = [HEADER, "", "def step(field, t, h, u, y, k0u, k0y):", STEP_DOC]
    for s in range(1, N):
        out += stage_lines(s)
    for name, row in (("e5", dop.E5), ("e3", dop.E3), ("s", dop.B)):
        out += sum_lines(name + "u", nonzero(row), "u")
        out += sum_lines(name + "y", nonzero(row), "y")
    out += ["    return (u + h * su, y + h * sy, e5u, e5y, e3u, e3y,",
            "            (%s)," % names("u", range(N)),
            "            (%s))" % names("y", range(N)),
            "", "", "def dense(field, t, h, u, y, ku, ky):", DENSE_DOC,
            "    %s = ku" % names("u", range(N + 1)),
            "    %s = ky" % names("y", range(N + 1))]
    extra = range(N + 1, dop.N_STAGES_EXTENDED)
    for s in extra:
        out += stage_lines(s)
    out.append("    return ku + (%s), ky + (%s)" % (names("u", extra),
                                                  names("y", extra)))
    return "\n".join(out) + "\n"


if __name__ == "__main__":
    MODULE.write_text(render(), encoding="utf-8")
