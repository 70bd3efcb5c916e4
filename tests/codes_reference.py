"""The two-pass code quasimorphisms that `qmgraph.codes` used before it
read both counts off one code.

Kept as the oracle of the differential test in test_codes.py: each value
is #_z(code(x)) - #_z(code(x^-1)), with the inverse normalised and its
code computed afresh.
"""

from qmgraph.codes import code, count_disjoint, weighted_z_code


def code_qm(x, partition, side, z):
    return (count_disjoint(code(x, partition, side), z)
            - count_disjoint(code(x.inverse(), partition, side), z))


def weighted_code_qm(x, partition, z):
    return (count_disjoint(weighted_z_code(x, partition), z)
            - count_disjoint(weighted_z_code(x.inverse(), partition), z))
