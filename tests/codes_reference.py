"""The two-pass code quasimorphisms that `qmgraph.codes` used before it
read both counts off one code.

Kept as the oracle of the differential test in test_codes.py: each value
is theta_z(x) - theta_z(x^-1), with the inverse normalised and its code
computed afresh.
"""

from qmgraph.codes import theta, weighted_theta


def code_qm(x, partition, side, z):
    return theta(x, partition, side, z) - theta(x.inverse(), partition,
                                                side, z)


def weighted_code_qm(x, partition, z):
    return weighted_theta(x, partition, z) - weighted_theta(
        x.inverse(), partition, z)
