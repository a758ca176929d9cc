"""Finite-difference jets of one-parameter Gaussian families.

The library families carry closed-form derivatives; this is the reference
they are checked against, and the way a family given as
lambda -> GaussianState becomes the Monras oracle's MatrixFamily.
"""

from tests.oracles.monras import MatrixFamily


def jet(evaluate, lambda0, step=1e-4):
    """MatrixFamily at lambda0 from five evaluations of the family.

    Central differences at step and at step / 2, combined by Richardson
    extrapolation: the O(step^2) error term cancels.
    """
    state0 = evaluate(lambda0)

    def central(h):
        sp, sm = evaluate(lambda0 + h), evaluate(lambda0 - h)
        return (sp.sigma - sm.sigma) / (2.0 * h), (sp.d - sm.d) / (2.0 * h)

    (ds_h, dd_h), (ds_2, dd_2) = central(step), central(step / 2.0)
    return MatrixFamily(state0, (4.0 * ds_2 - ds_h) / 3.0,
                        (4.0 * dd_2 - dd_h) / 3.0, lambda0)
