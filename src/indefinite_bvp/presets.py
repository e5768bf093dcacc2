"""Ready-made problem configurations for the worked examples.

Each preset bundles a weight, nonlinearity and boundary mode together
with a search configuration tuned for it.  The two figure presets use
g(s) = 100 s arctan(s); the max{0, .} clamp of the original caption is
inactive for s >= 0 and therefore omitted.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import ConfigurationError
from .integrator import ProblemSpec
from .nonlinearity import NonlinearitySpec
from .shooting import SearchConfig
from .weight import WeightSpec


@dataclass(frozen=True)
class Preset:
    name: str
    problem: ProblemSpec
    search: SearchConfig
    k: int = 1
    notes: str = ""


def fig1(mu=None):
    """Neumann problem on [0, 1] with w = sin+(3 pi t) - 7 sin-(3 pi t).

    Two positivity humps; exactly three positive solutions with codes
    (1,0), (0,1) and (1,1).  The scaling of the negative part is part of
    the weight, so the problem-level mu stays 1 unless overridden.
    """
    w = WeightSpec.sin_pm(3 * math.pi, nu=1.0, mu=7.0, period=1.0)
    g = NonlinearitySpec.arctan_scaled(100.0)
    p = ProblemSpec.build(w, 1.0 if mu is None else mu, 0.0, g,
                          boundary="neumann")
    sc = SearchConfig(u_min=1e-4, u_max=0.5, u_count=400, residual_tol=1e-9)
    return Preset("fig1", p, sc,
                  notes="three positive Neumann solutions, codes 10/01/11")


def fig2(mu=7.0):
    """Periodic problem with a = sin(2 pi t), mu = 7, T = 1.

    One hump per period; at k = 2 there are three positive 2-periodic
    solutions: one subharmonic orbit of order 2 (codes (1,0) and (0,1))
    and the 1-periodic solution (code (1,1)).
    """
    w = WeightSpec.sine(2 * math.pi, period=1.0)
    g = NonlinearitySpec.arctan_scaled(100.0)
    p = ProblemSpec.build(w, mu, 0.0, g, boundary="periodic")
    sc = SearchConfig(u_min=1e-4, u_max=5.0, u_count=48, y_count=32,
                      max_candidates=30)
    return Preset("fig2", p, sc, k=2,
                  notes="subharmonics of order 2 plus the 1-periodic one")


def multiplicity_m2(mu=10.0):
    """Weight sin+(2t) - mu sin-(2t), g(s) = s^2, over the 2 pi window.

    The weight has minimal period pi, so the problem is posed on [0, pi]
    and the two humps of the 2 pi window are reached as the k = 2
    iterate; at least 3 distinct codes exist above mu*.
    """
    w = WeightSpec.sine(2.0, period=math.pi)
    g = NonlinearitySpec.power(2)
    p = ProblemSpec.build(w, mu, 0.0, g, boundary="periodic")
    sc = SearchConfig(u_min=1e-3, u_max=5.0, u_count=32, y_count=24,
                      y_min=-5.0, y_max=5.0, max_candidates=20)
    return Preset("multiplicity-m2", p, sc, k=2,
                  notes="m=2 humps: expect >= 3 distinct codes above mu*")


def multiplicity_m3(mu=10.0, nu=100.0):
    """Weight sin+(3t) - mu sin-(3t), g(s) = nu s arctan(s), over the
    2 pi window.

    Posed on the minimal period [0, 2 pi / 3]; the three humps of the
    2 pi window are the k = 3 iterate, with at least 7 distinct codes
    above mu*.
    """
    w = WeightSpec.sine(3.0, period=2 * math.pi / 3)
    g = NonlinearitySpec.arctan_scaled(nu)
    p = ProblemSpec.build(w, mu, 0.0, g, boundary="periodic")
    sc = SearchConfig(u_min=1e-4, u_max=2.0, u_count=32, y_count=24,
                      y_min=-2.0, y_max=2.0, max_candidates=12)
    return Preset("multiplicity-m3", p, sc, k=3,
                  notes="m=3 humps: expect >= 7 distinct codes above mu*")


_PRESETS = {
    "fig1": fig1,
    "fig2": fig2,
    "multiplicity-m2": multiplicity_m2,
    "multiplicity-m3": multiplicity_m3,
}


def list_presets():
    return sorted(_PRESETS)


def get_preset(name, **kwargs):
    try:
        builder = _PRESETS[name]
    except KeyError:
        raise ConfigurationError(
            "unknown preset %r (available: %s)"
            % (name, ", ".join(list_presets())))
    return builder(**kwargs)
