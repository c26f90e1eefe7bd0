"""Seeded input schedules for the three benchmark workloads.

A workload is a sequence of passes; a pass is a short list of CLI
invocations whose parameters come from one point of a randomly shifted
low-discrepancy sequence over the workload's parameter box.  Any prefix
of that sequence covers the box evenly, so a run's plan (a prefix whose
length depends only on the time budget) moves little with the seed, while
the seed still picks which inputs are drawn.  The same seed always gives
the same argv lists.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

K_CASCADE = (8, 14)
K_ATLAS = (8, 12)
K_CLASSIFY = (8, 14)


@dataclass(frozen=True)
class Invocation:
    """One call of ``homatlas.cli.main``: its argv (without ``--out``),
    the sweep units it is worth, and what its oracle check needs."""

    argv: tuple
    units: int
    expect: dict = field(default_factory=dict)

    @property
    def subcommand(self) -> str:
        return self.argv[0]


def _num(x: float) -> str:
    return f"{x:.6f}"


def _sets(*pairs):
    out = []
    for key, value in pairs:
        out += ["--set", f"{key}={value}"]
    return out


def _cascade_pass(u):
    lam = 0.45 + 0.10 * u[0]
    alpha = -0.14 + 0.08 * u[1]
    s0 = -0.45 + 0.15 * u[2]
    lo, hi = K_CASCADE
    n_k = hi - lo + 1
    ks = (("k_min", lo), ("k_max", hi))
    out = []
    for sign in (1.0, -1.0):
        argv = ["cascade"] + _sets(
            ("p", "0,1,0.3"), ("q", "0,0,1,1"), ("alpha", _num(alpha)),
            ("lam", _num(sign * lam)), *ks,
        ) + ["--threads", "1"]
        out.append(Invocation(tuple(argv), n_k))
    argv = ["resonance"] + _sets(("s0", _num(s0)), ("h0", "0.02"), *ks)
    out.append(Invocation(tuple(argv), n_k))
    return out


def _atlas_pass(u):
    p2 = 0.2 + 0.2 * u[0]
    lam = 0.45 + 0.10 * u[1]
    lo, hi = K_ATLAS
    n_alpha = 21
    argv = ["atlas2d"] + _sets(
        ("p", f"0,1,{_num(p2)}"), ("lam", _num(lam)), ("n_alpha", n_alpha),
        ("eps", "0.05"), ("k_min", lo), ("k_max", hi),
    ) + ["--threads", "2"]
    return [Invocation(tuple(argv), (hi - lo + 1) * n_alpha)]


# classify families of the six-case table: (tag, lam sign, overrides,
# alpha sign or None); the expected count per k follows from the tag
_CLASSIFY_CASES = (
    ("empty", 1.0, (("p", "0,-1"), ("q", "0,0,-1")), None),
    ("regular", 1.0, (("p", "0,-1"), ("q", "0,0,1")), None),
    ("parity-alternating", -1.0, (("p", "0,-1"), ("q", "0,0,1")), None),
    ("alpha-negative-horseshoes", 1.0, (), -1.0),
    ("alpha-positive-trivial", 1.0, (), 1.0),
)


def _geometry_pass(u):
    m_h = 0.55 + 0.15 * u[0]
    fold_p2 = 0.1 + 0.3 * u[1]
    fold_q3 = 0.5 * u[2]
    p1, q1, w1, d = (0.2 + 0.2 * u[3], 0.3 + 0.4 * u[4],
                     0.1 + 0.2 * u[5], 0.8 + 0.4 * u[6])
    beta = u[7]
    lam = 0.45 + 0.10 * u[8]
    alpha = 0.15 + 0.10 * u[9]
    p3 = 0.3 + 0.2 * u[10]
    q4 = 0.4 + 0.2 * u[11]
    out = [
        Invocation(("henon", *_sets(("M", _num(m_h)))), 1),
        Invocation(("family-check", *_sets(
            ("p", f"0,1,{_num(fold_p2)}"), ("q", f"0,0,1,{_num(fold_q3)}"),
        )), 1),
        Invocation(("family-check", *_sets(
            ("recipe", "sandwich"), ("p1", _num(p1)), ("q1", _num(q1)),
            ("w1", _num(w1)), ("d", _num(d)),
        )), 1),
        Invocation(("cross-form", *_sets(("beta", _num(beta)))), 1,
                   {"beta": float(_num(beta))}),
    ]
    lo, hi = K_CLASSIFY
    for tag, lam_sign, sets, alpha_sign in _CLASSIFY_CASES:
        pairs = [("lam", _num(lam_sign * lam)), *sets]
        if alpha_sign is not None:
            pairs.append(("alpha", _num(alpha_sign * alpha)))
        pairs += [("k_min", lo), ("k_max", hi)]
        out.append(Invocation(("classify", *_sets(*pairs)), 1, {"tag": tag}))
    out.append(Invocation(("rescale-verify", *_sets(
        ("p", f"0,1,0,{_num(p3)}"), ("q", f"0,0,1,1,{_num(q4)}"),
    )), 1))
    return out


@dataclass(frozen=True)
class Workload:
    name: str
    dims: int
    make_pass: object
    # parent-commit wall time of one pass on a 2-vCPU machine; sizes the
    # fixed plan of a run, never how long the timed loop lasts
    nominal_pass_s: float

    def plan_passes(self, seconds: float, share: float) -> int:
        """Passes that fill ``share`` of ``seconds`` at the nominal time."""
        return max(1, int(share * seconds / self.nominal_pass_s))


WORKLOADS = {
    w.name: w
    for w in (
        Workload("cascade", 3, _cascade_pass, 3.7),
        Workload("atlas", 2, _atlas_pass, 4.8),
        Workload("geometry", 12, _geometry_pass, 0.15),
    )
}


_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def _radical_inverse(i: int, base: int) -> float:
    """i with its base-b digits mirrored about the radix point."""
    out, scale = 0.0, 1.0
    while i:
        i, digit = divmod(i, base)
        scale /= base
        out += digit * scale
    return out


def passes(workload: Workload, seed: int):
    """Endless generator of passes (lists of Invocation) for a seed.

    Pass i takes the i-th point of the Halton sequence (one prime base per
    parameter), shifted modulo 1 by a seed-drawn offset.  In base 2 the
    first 2**n passes put exactly one value of the first parameter into
    each of 2**n equal strata, so the first parameter is the one whose
    spread matters most for a workload's timing.
    """
    rng = random.Random(seed)
    shift = [rng.random() for _ in range(workload.dims)]
    i = 0
    while True:
        u = [(s + _radical_inverse(i, b)) % 1.0
             for s, b in zip(shift, _PRIMES)]
        yield workload.make_pass(u)
        i += 1


def plan(workload: Workload, seed: int, n_passes: int):
    """The first ``n_passes`` passes of a seed's schedule, as one list of
    invocations."""
    schedule = passes(workload, seed)
    return [inv for _ in range(n_passes) for inv in next(schedule)]
