"""Seeded workload generators.

Each generator turns a seed into the configs the program sees; the oracle
derives what it expects from the same configs.  The seed only picks positions
and flux splits.  Hole and bump radii, mode counts, table lengths and numbers of
boundary circles are fixed, because the verification work follows them (the
FD bulk spacing is the smallest hole radius over ``bulk_divisor``), so every
seed asks for the same amount of work.

A job is ``(command, config_name)``; configs are plain JSON documents.
``cli_jobs`` run as one CLI process each; ``pass_jobs`` are what one pass of
the warm and the traced runs executes in-process.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Tuple

from oracle import window

Job = Tuple[str, str]

# hole fluxes in units of pi, inside the q = 0 gauge window [-1, 1); the seed
# adds a gauge shift of 2k on top so normalisation is exercised as well
HOLE_FLUX_PI = [Fraction(k, 4) for k in range(-4, 4)]
Q_POOL = [Fraction(1, 4), Fraction(-1, 4), Fraction(1, 3), Fraction(-1, 3),
          Fraction(1, 2), Fraction(1, 6), Fraction(2, 5), Fraction(-3, 8)]
# fluxes of the index grid, the same for every seed: which float-flux rows hit
# the library's known threshold defect follows the fluxes alone, so fixed
# fluxes give every seed the same failed share
INDEX_HOLE_FLUX_PI = [Fraction(1, 4) - 4, Fraction(-3, 4) + 2]
INDEX_Q = [Fraction(0)] + Q_POOL


@dataclass
class Workload:
    name: str
    configs: Dict[str, dict]
    cli_jobs: List[Job]
    pass_jobs: List[Job]


def _place(rng: random.Random, radii: List[float], container: float,
           gap: float) -> List[complex]:
    """Centres for discs of the given radii, pairwise apart by ``gap`` and
    inside the origin-centred circle of radius ``container`` by ``gap``."""
    for _ in range(10_000):
        centres: List[complex] = []
        for r in radii:
            reach = container - r - gap
            angle = 2 * math.pi * rng.random()
            c = reach * math.sqrt(rng.random()) * complex(math.cos(angle), math.sin(angle))
            c = complex(round(c.real, 3), round(c.imag, 3))
            if abs(c) + r + gap >= container or any(
                    abs(c - o) <= r + ro + gap for o, ro in zip(centres, radii)):
                break
            centres.append(c)
        else:
            return centres
    raise RuntimeError("could not place the discs")


def _hole_fluxes(rng: random.Random, n: int) -> List[Fraction]:
    """Raw hole fluxes (units of pi): a gauge-window value plus 2k."""
    return [rng.choice(HOLE_FLUX_PI) + 2 * rng.randint(-2, 2) for _ in range(n)]


def _disc(holes, radius_out=None, kind="disc", omitted=None) -> dict:
    node = {"kind": kind, "holes": [
        {"center": [c.real, c.imag], "radius": r} for c, r in holes]}
    if radius_out is not None:
        node["radius_out"] = radius_out
    if omitted is not None:
        node["omitted_hole"] = omitted
    return node


def _bump(c: complex, radius: float, flux_pi: Fraction, profile: str) -> dict:
    return {"center": [c.real, c.imag], "support_radius": radius,
            "flux_pi": str(flux_pi), "profile": profile}


# Why: five spin-up modes on a disc with two holes and two smooth bumps is
# the verify that exercises the Chebyshev bump build, the lazy scipy
# quadrature, eval_h/eval_a at nine stencil shifts per mode and the per-mode
# loop of verify_mode (five, not ten, so a 30-second run holds three rounds).
def verify_disc_smooth(seed: int) -> Workload:
    rng = random.Random(seed)
    hole_r, bump_r = 0.35, 0.6
    centres = _place(rng, [hole_r, hole_r, bump_r, bump_r], 3.0, 0.3)
    raw_holes = _hole_fluxes(rng, 2)
    # total flux 21 pi / 2: x = 21/4, so floor*(x + 1/2) = 5 modes, spin up
    bump_total = Fraction(21, 2) - sum(2 * window(h / 2, Fraction(0)) for h in raw_holes)
    share = Fraction(rng.randint(7, 13), 20)
    b1 = Fraction(round(bump_total * share * 4), 4)
    config = {
        "domain": _disc([(centres[0], hole_r), (centres[1], hole_r)], radius_out=3.0),
        "field": {"bumps": [_bump(centres[2], bump_r, b1, "smooth"),
                            _bump(centres[3], bump_r, bump_total - b1, "smooth")],
                  "hole_fluxes_pi": [str(h) for h in raw_holes]},
    }
    return Workload("verify_disc_smooth", {"verify": config},
                    [("verify", "verify")], [("verify", "verify")])


# Why: a projected sphere with five holes puts leakage over five circles per
# mode in front, runs the conformal dressing, and has no smooth bump, so set-up
# needs no scipy and no Chebyshev build.
def verify_sphere_holes(seed: int) -> Workload:
    rng = random.Random(seed)
    hole_r, bump_r, outer_r = 0.3, 0.6, 3.0
    centres = _place(rng, [hole_r] * 4 + [bump_r], outer_r, 0.3)
    raw_holes = _hole_fluxes(rng, 4)
    # semi-total flux 13 pi / 2: x = 13/4, so floor*(x + 1/2) = 3 modes, spin up
    bump = Fraction(13, 2) - sum(2 * window(h / 2, Fraction(0)) for h in raw_holes)
    omitted = -(bump + sum(raw_holes))  # the sphere's total flux must vanish
    config = {
        "domain": _disc([(c, hole_r) for c in centres[:4]] + [(0j, outer_r)],
                        kind="sphere", omitted=4),
        "field": {"bumps": [_bump(centres[4], bump_r, bump, "uniform")],
                  "hole_fluxes_pi": [str(h) for h in raw_holes + [omitted]]},
    }
    return Workload("verify_sphere_holes", {"verify": config},
                    [("verify", "verify")], [("verify", "verify")])


# Why: the table commands run field normalisation, the numutil thresholds,
# zero-mode counting and the eta/index assembly with no PotentialField and no
# FD, so verify-side optimisations predict no change here and import time is a
# large share of each process.
def batch_tables(seed: int) -> Workload:
    rng = random.Random(seed)
    configs: Dict[str, dict] = {}

    start = Fraction(-40) + Fraction(rng.randrange(16), 16)
    q_values = [Fraction(0)] + rng.sample(Q_POOL, 3)
    configs["sweep"] = {"sweep": {
        "phi_pi": {"start": str(start), "stop": str(start + 80), "step": "1/16"},
        "q_values": [str(q) for q in q_values]}}

    c_values: List[Fraction] = []
    while len(c_values) < 12:
        d = rng.randint(2, 16)
        c = Fraction(rng.randrange(-3 * d, 3 * d), d)
        if c.denominator > 1 and c not in c_values:
            c_values.append(c)
    configs["eta"] = {"eta": {"c_values": [str(c) for c in c_values],
                              "s_values": [0.2, 0.1, 0.05, 0.025]}}

    bm_s = rng.choice([0.5, 1.0, 2.0])
    bm_phi = Fraction(2 * rng.randint(-5, 4) + 1)
    bm_start = Fraction(-12) + Fraction(rng.randrange(8), 8)
    bm = {"r_inner": 1.0, "r_outer": 2.0, "s_inner": bm_s, "s_outer": -bm_s,
          "phi_pi": str(bm_phi)}
    configs["bm_sweep"] = {"bm": dict(bm, sweep={
        "start": str(bm_start), "stop": str(bm_start + 24), "step": "1/8"})}
    configs["bm_verify"] = {"bm": bm}

    # one rational grid of bump fluxes from -6 pi to 6 pi, each point once with
    # exact (pi-multiple) and once with float fluxes, for every q of INDEX_Q;
    # the seed places the holes and the bump
    hole_r, bump_r = 0.35, 0.6
    centres = _place(rng, [hole_r, hole_r, bump_r], 3.0, 0.3)
    domain = _disc([(centres[0], hole_r), (centres[1], hole_r)], radius_out=3.0)
    raw_holes = INDEX_HOLE_FLUX_PI
    index_names: List[str] = []
    for q in INDEX_Q:
        for k in range(-24, 25):
            b = Fraction(k, 4)
            for exact in (True, False):
                name = f"index{len(index_names):03d}"
                bump = _bump(centres[2], bump_r, b, "uniform")
                fld: dict = {"bumps": [bump], "q": str(q)}
                if exact:
                    fld["hole_fluxes_pi"] = [str(h) for h in raw_holes]
                else:
                    del bump["flux_pi"]
                    bump["flux"] = float(b) * math.pi
                    fld["hole_fluxes"] = [float(h) * math.pi for h in raw_holes]
                configs[name] = {"domain": domain, "field": fld}
                index_names.append(name)

    pick = 2 * rng.randrange(len(index_names) // 2)  # an exact/float pair
    cli_jobs = [("sweep", "sweep"), ("eta", "eta"),
                ("index", index_names[pick]), ("index", index_names[pick + 1]),
                ("bm", "bm_sweep"), ("bm", "bm_verify")]
    pass_jobs = [("sweep", "sweep"), ("eta", "eta")] \
        + [("index", n) for n in index_names] \
        + [("bm", "bm_sweep"), ("bm", "bm_verify")]
    return Workload("batch_tables", configs, cli_jobs, pass_jobs)


GENERATORS = {g.__name__: g for g in (verify_disc_smooth, verify_sphere_holes, batch_tables)}
