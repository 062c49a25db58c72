"""Seeded inputs of the three workloads.

Every input is a pure function of ``(seed, index)``: the load generator
and the harness rebuild the same request stream independently, and the
program only ever sees the generated bodies.

* ``serve_point`` cycles POST /evaluate bodies through a pool of 56
  distinct bodies (7 named and library designs x 8 knob shapes, knob
  values from a small finite set), so designs stay in the warm caches
  and same-shaped requests can coalesce.
* ``serve_explore`` mixes /mc (50%), /splits (25%) and /scenarios (25%)
  in exact blocks, with per-request seeds over a pool of
  :data:`DESIGN_POOL_SIZE` inline designs — a working set far larger
  than the server's 256-entry invariant LRU and 512-entry design intern
  table.
* ``scenario_study`` runs the 32 chiplet candidates of
  ``scripts/bench_engine.py:scenario_portfolio_workload`` over the
  50-scenario graded stress grid with a fresh study seed per op.
"""

from __future__ import annotations

import hashlib
import itertools
import random
from typing import Any, Dict, List, Sequence, Tuple

WORKLOADS = ("serve_point", "serve_explore", "scenario_study")

#: Nodes with wafer production capacity in the default database.
NODES = (
    "250nm", "180nm", "130nm", "90nm", "65nm",
    "40nm", "28nm", "14nm", "7nm", "5nm",
)
#: Nodes inline explore designs are built on (dense enough for big dies).
DESIGN_NODES = ("65nm", "40nm", "28nm", "14nm", "7nm", "5nm")

DESIGN_POOL_SIZE = 2000
MC_SAMPLES = 1024
SCENARIO_SAMPLES = 512
WARMUP_FILL_DESIGNS = 520
WARMUP_EXPLORE_OPS = 48

#: The non-baseline stress families a /scenarios request selects.
STRESS_FAMILIES = (
    "fab-outage", "export-control", "demand-whiplash", "demand-collapse",
    "logistics", "defect-excursion", "capacity-squeeze",
)

_EXPLORE_BLOCK = ("mc", "mc", "splits", "scenarios")

_POINT_DESIGNS: Tuple[Any, ...] = (
    "a11",
    "zen2",
    "raven",
    {"library": "a11", "process": "5nm"},
    {"library": "a11", "process": "14nm"},
    {"library": "zen2-monolithic", "process": "7nm"},
    {"library": "raven", "process": "28nm"},
)
_POINT_KNOBS: Dict[str, Tuple[float, ...]] = {
    "capacity": (0.5, 0.65, 0.8),
    "queue_weeks": (2.0, 4.0, 8.0),
    "d0_scale": (1.1, 1.2),
}
_POINT_CHIPS = (1e6, 1e7, 5e7)


def rng_for(seed: int, *parts: object) -> random.Random:
    """A ``random.Random`` keyed by the seed and a path of parts
    (string seeding hashes with SHA-512, so it is process-independent)."""
    return random.Random(":".join(str(p) for p in (seed, *parts)))


def int_seed(seed: int, *parts: object) -> int:
    digest = hashlib.blake2b(
        ":".join(str(p) for p in (seed, *parts)).encode(), digest_size=4
    ).digest()
    return int.from_bytes(digest, "big") & 0x7FFFFFFF


# -- serve_point ----------------------------------------------------------------


def point_pool(seed: int) -> List[Dict[str, Any]]:
    """The pool of distinct /evaluate bodies: every design under every
    knob shape (which knobs are present, the coalescing and routing
    key), with seeded knob values. The shape mix, and so the routing
    split between workers, is the same for every seed."""
    rng = rng_for(seed, "point-pool")
    pool = []
    for design in _POINT_DESIGNS:
        for present in itertools.product((False, True), repeat=len(_POINT_KNOBS)):
            body: Dict[str, Any] = {
                "design": design,
                "n_chips": rng.choice(_POINT_CHIPS),
            }
            for (name, values), on in zip(_POINT_KNOBS.items(), present):
                if on:
                    body[name] = rng.choice(values)
            pool.append(body)
    return pool


# -- serve_explore --------------------------------------------------------------


def design_pool(seed: int) -> List[Dict[str, Any]]:
    """The seeded pool of inline multi-die designs (all valid)."""
    rng = rng_for(seed, "design-pool")
    pool = []
    for j in range(DESIGN_POOL_SIZE):
        n_dies = 1 + j % 3
        total = rng.uniform(3e8, 4e9)
        dies = []
        for d in range(n_dies):
            transistors = total / n_dies
            die: Dict[str, Any] = {
                "name": f"d{d}",
                "process": rng.choice(DESIGN_NODES),
                "blocks": [
                    {
                        "name": f"b{d}",
                        "transistors": round(transistors, -3),
                        "instances": rng.randint(1, 4),
                        "unique_transistors": round(
                            transistors * rng.uniform(0.05, 0.5), -3
                        ),
                    }
                ],
            }
            if rng.random() < 0.3:
                die["count"] = 2
            dies.append(die)
        pool.append({"name": f"x{seed}-{j}", "dies": dies})
    return pool


def explore_request(
    seed: int, index: int, designs: Sequence[Dict[str, Any]]
) -> Tuple[str, Dict[str, Any]]:
    """Op ``index`` of the explore mix: ``(endpoint, body)``.

    The mix is exact, not drawn: every block of four ops holds two /mc,
    one /splits and one /scenarios in a seeded order; the die count of
    /mc and /scenarios designs, the stress family of /scenarios and the
    pair count of /splits cycle with the op's rank within its endpoint.
    Only the designs, knob values and per-request seeds follow the seed,
    so the work per run (and the heavy requests in its tail) does not
    drift with the seed.
    """
    rng = rng_for(seed, "explore", index)
    block, slot = divmod(index, 4)
    order = rng_for(seed, "explore-block", block).sample(_EXPLORE_BLOCK, 4)
    kind = order[slot]
    if kind == "mc":
        rank = 2 * block + order[:slot].count("mc")
        return "mc", {
            "design": _design_with_dies(rng, designs, rank % 3),
            "samples": MC_SAMPLES,
            "seed": rng.randrange(2**31),
        }
    if kind == "splits":
        pairs = [rng.sample(NODES, 2) for _ in range(1 + block % 2)]
        return "splits", {
            "design": ("a11", "raven")[(block // 2) % 2],
            "pairs": pairs,
            "n_chips": float(round(10 ** rng.uniform(5.0, 8.0), -3)),
        }
    combo = block % (3 * len(STRESS_FAMILIES))
    return "scenarios", {
        "design": _design_with_dies(rng, designs, combo % 3),
        "scenarios": STRESS_FAMILIES[combo // 3],
        "samples": SCENARIO_SAMPLES,
        "seed": rng.randrange(2**31),
    }


def _design_with_dies(
    rng: random.Random, designs: Sequence[Dict[str, Any]], offset: int
) -> Dict[str, Any]:
    """A seeded pool design with ``1 + offset`` dies (pool entry ``j``
    has ``1 + j % 3``)."""
    return designs[3 * rng.randrange(len(designs) // 3) + offset]


class RequestStream:
    """Op ``i`` of a serve workload, plus its warm-up ops."""

    def __init__(self, workload: str, seed: int) -> None:
        if workload not in ("serve_point", "serve_explore"):
            raise ValueError(f"not a serve workload: {workload!r}")
        self.workload = workload
        self.seed = seed
        self._order: Tuple[int, List[int]] = (-1, [])
        if workload == "serve_point":
            self.pool = point_pool(seed)
        else:
            self.pool = design_pool(seed)

    def request(self, index: int) -> Tuple[str, Dict[str, Any]]:
        if self.workload == "serve_point":
            # Each block of len(pool) ops is a seeded permutation of the
            # pool, so every run sends the same mix.
            block, slot = divmod(index, len(self.pool))
            if self._order[0] != block:
                self._order = (block, rng_for(self.seed, "point", block).sample(
                    range(len(self.pool)), len(self.pool)
                ))
            return "evaluate", self.pool[self._order[1][slot]]
        return explore_request(self.seed, index, self.pool)

    def warmup(self) -> List[Tuple[str, Dict[str, Any]]]:
        """Untimed ops that bring the server to its steady state before
        the timed phase: every pool body once for serve_point; for
        serve_explore, a cheap /evaluate of :data:`WARMUP_FILL_DESIGNS`
        distinct pool designs (more than the server's design table and
        invariant LRU hold, so both are full and evicting, as they are
        for the rest of the run), then :data:`WARMUP_EXPLORE_OPS` explore
        ops at negative indices, disjoint from the timed stream."""
        if self.workload == "serve_point":
            return [("evaluate", body) for body in self.pool]
        fill = [
            ("evaluate", {"design": design, "n_chips": 1e6})
            for design in self.pool[:WARMUP_FILL_DESIGNS]
        ]
        return fill + [
            explore_request(self.seed, -1 - i, self.pool)
            for i in range(WARMUP_EXPLORE_OPS)
        ]


# -- scenario_study -------------------------------------------------------------

#: Mirrors ``scripts/bench_engine.py`` (SCENARIO_* constants).
STUDY_DESIGNS = 32
STUDY_SAMPLES = 2048
STUDY_N_CHIPS = 1e7
STUDY_INTENSITIES = tuple((i + 1) / 11 for i in range(11))
STUDY_DEMAND_INTENSITIES = (0.25, 0.5, 0.75, 1.0)
STUDY_NODES = ("65nm", "40nm", "28nm", "14nm", "7nm", "5nm")


def study_designs(n_designs: int = STUDY_DESIGNS):
    """The chiplet candidates of
    ``scripts/bench_engine.py:scenario_portfolio_workload`` (3-6 nodes
    each), rebuilt here so the study process does not import the bench script."""
    from repro.design.block import Block
    from repro.design.chip import ChipDesign
    from repro.design.die import Die

    designs = []
    for i in range(n_designs):
        nodes = STUDY_NODES[i % 3 : i % 3 + 3 + (i % 4)]
        dies = tuple(
            Die(
                name=f"sc{i}-die{j}",
                process=node,
                blocks=(
                    Block(
                        name=f"sc{i}-b{j}",
                        transistors=(2e9 + i * 1e8) / len(nodes),
                        instances=4,
                        unique_transistors=(2e8 + i * 5e6) / len(nodes),
                    ),
                ),
                count=1 + (j % 2),
                area_mm2=80.0 + 5.0 * j,
            )
            for j, node in enumerate(nodes)
        )
        designs.append(ChipDesign(name=f"chiplet-{i:02d}", dies=dies))
    return designs


def study_scenarios():
    """The 50-scenario graded stress grid."""
    from repro.montecarlo.stress import graded_stress_scenarios

    return graded_stress_scenarios(
        STUDY_INTENSITIES, demand_intensities=STUDY_DEMAND_INTENSITIES
    )


def study_seed(seed: int, index: int) -> int:
    """The study seed of op ``index`` (warm-up ops use negative indices)."""
    return int_seed(seed, "study", index)


def study_check_slice(seed: int, index: int, n_scenarios: int) -> int:
    """The seeded scenario slice whose cube op ``index`` checks."""
    return rng_for(seed, "study-check", index).randrange(n_scenarios)
