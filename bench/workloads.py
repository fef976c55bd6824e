"""Seeded op lists for the three benchmark workloads.

Each workload is a fixed template of slots.  A slot fixes the family, the base
size and a target flower size; the seed picks the flower near that target
(petal count, marked pair, random base edges) and the order the ops run in.
Fixed targets keep the work of a run nearly the same for every seed, so the
spread between runs measures the program and not the draw.

The program only ever sees the generated argv and edge-list files.  This
module imports nothing from the package, so the inputs do not depend on the
code under test.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

WORKLOADS = ("verify-grid", "sweep-large", "exact-generic")

# ``--seconds`` at which a run holds the whole template.  A run repeats its op
# list four times (see run.py); at the seed one pass takes 4-6 s on the
# reference 2-core machine.
NOMINAL_SECONDS = 20

# A seeded flower lies within this share of its slot's target size.
SIZE_TOLERANCE = 0.02

PETERSEN_EDGES = tuple(
    sorted(
        edge
        for i in range(5)
        for edge in (
            tuple(sorted((i, (i + 1) % 5))),
            (i, i + 5),
            tuple(sorted((5 + i, 5 + (i + 2) % 5))),
        )
    )
)


@dataclass(frozen=True)
class Flower:
    """One flower instance as the benchmark sees it: family, sizes, base."""

    family: str
    m: int
    n: int
    p: int | None = None
    base: str | None = None  # edge-list file name, generic family only
    x: int | None = None
    y: int | None = None

    @property
    def vertex_count(self) -> int:
        return self.n * (self.m - 1)

    @property
    def pairs(self) -> int:
        count = self.vertex_count
        return count * (count - 1) // 2


@dataclass(frozen=True)
class Op:
    """One CLI invocation and the flower it works on."""

    index: int
    command: str
    argv: tuple[str, ...]
    flower: Flower


@dataclass
class Workload:
    ops: list[Op]
    bases: dict[str, tuple[tuple[int, int], ...]] = field(default_factory=dict)

    def base_files(self) -> dict[str, str]:
        """Edge-list text for every base file the ops name."""
        return {
            name: "".join(f"{u} {v}\n" for u, v in edges)
            for name, edges in self.bases.items()
        }


def random_base(rng: random.Random, m: int) -> tuple[tuple[int, int], ...]:
    """Connected base on ``m`` vertices: a random spanning tree plus ``m - 2`` extra edges."""
    order = list(range(m))
    rng.shuffle(order)
    edges = set()
    for i in range(1, m):
        u, v = order[i], order[rng.randrange(i)]
        edges.add((min(u, v), max(u, v)))
    missing = [(u, v) for u in range(m) for v in range(u + 1, m) if (u, v) not in edges]
    edges.update(rng.sample(missing, m - 2))
    return tuple(sorted(edges))


def _slots(template: list, seconds: float) -> list:
    """The template scaled to ``seconds``, in a fixed seed-independent order.

    The order is a fixed shuffle, so a shorter run takes a spread of the
    template rather than only its first strata.
    """
    ordered = list(template)
    random.Random("template").shuffle(ordered)
    count = max(1, round(len(ordered) * seconds / NOMINAL_SECONDS))
    return [ordered[i % len(ordered)] for i in range(count)]


def _pick_near(rng: random.Random, candidates, target: int, used: set) -> Flower:
    """A random unused candidate whose vertex count is nearest ``target``."""
    free = [f for f in candidates if f not in used]
    if not free:
        raise ValueError(f"--seconds too large: no unused flower near N={target}")
    nearest = min(abs(f.vertex_count - target) for f in free)
    slack = max(nearest, SIZE_TOLERANCE * target)
    flower = rng.choice([f for f in free if abs(f.vertex_count - target) <= slack])
    used.add(flower)
    return flower


def _closed_candidates(family: str, m: int, max_vertices: int) -> list[Flower]:
    ps = [None] if family == "complete" else list(range(1, m // 2 + 1))
    return [
        Flower(family, m, n, p)
        for n in range(3, max_vertices // (m - 1) + 1)
        for p in ps
    ]


def _closed_argv(command: str, flower: Flower) -> tuple[str, ...]:
    argv = [command, "--family", flower.family, "--m-range", str(flower.m)]
    if flower.p is not None:
        argv += ["--p-range", str(flower.p)]
    return (*argv, "--n-range", str(flower.n))


def _generic_family(flower: Flower) -> tuple[str, ...]:
    return ("--family", "generic", "--base", flower.base,
            "--x", str(flower.x), "--y", str(flower.y))


# --- verify-grid -----------------------------------------------------------

# Target vertex counts: mostly small flowers, where per-pair Python work and
# per-call overhead dominate.  Many slots share the targets 40 and 80 so that
# the median and the 90th percentile op fall inside a run of similar ops and
# do not jump between size classes from one seed to the next.
VERIFY_TARGETS = (10, 16, 24, 40, 40, 40, 40, 40, 40, 60, 80, 80)
VERIFY_CLOSED = [("complete", m) for m in range(3, 7)] + [("cycle", m) for m in range(4, 10)]
VERIFY_LARGE = (("complete", 3), ("cycle", 9))
VERIFY_GENERIC_TARGETS = (20, 60)


def _verify_grid(seed: int, seconds: float) -> Workload:
    rng = random.Random(f"verify-grid:{seed}")
    template = [(family, m, target) for family, m in VERIFY_CLOSED for target in VERIFY_TARGETS]
    template += [(family, m, 150) for family, m in VERIFY_LARGE]
    # A minority of generic flowers: seeded random bases and the Petersen graph.
    template += [("generic", m, target) for m in range(6, 11) for target in VERIFY_GENERIC_TARGETS]
    template += [("petersen", 10, target) for target in (45, 135)]

    used: set[Flower] = set()
    bases: dict[str, tuple[tuple[int, int], ...]] = {}
    flowers = []
    candidates = {base: _closed_candidates(*base, 160) for base in VERIFY_CLOSED}
    for family, m, target in _slots(template, seconds):
        if family in ("complete", "cycle"):
            flower = _pick_near(rng, candidates[family, m], target, used)
        else:
            name = f"base{len(bases):03d}.txt"
            bases[name] = PETERSEN_EDGES if family == "petersen" else random_base(rng, m)
            n = max(3, round(target / (m - 1)))
            flower = None
            while flower is None or flower in used:
                x, y = rng.sample(range(m), 2)
                flower = Flower("generic", m, n, None, name, x, y)
            used.add(flower)
        flowers.append(flower)
    rng.shuffle(flowers)

    ops = []
    for index, flower in enumerate(flowers):
        if flower.family == "generic":
            argv = ("verify", *_generic_family(flower), "--n-range", str(flower.n))
        else:
            argv = _closed_argv("verify", flower)
        ops.append(Op(index, "verify", argv, flower))
    return Workload(ops, bases)


# --- sweep-large -----------------------------------------------------------

# Most instances sit at the small end of N = 600..1800 so that a run keeps 100
# instances (enough for a p90) while the Green-matrix cache, which keeps every
# instance of the run, stays under 1 GB at the seed.  Sixteen instances near
# N = 1200 put the 90th percentile inside a run of similar ops.
SWEEP_TARGETS = (
    tuple(round(600 * 1.27 ** (k / 18)) for k in range(19)) + (950,) + (1200,) * 4 + (1800,)
)
SWEEP_BASES = (("complete", 6), ("complete", 8), ("complete", 10), ("cycle", 8))


def _sweep_large(seed: int, seconds: float) -> Workload:
    rng = random.Random(f"sweep-large:{seed}")
    template = [(family, m, target) for family, m in SWEEP_BASES for target in SWEEP_TARGETS]
    candidates = {base: _closed_candidates(*base, 1900) for base in SWEEP_BASES}
    used: set[Flower] = set()
    # The ops run in the template's fixed order rather than a seeded one: the
    # memory peak depends on which instance meets the fullest cache, and this
    # keeps that the same for every seed.
    flowers = [
        _pick_near(rng, candidates[family, m], target, used)
        for family, m, target in _slots(template, seconds)
    ]
    ops = [
        Op(index, "sweep", _closed_argv("sweep", flower), flower)
        for index, flower in enumerate(flowers)
    ]
    return Workload(ops)


# --- exact-generic ---------------------------------------------------------

EXACT_COMMANDS = (
    ("kirchhoff", ("--exact",)),
    ("kemeny", ("--exact",)),
    ("maxres", ()),
    ("bounds", ()),
)
EXACT_PETALS = (12, 40)
# Largest random base of exact-generic.  A graph on m <= 13 vertices with
# 2m - 3 edges has at most (2|E|/(m-1))^(m-1)/m < 7.7e5 spanning trees
# (Grimmett's bound), so its base resistances have denominators below the
# 10**6 that ``rationalize`` recovers exactly, and no op fails.  From m = 15
# the count can pass 10**6 and the program prints wrong "exact" values without
# an error (ROADMAP item 2); set this to 16 to run that wider range.
EXACT_MAX_M = 13
# Twelve random bases with m spread evenly over 8..EXACT_MAX_M, plus Petersen.
EXACT_SIZES = tuple(round(8 + (EXACT_MAX_M - 8) * (i + 0.5) / 12) for i in range(12)) + (10,)


def _exact_generic(seed: int, seconds: float) -> Workload:
    rng = random.Random(f"exact-generic:{seed}")
    bases: dict[str, tuple[tuple[int, int], ...]] = {}
    marked: dict[str, tuple[int, int]] = {}
    for slot, m in enumerate(EXACT_SIZES):
        name = f"base{slot:03d}.txt"
        bases[name] = PETERSEN_EDGES if slot == len(EXACT_SIZES) - 1 else random_base(rng, m)
        marked[name] = tuple(rng.sample(range(m), 2))

    template = [(slot, petals) for slot in range(len(EXACT_SIZES)) for petals in EXACT_PETALS]
    used: set[Flower] = set()
    calls = []
    for slot, petals in _slots(template, seconds):
        name, m = f"base{slot:03d}.txt", EXACT_SIZES[slot]
        x, y = marked[name]
        candidates = [Flower("generic", m, n, None, name, x, y) for n in range(3, 61)]
        flower = _pick_near(rng, candidates, petals * (m - 1), used)
        calls += [(command, extra, flower) for command, extra in EXACT_COMMANDS]
    rng.shuffle(calls)

    ops = [
        Op(index, command, (command, *_generic_family(flower), "-n", str(flower.n), *extra), flower)
        for index, (command, extra, flower) in enumerate(calls)
    ]
    used_bases = {op.flower.base for op in ops}
    return Workload(ops, {name: edges for name, edges in bases.items() if name in used_bases})


def build(workload: str, seed: int, seconds: float) -> Workload:
    """The op list of one run: same workload, seed and seconds give the same ops."""
    builders = {
        "verify-grid": _verify_grid,
        "sweep-large": _sweep_large,
        "exact-generic": _exact_generic,
    }
    if workload not in builders:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
    return builders[workload](seed, seconds)
