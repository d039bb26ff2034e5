"""Surface germs and clusters of infinitely near points.

A :class:`Cluster` is a base germ (a smooth point, or a du Val singularity
of type A/D/E) together with an ordered list of point blowups.  Each blowup
is centered either at a generic (free) point of one existing exceptional
curve, or at the intersection (satellite) point of two curves that
currently meet.  The resulting model has simple normal crossing exceptional
locus by construction, so it is a log resolution of everything computed
from it.

Curve ids are 0-based.  Over a du Val base the minimal-resolution curves
come first, in a fixed documented order (a rank above
:data:`MAX_DU_VAL_RANK` is refused):

* ``An``: the path 0 - 1 - ... - (n-1);
* ``Dn``: the path 0 - ... - (n-3), with both fork curves (n-2) and (n-1)
  attached to curve (n-3);
* ``E6``/``E7``/``E8``: the path 0 - ... - (rank-2), with the branch curve
  (rank-1) attached to curve 2.

Each blowup step then appends one curve.  Minimal-resolution curves are
(-2)-curves with relative canonical coefficient k = 0; a new blowup curve
gets k = 1 + sum of k over the curves through its center.

The intersection matrix is the proximity model M = P·D·Pᵀ (Casas-Alvero,
*Singularities of Plane Curves*, 2000).  P is the unitriangular integer
proximity matrix: P[i][j] = -1 when curve i passes through the center of
the step creating curve j, that is, when i is among that step's
``_step_refs``.  D is the Dynkin matrix of the base (empty over a smooth
point) followed by -1 on every step curve: the pulled-back base curves and
the total transforms of the step curves are pairwise orthogonal.  D is
negative definite and P is invertible, so M is negative definite by
construction, and its off-diagonal entries are 0 or 1 because each step
only sets entries to those values.  The curves form a tree (Lipman 1969),
so a cluster stores M as its dual graph, built once in linear time.
Every computation reads that graph: :func:`intersect` is the one product
with M, :mod:`germval.valuation` solves for M⁻¹'s columns on it, and
:func:`intersection_matrix` builds a dense copy on each call.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from .errors import InvalidStep

_DYNKIN_LETTERS = ("A", "D", "E")

# Largest du Val rank a label may name.  Building a base allocates per
# curve, so an unchecked label like "A100000000" runs without bound; the
# largest base any sweep or fixture uses is E8.
MAX_DU_VAL_RANK = 10_000


@dataclass(frozen=True)
class BaseGerm:
    """The germ under the cluster: smooth, or du Val of the given type.

    ``dynkin`` is None for a smooth point, else a label like "A3" or "E7".
    The rank is parsed from it once, on construction; it takes no part in
    equality, hashing or repr.
    """

    dynkin: str | None = None
    _rank: int = field(init=False, compare=False, repr=False, default=0)

    def __post_init__(self):
        if self.dynkin is not None:
            letter, rank = _parse_dynkin(self.dynkin)
            object.__setattr__(self, "dynkin", f"{letter}{rank}")
            object.__setattr__(self, "_rank", rank)

    @property
    def is_smooth(self) -> bool:
        return self.dynkin is None

    def rank(self) -> int:
        """Number of minimal-resolution curves (0 for a smooth base)."""
        return self._rank


SMOOTH = BaseGerm(None)


def du_val(label: str) -> BaseGerm:
    return BaseGerm(label)


def _parse_dynkin(label: str) -> tuple[str, int]:
    letter, digits = label[:1].upper(), label[1:]
    # str.isdigit alone passes "３" and "²"; int() reads the first as 3
    if letter not in _DYNKIN_LETTERS or not (digits.isascii() and digits.isdigit()):
        raise ValueError(f"not a Dynkin label: {label!r}")
    rank = int(digits)
    if rank > MAX_DU_VAL_RANK:
        raise ValueError(f"du Val label {label!r}: rank above {MAX_DU_VAL_RANK}")
    if letter == "A" and rank < 1:
        raise ValueError("type A needs rank >= 1")
    if letter == "D" and rank < 4:
        raise ValueError("type D needs rank >= 4")
    if letter == "E" and rank not in (6, 7, 8):
        raise ValueError("type E needs rank 6, 7 or 8")
    return letter, rank


def _dynkin_edges(label: str) -> list[tuple[int, int]]:
    letter, rank = _parse_dynkin(label)
    if letter == "A":
        return [(i, i + 1) for i in range(rank - 1)]
    if letter == "D":
        path = [(i, i + 1) for i in range(rank - 3)]
        return path + [(rank - 3, rank - 2), (rank - 3, rank - 1)]
    path = [(i, i + 1) for i in range(rank - 2)]
    return path + [(2, rank - 1)]


@dataclass(frozen=True)
class Free:
    """Blowup of a generic point on curve ``on`` (or of the germ's point
    itself when ``on`` is None, legal only as the first step over a smooth
    base)."""

    on: int | None = None


@dataclass(frozen=True)
class Satellite:
    """Blowup of the intersection point of the two curves in ``on``; legal
    only while those curves meet."""

    on: tuple[int, int]

    def __post_init__(self):
        a, b = self.on
        object.__setattr__(self, "on", (min(a, b), max(a, b)))


BlowupStep = Free | Satellite


@dataclass(frozen=True)
class Cluster:
    """A base germ and its blowup steps.

    Construction validates the steps (raising InvalidStep) and computes
    the dual graph and the canonical vector once: ``_self`` holds each
    curve's self-intersection, the diagonal of M, and ``_nbrs`` the sorted
    ids of the curves it meets, the off-diagonal 1-entries.  ``_dstar``
    holds m0·dstar, as integers, of each curve asked about so far (see
    :mod:`germval.valuation`).  The derived fields take no part
    in equality, hashing or repr, and are freed with the cluster.
    """

    base: BaseGerm
    steps: tuple[BlowupStep, ...]
    _self: tuple[int, ...] = field(init=False, compare=False, repr=False)
    _nbrs: tuple[tuple[int, ...], ...] = field(init=False, compare=False, repr=False)
    _k: tuple[int, ...] = field(init=False, compare=False, repr=False)
    _dstar: dict = field(init=False, compare=False, repr=False, default_factory=dict)

    def __post_init__(self):
        self_int, nbrs, k = _simulate(self.base, self.steps)
        object.__setattr__(self, "_self", tuple(self_int))
        object.__setattr__(self, "_nbrs", tuple(tuple(sorted(nb)) for nb in nbrs))
        object.__setattr__(self, "_k", tuple(k))

    def curve_count(self) -> int:
        return self.base.rank() + len(self.steps)


def _step_refs(step: BlowupStep) -> tuple[int, ...]:
    if isinstance(step, Free):
        return () if step.on is None else (step.on,)
    return step.on


def _simulate(base: BaseGerm, steps: tuple[BlowupStep, ...]):
    """Validate steps and return (self-intersections, neighbour sets, k)."""
    if base.is_smooth and not steps:
        raise InvalidStep(0, "a smooth base needs at least one blowup")
    self_int = [-2] * base.rank()
    nbrs: list[set[int]] = [set() for _ in self_int]
    for i, j in [] if base.is_smooth else _dynkin_edges(base.dynkin):
        nbrs[i].add(j)
        nbrs[j].add(i)
    k: list[int] = [0] * len(self_int)

    for idx, step in enumerate(steps):
        n = len(self_int)
        refs = _step_refs(step)
        if isinstance(step, Free) and step.on is None:
            if not base.is_smooth:
                raise InvalidStep(idx, "blowup of the base point needs a smooth base")
            if idx != 0:
                raise InvalidStep(idx, "blowup of the base point is only legal first")
        elif isinstance(step, Satellite) and step.on[0] == step.on[1]:
            raise InvalidStep(idx, "satellite needs two distinct curves")
        if base.is_smooth and idx == 0 and not (isinstance(step, Free) and step.on is None):
            raise InvalidStep(idx, "the first step over a smooth base blows up the base point")
        for r in refs:
            if not 0 <= r < n:
                raise InvalidStep(idx, f"curve {r} does not exist yet")
        if isinstance(step, Satellite):
            i, j = step.on
            if j not in nbrs[i]:
                raise InvalidStep(idx, f"curves {i} and {j} do not meet at this step")
            nbrs[i].remove(j)
            nbrs[j].remove(i)

        self_int.append(-1)
        nbrs.append(set(refs))
        for r in refs:
            nbrs[r].add(n)
            self_int[r] -= 1
        k.append(1 + sum(k[r] for r in refs))
    return self_int, nbrs, k


def build(base: BaseGerm, steps) -> Cluster:
    """Validate the step list and return the cluster.

    Raises InvalidStep on a dangling reference, an illegal satellite or an
    illegal first step.
    """
    return Cluster(base, tuple(steps))


def intersection_matrix(c: Cluster) -> tuple[tuple[int, ...], ...]:
    """Symmetric, integer, negative definite matrix of the exceptional
    curves on the top model, built from the dual graph on each call."""
    rows = [[0] * len(c._self) for _ in c._self]
    for i, nb in enumerate(c._nbrs):
        rows[i][i] = c._self[i]
        for j in nb:
            rows[i][j] = 1
    return tuple(map(tuple, rows))


def intersect(c: Cluster, d) -> list[int]:
    """M·d for a divisor d given by its coefficient on each curve: entry j
    is E_j.d, read off the dual graph in time linear in its size."""
    prod = [s * v for s, v in zip(c._self, d)]
    for v, nb in zip(d, c._nbrs):
        if v:
            for j in nb:
                prod[j] += v
    return prod


def canonical_vector(c: Cluster) -> tuple[int, ...]:
    """Coefficients of the relative canonical divisor, one per curve."""
    return c._k


def step_parents(c: Cluster) -> tuple[tuple[int, ...], ...]:
    """For each step, the sorted ids of the curves through its center."""
    return tuple(tuple(sorted(_step_refs(s))) for s in c.steps)


@dataclass(frozen=True)
class DualGraph:
    vertices: tuple[tuple[int, int, int], ...]  # (id, self-intersection, k)
    edges: tuple[tuple[int, int], ...]


def dual_graph(c: Cluster) -> DualGraph:
    """Vertices are curves labeled with E.E and k; edges join meeting
    curves (intersection number 1), sorted."""
    vertices = tuple(zip(range(c.curve_count()), c._self, c._k))
    edges = tuple((i, j) for i, nb in enumerate(c._nbrs) for j in nb if i < j)
    return DualGraph(vertices, edges)


def to_dot(c: Cluster) -> str:
    g = dual_graph(c)
    lines = ["graph cluster {"]
    for i, self_int, k in g.vertices:
        lines.append(f'  E{i} [label="E{i} | self={self_int} | k={k}"];')
    for i, j in g.edges:
        lines.append(f"  E{i} -- E{j};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def legal_steps(c: Cluster) -> list[BlowupStep]:
    """All single blowup steps that may extend the cluster, in a fixed
    deterministic order (free steps by curve, then satellites by pair)."""
    free: list[BlowupStep] = [Free(i) for i in range(c.curve_count())]
    return free + [Satellite(edge) for edge in dual_graph(c).edges]


def extend(c: Cluster, step: BlowupStep) -> Cluster:
    return build(c.base, c.steps + (step,))


def ancestor_curves(c: Cluster, curve: int) -> frozenset[int]:
    """The curve itself, the curves through its center, recursively, plus
    every minimal-resolution curve."""
    rank = c.base.rank()
    if not 0 <= curve < c.curve_count():
        raise ValueError(f"no curve {curve}")
    keep = set(range(rank))
    stack = [curve]
    while stack:
        v = stack.pop()
        if v in keep:
            continue
        keep.add(v)
        if v >= rank:
            stack.extend(_step_refs(c.steps[v - rank]))
    return frozenset(keep)


# -- JSON wire format ---------------------------------------------------
#
# { "base": "smooth" | {"du_val": "A1"|...|"E8"},
#   "steps": [ {"kind":"free","on":null|int},
#              {"kind":"satellite","on":[int,int]}, ... ] }


def cluster_to_json(c: Cluster) -> dict:
    steps = []
    for s in c.steps:
        if isinstance(s, Free):
            steps.append({"kind": "free", "on": s.on})
        else:
            steps.append({"kind": "satellite", "on": list(s.on)})
    base = "smooth" if c.base.is_smooth else {"du_val": c.base.dynkin}
    return {"base": base, "steps": steps}


def _is_curve_id(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)  # bool is an int subclass


def cluster_from_json(doc) -> Cluster:
    if not isinstance(doc, dict):
        raise ValueError("cluster document must be a JSON object")
    base_doc = doc.get("base")
    if base_doc == "smooth":
        base = SMOOTH
    elif isinstance(base_doc, dict) and set(base_doc) == {"du_val"}:
        base = du_val(str(base_doc["du_val"]))
    else:
        raise ValueError('"base" must be "smooth" or {"du_val": <label>}')
    steps_doc = doc.get("steps")
    if not isinstance(steps_doc, list):
        raise ValueError('"steps" must be a list')
    steps: list[BlowupStep] = []
    for idx, s in enumerate(steps_doc):
        if not isinstance(s, dict) or "kind" not in s:
            raise ValueError(f"steps[{idx}]: not a step object")
        kind = s["kind"]
        if kind == "free":
            on = s.get("on")
            if not (on is None or _is_curve_id(on)):
                raise ValueError(f"steps[{idx}]: free 'on' must be null or an int")
            steps.append(Free(on))
        elif kind == "satellite":
            on = s.get("on")
            if (
                not isinstance(on, list)
                or len(on) != 2
                or not all(_is_curve_id(v) for v in on)
            ):
                raise ValueError(f"steps[{idx}]: satellite 'on' must be [int, int]")
            if on[0] == on[1]:
                raise InvalidStep(idx, "satellite needs two distinct curves")
            steps.append(Satellite((on[0], on[1])))
        else:
            raise ValueError(f"steps[{idx}]: unknown kind {kind!r}")
    return build(base, steps)


def read_json(path: str):
    """The JSON document in the file; malformed or too deeply nested
    input is a ValueError naming the file."""
    with open(path, encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path}: invalid JSON ({exc})") from exc
        except RecursionError:
            raise ValueError(f"{path}: JSON nested too deeply") from None


def cluster_from_file(path: str) -> Cluster:
    return cluster_from_json(read_json(path))
