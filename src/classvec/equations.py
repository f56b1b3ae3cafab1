"""Vector equations over class embeddings: a - b, and "c is to ? as a is to b".

Differences use the clamped subtraction from the vector core, so a query
keeps only the features where the left operand dominates. Answers are the
classes whose embeddings lie closest to the query by cosine similarity,
with the equation's own operands excluded unless the caller disables that.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from .errors import (
    EmptyDifferenceError,
    UnknownClassError,
    ValidationError,
)
from .pipeline import ClassEmbedding
from .util import whole
from .vectors import SparseActivationVector, cosine_similarity, subtract

DEFAULT_TOP_K = 6


def _id_set(name: str, ids: Iterable[str]) -> set[str]:
    """Class ids as a set of strings. A bare string is refused: read as an
    iterable, "c0001" would name the classes "c", "0" and "1"."""
    if isinstance(ids, str):
        raise ValidationError(f"{name} must be a collection of class ids, not the string {ids!r}")
    return {str(x) for x in ids}


@dataclass(frozen=True, eq=False, slots=True)
class EquationResult:
    """Ranked nearest classes for one query vector."""

    query: str
    neighbors: tuple[tuple[str, float], ...]
    excluded: tuple[str, ...]

    def __post_init__(self):
        neighbors = tuple((str(c), float(s)) for c, s in self.neighbors)
        excluded = tuple(sorted(_id_set("excluded", self.excluded)))
        for (_, s1), (_, s2) in zip(neighbors, neighbors[1:]):
            if s2 > s1:
                raise ValidationError("neighbor similarities must be non-increasing")
        banned = set(excluded)
        for cid, _ in neighbors:
            if cid in banned:
                raise ValidationError(f"excluded class {cid!r} appears among neighbors")
        object.__setattr__(self, "query", str(self.query))
        object.__setattr__(self, "neighbors", neighbors)
        object.__setattr__(self, "excluded", excluded)

    def __len__(self) -> int:
        return len(self.neighbors)

    def __repr__(self) -> str:
        head = ", ".join(f"{c}:{s:.3f}" for c, s in self.neighbors[:3])
        return f"EquationResult({self.query!r} -> [{head}{'...' if len(self) > 3 else ''}])"


def _index_embeddings(embeddings: Sequence[ClassEmbedding]) -> dict[str, ClassEmbedding]:
    index: dict[str, ClassEmbedding] = {}
    for emb in embeddings:
        if emb.class_id in index:
            raise ValidationError(f"duplicate class_id {emb.class_id!r} among embeddings")
        index[emb.class_id] = emb
    if not index:
        raise ValidationError("no embeddings to search")
    return index


def _lookup(index: dict[str, ClassEmbedding], class_id: str) -> ClassEmbedding:
    try:
        return index[class_id]
    except KeyError:
        raise UnknownClassError(f"unknown class {class_id!r}") from None


def nearest_classes(
    v: SparseActivationVector,
    embeddings: Sequence[ClassEmbedding],
    top_k: int = DEFAULT_TOP_K,
    exclude: Iterable[str] = (),
    *,
    label: str = "query",
) -> EquationResult:
    """Rank classes by cosine similarity to the query, descending.

    Ties break toward the smaller class_id. Excluded ids are silently
    skipped; at most top_k neighbors are returned.
    """
    top_k = whole("top_k", top_k)
    if top_k < 1:
        raise ValidationError(f"top_k must be >= 1, got {top_k}")
    if v.is_zero:
        raise EmptyDifferenceError("empty difference: operands are feature-wise dominated")
    index = _index_embeddings(embeddings)
    banned = _id_set("exclude", exclude)
    scored = [
        (cosine_similarity(v, emb.vector), cid)
        for cid, emb in index.items()
        if cid not in banned
    ]
    scored.sort(key=lambda t: (-t[0], t[1]))
    return EquationResult(label, [(cid, s) for s, cid in scored[:top_k]], banned)


def solve_difference(
    a_id: str,
    b_id: str,
    embeddings: Sequence[ClassEmbedding],
    top_k: int = DEFAULT_TOP_K,
    *,
    exclude_operands: bool = True,
) -> EquationResult:
    """Answer "a - b is closest to which class?"."""
    index = _index_embeddings(embeddings)
    a = _lookup(index, str(a_id))
    b = _lookup(index, str(b_id))
    diff = subtract(a.vector, b.vector)
    exclude = {a.class_id, b.class_id} if exclude_operands else set()
    return nearest_classes(
        diff, embeddings, top_k, exclude, label=f"{a.class_id} - {b.class_id}"
    )


def apply_difference(
    c_id: str,
    a_id: str,
    b_id: str,
    embeddings: Sequence[ClassEmbedding],
    top_k: int = DEFAULT_TOP_K,
    *,
    exclude_operands: bool = True,
) -> EquationResult:
    """Answer the regularity probe "c is to ? as a is to b".

    The direction a - b is removed from c and the remainder is matched
    against the embeddings. When a equals b the direction is empty and the
    query degenerates to c itself, so the result lists c's plain neighbors
    (minus exclusions).
    """
    index = _index_embeddings(embeddings)
    c = _lookup(index, str(c_id))
    a = _lookup(index, str(a_id))
    b = _lookup(index, str(b_id))
    direction = subtract(a.vector, b.vector)
    query = subtract(c.vector, direction)
    exclude = {a.class_id, b.class_id, c.class_id} if exclude_operands else set()
    return nearest_classes(
        query,
        embeddings,
        top_k,
        exclude,
        label=f"{c.class_id} - ({a.class_id} - {b.class_id})",
    )
