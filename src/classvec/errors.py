"""Exception types raised across the toolkit."""


class ClassVecError(Exception):
    """Base class for all toolkit errors."""


class ManifestError(ClassVecError):
    """Invalid layer manifest (duplicate ids, bad dims, empty)."""


class ManifestMismatchError(ClassVecError):
    """Two vectors built against different manifests were combined."""


class ValidationError(ClassVecError):
    """An input value violates a documented invariant."""


class ZeroVectorError(ClassVecError):
    """Operation undefined on an all-zero vector."""


class EmptyDifferenceError(ZeroVectorError):
    """Clamped subtraction produced an empty vector."""


class FormatError(ClassVecError):
    """Malformed input file; carries path and 1-based line number."""

    def __init__(self, path, line, message):
        super().__init__(f"{path}:{line}: {message}")
        self.path = str(path)
        self.line = line
        self.reason = message


class TaxonomyError(ClassVecError):
    """Structurally invalid hierarchy (cycles, zero or multiple roots)."""


class UnknownSynsetError(TaxonomyError):
    """Synset id not present in the taxonomy."""


class UnknownClassError(ClassVecError):
    """Class id not present in the class map or embedding set."""


class CorrelationError(ClassVecError):
    """Rank correlation undefined for the given inputs."""


class DisconnectedGraphError(ClassVecError):
    """Neighborhood graph split into several components.

    ``connecting_k``, when known, is the smallest k_neighbors whose k-NN graph
    over the same distances is connected.
    """

    def __init__(self, component_sizes, connecting_k: int | None = None):
        sizes = sorted(component_sizes, reverse=True)
        message = "neighborhood graph is disconnected; component sizes: " + ", ".join(
            str(s) for s in sizes
        )
        if connecting_k is not None:
            message += f"; the smallest k_neighbors that connects it is {connecting_k}"
        super().__init__(message)
        self.component_sizes = tuple(sizes)
        self.connecting_k = connecting_k
