"""Compact immutable graph with CSR adjacency.

Vertices are ``0..n-1``.  The graph stores a symmetrized adjacency (each
undirected edge appears in both directions), matching the paper's
treatment of directed inputs as undirected for Connected Components and
the symmetric neighborhood table N of Section 5.1.  Edge counts follow
Table 2's convention: ``num_edges`` counts stored (directed) entries, so
``avg_degree == num_edges / num_vertices``.
"""

from __future__ import annotations

import numpy as np


class Graph:
    """Immutable graph over vertices ``0..n-1`` with CSR adjacency."""

    def __init__(self, num_vertices: int, edges, symmetrize: bool = True,
                 name: str = "graph"):
        """Build from an iterable/array of ``(src, dst)`` pairs.

        Self-loops are dropped and duplicate edges collapsed.  With
        ``symmetrize`` (default) each edge is stored in both directions.
        """
        self.name = name
        self.num_vertices = int(num_vertices)
        edge_array = np.asarray(list(edges) if not isinstance(edges, np.ndarray)
                                else edges, dtype=np.int64)
        if edge_array.size == 0:
            edge_array = edge_array.reshape(0, 2)
        if edge_array.ndim != 2 or edge_array.shape[1] != 2:
            raise ValueError("edges must be (m, 2) pairs")
        if edge_array.size and (
            edge_array.min() < 0 or edge_array.max() >= num_vertices
        ):
            raise ValueError("edge endpoint out of vertex range")
        src, dst = edge_array[:, 0], edge_array[:, 1]
        keep = src != dst
        src, dst = src[keep], dst[keep]
        if symmetrize:
            src, dst = (
                np.concatenate([src, dst]),
                np.concatenate([dst, src]),
            )
        # collapse duplicates
        packed = src * np.int64(num_vertices) + dst
        packed = np.unique(packed)
        src = packed // num_vertices
        dst = packed % num_vertices
        order = np.argsort(src, kind="stable")
        src, dst = src[order], dst[order]
        self.indptr = np.zeros(num_vertices + 1, dtype=np.int64)
        counts = np.bincount(src, minlength=num_vertices)
        np.cumsum(counts, out=self.indptr[1:])
        self.indices = dst.copy()

    # ------------------------------------------------------------------

    @property
    def num_edges(self) -> int:
        """Stored (directed) adjacency entries — Table 2's edge count."""
        return int(self.indices.size)

    @property
    def avg_degree(self) -> float:
        if self.num_vertices == 0:
            return 0.0
        return self.num_edges / self.num_vertices

    def degree(self, v: int) -> int:
        return int(self.indptr[v + 1] - self.indptr[v])

    def degrees(self) -> np.ndarray:
        return np.diff(self.indptr)

    def neighbors(self, v: int) -> np.ndarray:
        return self.indices[self.indptr[v]:self.indptr[v + 1]]

    # ------------------------------------------------------------------
    # record-oriented views for the dataflow engines

    def edge_tuples(self) -> list[tuple[int, int]]:
        """All stored ``(src, dst)`` pairs — the neighborhood table N."""
        src = np.repeat(np.arange(self.num_vertices, dtype=np.int64),
                        np.diff(self.indptr))
        return list(zip(src.tolist(), self.indices.tolist()))

    def vertex_tuples(self) -> list[tuple[int]]:
        return [(v,) for v in range(self.num_vertices)]

    def __repr__(self):
        return (
            f"<Graph {self.name}: {self.num_vertices} vertices, "
            f"{self.num_edges} edges, avg degree {self.avg_degree:.2f}>"
        )
