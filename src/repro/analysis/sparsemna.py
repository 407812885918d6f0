"""Structure-exploiting sparse MNA: compile the pattern once, solve small.

A dense batch solve would refactorize the full ``(n, n)`` admittance
matrix per candidate per frequency even though only a handful of stamp
entries differ between candidates of one topology.  This module
compiles that structure away, and its plan is the one batch MNA solve
of the compiled engine (the scalar
:func:`repro.analysis.acsolver.solve_ac` is its per-circuit reference):

* **Static condensation (Schur complement).**  Nodes are partitioned
  into an *external* set E — every node touched by a candidate-dependent
  stamp entry, plus the ports and probes — and the *internal* remainder
  I.  The I-block of the admittance matrix is candidate-independent, so
  it is factorized **once per topology per frequency** as a
  ``scipy.sparse`` LU with one shared CSC pattern (the symbolic
  factorization is computed from the union sparsity over the grid and
  reused for every frequency's numeric factorization).  What remains per
  candidate is the dense ``(m, m)`` reduced system
  ``M = D - C A^-1 B`` with ``m = |E| << n`` — its candidate-independent
  part and the condensed right-hand sides are precomputed.
* **Adjoint (transpose) solve.**  Downstream only ever consumes the
  port/probe *rows* of ``Y^-1 @ rhs``.  Solving ``M^T w = e_out`` for
  the few output columns and contracting ``w^T @ rhs_red`` replaces a
  K-column forward solve with an ``n_out``-column one (K ~ 28 noise +
  port columns vs. ``n_out = 2`` ports for the LNA).

The plan assembles the *transposed* reduced system directly (scatter at
swapped coordinates), so no ``(B, F, m, m)`` transpose copy is ever
made, and the final contraction is a plain broadcast ``matmul`` —
einsum-shaped, GPU-portable, no Python per-candidate loops.

Everything here is topology-level machinery; noise post-processing
and failure isolation live with the caller (:mod:`repro.core.engine`).
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

import numpy as np

try:  # scipy is a declared dependency; tolerate its absence anyway.
    from scipy.sparse import csc_matrix
    from scipy.sparse.linalg import splu
    _HAVE_SPLU = True
except ImportError:  # pragma: no cover - scipy ships with the package
    _HAVE_SPLU = False

# Patch target of benchmarks/e2e/layers.py; nothing calls it, and
# ROADMAP item 11 step 1 deletes it.
observe_residual = None

__all__ = [
    "PatternError",
    "MutableGroup",
    "SparsePlan",
    "build_plan",
]


class PatternError(RuntimeError):
    """The tensor's structure cannot support a sparse plan.

    Raised at plan-build time — e.g. the constant internal block is
    singular (its Schur complement does not exist even though the full
    matrix may be fine), or sparse LU support is unavailable.  The
    compiled engine turns it into a ``CompileError``.
    """


@dataclass(frozen=True)
class MutableGroup:
    """One named set of stamp entries sharing a per-candidate coefficient.

    ``y[..., rows, cols] += signs * coefficient`` is the group's dense
    stamp; the (row, col) pairs within one group are unique.  This is
    the plan-level twin of :class:`repro.core.engine.StampSlot`.
    """

    name: str
    rows: np.ndarray   # (k,) int, global node indices
    cols: np.ndarray   # (k,) int
    signs: np.ndarray  # (k,) float


@dataclass
class _LocalGroup:
    """A mutable group lowered to reduced-system coordinates."""

    name: str
    lrows: np.ndarray   # (k,) int, indices into the external set
    lcols: np.ndarray
    signs: np.ndarray
    # Rank-1 factors of the *transposed* stamp, M^T += coeff * u @ v^T,
    # or None when the group's stamp matrix has rank > 1.  The solve
    # does not use them; they are kept for exact adjoint sensitivities
    # (d(e_out^T x)/dc_g = -(w^T a_g)(b_g^T x), ROADMAP item 6).
    u_t: Optional[np.ndarray]
    v_t: Optional[np.ndarray]


def _shared_pattern_lu(a_stack: np.ndarray):
    """Per-frequency sparse LU of a constant block with one CSC pattern.

    The structural pattern is the union of nonzeros over the grid, so
    the symbolic analysis (column order, fill) is shared: each
    frequency only swaps in its numeric values.  Falls back to a dense
    batched inverse when scipy's splu is unavailable.  Returns a
    callable ``solve(f_index, rhs)``.
    """
    n_freq, n_int, _ = a_stack.shape
    if not _HAVE_SPLU:  # pragma: no cover - scipy ships with the package
        try:
            a_inv = np.linalg.inv(a_stack)
        except np.linalg.LinAlgError as exc:
            raise PatternError(
                f"constant internal block is singular: {exc}"
            ) from None
        return lambda f, rhs: a_inv[f] @ rhs
    mask = np.any(a_stack != 0, axis=0)
    csc_cols, csc_rows = np.nonzero(mask.T)  # column-major order
    indices = csc_rows.astype(np.int32)
    indptr = np.searchsorted(csc_cols, np.arange(n_int + 1)).astype(np.int32)
    factors = []
    for f in range(n_freq):
        data = a_stack[f][csc_rows, csc_cols]
        matrix = csc_matrix((data, indices, indptr), shape=(n_int, n_int))
        try:
            factors.append(splu(matrix))
        except RuntimeError as exc:
            raise PatternError(
                f"constant internal block is singular at frequency "
                f"index {f}: {exc}"
            ) from None
    return lambda f, rhs: factors[f].solve(rhs)


def _rank1_factors(lrows, lcols, signs, m):
    """Rank-1 factors ``(u_t, v_t)`` of one group's transposed stamp.

    The group stamps ``P = sum signs e_r e_c^T`` into ``M``; when P has
    rank 1 it factors as ``a b^T``, so ``M^T`` gains
    ``coeff * b a^T`` — returned as ``(u_t, v_t) = (b, a)``.  Returns
    ``None`` for genuinely higher-rank groups, which have no
    single-vector sensitivity form.
    """
    pattern = np.zeros((m, m))
    np.add.at(pattern, (lrows, lcols), signs)
    left, singular, right_t = np.linalg.svd(pattern)
    if singular[0] == 0.0:
        zero = np.zeros(m)
        return zero, zero
    if singular.size > 1 and singular[1] > 1e-12 * singular[0]:
        return None
    scale = np.sqrt(singular[0])
    return right_t[0] * scale, left[:, 0] * scale


def _scatter_layers(groups: Sequence[_LocalGroup], m: int):
    """The groups' stamp entries as few scatters that each touch an
    entry of the flat ``(m * m)`` transposed system at most once.

    Layer *k* holds the *k*-th group (in group order) to touch each
    entry, so adding the layers in turn sums every entry in the same
    order as one scatter per group, bit for bit.  Returns
    ``[(flat_index, group_index, signs), ...]``.
    """
    layers: List[List[tuple]] = []
    touches: Dict[int, int] = {}
    for g, group in enumerate(groups):
        for flat, sign in zip(group.lcols * m + group.lrows, group.signs):
            k = touches.get(int(flat), 0)
            touches[int(flat)] = k + 1
            if k == len(layers):
                layers.append([])
            layers[k].append((int(flat), g, float(sign)))
    return [(np.array([e[0] for e in layer]),
             np.array([e[1] for e in layer]),
             np.array([e[2] for e in layer])) for layer in layers]


class SparsePlan:
    """A compiled reduced-system solve plan for one topology.

    Built by :func:`build_plan`; holds the per-frequency condensed
    system (transposed Schur base, condensed right-hand sides, adjoint
    output columns) plus the lowered mutable groups.  One plan is
    cached per topology and reused for every candidate batch.
    """

    def __init__(self, n_nodes, external, internal, groups, schur_t,
                 rhs_red, e_out, h_out=None):
        self.n_nodes = int(n_nodes)
        self.external = external            # (m,) global node indices
        self.internal = internal            # (n - m,) global node indices
        self._groups: List[_LocalGroup] = groups
        self._schur_t = schur_t             # (F, m, m), transposed
        self._rhs_red = rhs_red             # (F, m, K)
        self._e_out = e_out                 # (F, m, n_out) adjoint columns
        self._h_out = h_out                 # (F, n_out, K) offset, or None
        # Assembly scratch, keyed by batch size: the (B, F, m, m)
        # buffer never escapes a solve, so reusing it saves the
        # dominant allocation of the per-batch hot path.  It is kept
        # per thread, so thread shards of one population never
        # assemble into each other's buffer.
        self._scratch = threading.local()
        self._rhs_tiled: Dict[int, np.ndarray] = {}
        self._layers = _scatter_layers(groups, self.n_reduced)

    @property
    def n_reduced(self) -> int:
        return self._schur_t.shape[-1]

    @property
    def n_freq(self) -> int:
        return self._schur_t.shape[0]

    @property
    def n_rhs(self) -> int:
        return self._rhs_red.shape[-1]

    @property
    def n_out(self) -> int:
        return self._e_out.shape[-1]

    # -- assembly ------------------------------------------------------------
    def _assemble_t(self, coeffs, n_batch: int) -> np.ndarray:
        """The (B, F, m, m) *transposed* reduced systems.

        Scattering at swapped local coordinates builds ``M^T`` directly
        — the adjoint solve never materializes ``M`` itself.
        """
        mt = getattr(self._scratch, "mt", None)
        if mt is None or mt.shape[0] != n_batch:
            mt = np.empty((n_batch,) + self._schur_t.shape, dtype=complex)
            self._scratch.mt = mt
            self._scratch.coef = np.empty(
                (n_batch, self.n_freq, len(self._groups)), dtype=complex)
        np.copyto(mt, self._schur_t)
        coef = self._scratch.coef
        for g, group in enumerate(self._groups):
            coef[:, :, g] = coeffs[group.name]
        flat = mt.reshape(n_batch, self.n_freq, -1)
        for index, group_of, signs in self._layers:
            flat[..., index] += signs * coef[..., group_of]
        self._scratch.assembled = (coeffs, mt)
        return mt

    def assembled_matrix(self, coeffs, candidate: int = 0,
                         f_index: Optional[int] = None
                         ) -> Optional[np.ndarray]:
        """The reduced matrix ``M`` this thread last assembled from
        *coeffs*, read from the solve's own buffer.

        Equal to :meth:`sample_matrix` on the same arguments, without a
        second scatter; valid after :meth:`solve_rows` returned or
        raised.  ``None`` when the last assembly on this thread was not
        of *coeffs* (the solve raised before assembling).
        """
        assembled = getattr(self._scratch, "assembled", None)
        if assembled is None or assembled[0] is not coeffs:
            return None
        f = self.n_freq // 2 if f_index is None else int(f_index)
        return assembled[1][candidate, f].T.copy()

    def sample_matrix(self, coeffs, candidate: int = 0,
                      f_index: Optional[int] = None) -> np.ndarray:
        """One assembled reduced matrix ``M`` for conditioning guards.

        Default: the mid-grid matrix of *candidate* — the reduced
        counterpart of the scalar solver's mid-band ``condition_log10``
        sample.
        """
        f = self.n_freq // 2 if f_index is None else int(f_index)
        mt = self._schur_t[f].copy()
        for group in self._groups:
            c = np.asarray(coeffs[group.name], dtype=complex)
            fi = f if c.shape[-1] != 1 else 0  # frequency-flat coeffs
            value = c[fi] if c.ndim == 1 else c[candidate, fi]
            np.add.at(mt, (group.lcols, group.lrows), group.signs * value)
        return mt.T.copy()

    # -- solving -------------------------------------------------------------
    def solve_rows(self, coeffs, n_batch: int) -> np.ndarray:
        """Port/probe rows of ``Y^-1 @ rhs`` for a candidate batch.

        *coeffs* maps group name -> ``(B, F)`` (or broadcast ``(F,)``)
        complex coefficients.  Returns ``(B, F, n_out, K)``: every
        candidate's reduced system is refactorized, then the adjoint
        solution is contracted with the condensed right-hand sides.

        Raises ``numpy.linalg.LinAlgError`` when a reduced system is
        singular.
        """
        mt = self._assemble_t(coeffs, n_batch)
        # LAPACK dispatch on tiny matrices is overhead-bound: a flat
        # 3-D batch with a contiguous right-hand side solves ~1.5x
        # faster than the 4-D broadcast form, so tile ``e_out`` once
        # per batch size and keep the copy around.
        m = self.n_reduced
        rhs = self._rhs_tiled.get(n_batch)
        if rhs is None:
            rhs = np.ascontiguousarray(np.broadcast_to(
                self._e_out, (n_batch,) + self._e_out.shape
            ).reshape(n_batch * self.n_freq, m, self.n_out))
            self._rhs_tiled = {n_batch: rhs}
        w = np.linalg.solve(
            mt.reshape(n_batch * self.n_freq, m, m), rhs
        ).reshape(n_batch, self.n_freq, m, self.n_out)
        out = np.swapaxes(w, -1, -2) @ self._rhs_red
        if self._h_out is not None:
            out = out + self._h_out
        return out


def build_plan(
    base: np.ndarray,
    groups: Sequence[MutableGroup],
    port_rows: np.ndarray,
    z0: float,
    rhs: np.ndarray,
    out_rows: Sequence[int],
) -> SparsePlan:
    """Compile one topology's condensed solve plan.

    Parameters
    ----------
    base:
        ``(F, n, n)`` candidate-independent admittance tensor *without*
        port loads (they are folded into the reduced system here).
    groups:
        The candidate-dependent stamp groups; every node they touch
        becomes external.
    port_rows, z0:
        Port node rows and the shared reference impedance.
    rhs:
        ``(n, K)`` shared right-hand side (port injections plus noise
        columns) — condensed once per frequency.
    out_rows:
        Global rows of the solution to recover (ports first, then
        probes; ``-1`` marks a grounded probe and yields a zero row).

    The external set is the *stamp hull* only: nodes some group
    mutates.  Ports and probes the stamps never touch have constant
    rows **and** columns, so static condensation commutes with the
    candidate scatter and they are eliminated too — their solution
    rows are recovered as ``h_out + w^T rhs_red`` with the constant
    factors ``h_out = rows of A^-1 r_I`` and adjoint columns
    ``-(A^-1 B)^T`` precomputed per frequency.

    Raises :class:`PatternError` when the constant internal block is
    singular (no Schur complement exists).
    """
    base = np.asarray(base)
    if base.ndim != 3 or base.shape[-1] != base.shape[-2]:
        raise ValueError(
            f"expected a (F, n, n) base tensor, got {base.shape}"
        )
    n_freq, n_nodes, _ = base.shape
    port_rows = np.asarray(port_rows, dtype=int)

    needed = set(int(r) for r in port_rows)
    needed.update(int(r) for r in out_rows if int(r) >= 0)
    touched = set()
    for group in groups:
        touched.update(int(r) for r in np.asarray(group.rows))
        touched.update(int(c) for c in np.asarray(group.cols))
    if not touched:
        # Degenerate topology with no mutable stamps: keep the output
        # rows themselves external so a reduced system exists at all.
        touched = set(needed)
    if (max(touched | needed, default=-1) >= n_nodes
            or min(touched | needed, default=0) < 0):
        raise ValueError("group/port/probe indices exceed the node count")
    external = np.array(sorted(touched), dtype=int)
    internal = np.array(
        [k for k in range(n_nodes) if k not in touched], dtype=int
    )
    m = external.size
    local = np.full(n_nodes, -1, dtype=int)
    local[external] = np.arange(m)
    local_int = np.full(n_nodes, -1, dtype=int)
    local_int[internal] = np.arange(internal.size)

    # Port loads are constant stamps: external ones on the reduced
    # diagonal, condensed-out ones on the internal block's diagonal.
    load_global = np.zeros(n_nodes)
    np.add.at(load_global, port_rows, 1.0 / z0)

    d_block = base[:, external[:, None], external[None, :]].copy()
    d_block[:, np.arange(m), np.arange(m)] += load_global[external]

    n_out = len(out_rows)
    out_int = [(k, int(local_int[int(row)])) for k, row in enumerate(out_rows)
               if int(row) >= 0 and local[int(row)] < 0]

    if internal.size:
        a_block = base[:, internal[:, None], internal[None, :]]
        load_int = load_global[internal]
        if np.any(load_int):
            a_block = a_block.copy()
            idx = np.arange(internal.size)
            a_block[:, idx, idx] += load_int
        b_block = base[:, internal[:, None], external[None, :]]
        c_block = base[:, external[:, None], internal[None, :]]
        solve_a = _shared_pattern_lu(a_block)
        schur = np.empty_like(d_block)
        rhs_red = np.empty((n_freq, m, rhs.shape[1]), dtype=complex)
        rhs_int = np.ascontiguousarray(rhs[internal])
        rhs_ext = rhs[external]
        e_out = np.zeros((n_freq, m, n_out), dtype=complex)
        h_out = (np.zeros((n_freq, n_out, rhs.shape[1]), dtype=complex)
                 if out_int else None)
        for f in range(n_freq):
            a_inv_b = solve_a(f, b_block[f])
            a_inv_r = solve_a(f, rhs_int)
            schur[f] = d_block[f] - c_block[f] @ a_inv_b
            rhs_red[f] = rhs_ext - c_block[f] @ a_inv_r
            for k, li in out_int:
                e_out[f, :, k] = -a_inv_b[li, :]
                h_out[f, k, :] = a_inv_r[li, :]
    else:
        schur = d_block
        rhs_red = np.broadcast_to(
            rhs[external], (n_freq, m, rhs.shape[1])
        ).astype(complex)
        e_out = np.zeros((n_freq, m, n_out), dtype=complex)
        h_out = None

    for k, row in enumerate(out_rows):
        if int(row) >= 0 and local[int(row)] >= 0:
            e_out[:, local[int(row)], k] = 1.0

    lowered = []
    for group in groups:
        lrows = local[np.asarray(group.rows, dtype=int)]
        lcols = local[np.asarray(group.cols, dtype=int)]
        signs = np.asarray(group.signs, dtype=float)
        factors = _rank1_factors(lrows, lcols, signs, m)
        u_t, v_t = factors if factors is not None else (None, None)
        lowered.append(_LocalGroup(group.name, lrows, lcols, signs,
                                   u_t, v_t))

    return SparsePlan(
        n_nodes, external, internal, lowered,
        np.ascontiguousarray(np.swapaxes(schur, -1, -2)),
        rhs_red, e_out, h_out=h_out,
    )
