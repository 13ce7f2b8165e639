"""Streaming sketch maintenance: absorb new rows of ``A`` incrementally.

A payoff of coordinate-addressed generation the paper's design enables
but does not spell out: because column ``j`` of ``S`` is a pure function
of the *global* row index ``j`` (counter-based families) or of the
checkpoint ``(r, j)`` (xoshiro), the sketch of a growing matrix can be
maintained incrementally —

    Ahat = S[:, :m1] A1 + S[:, m1:m1+m2] A2 + ...

— one blocked-kernel call per arriving row batch, without revisiting old
data.  That is the streaming regime much of the RandNLA literature
targets (single pass over data too large to store), and it falls out of
the paper's RNG contract for free: :meth:`StreamingSketch.absorb` runs
each batch through :class:`repro.plan.Runtime` with the generator's
column indices offset by the rows seen so far.

Determinism: for the counter-based families the final sketch is
*identical* to the one-shot sketch of the stacked matrix, for any chunking
(tested); for checkpointed xoshiro it is identical whenever the same
``b_d`` grid is used.
"""

from __future__ import annotations

import numpy as np

from ..errors import ConfigError, FormatError, ShapeError
from ..kernels.blocking import default_block_sizes
from ..plan.events import CHECKPOINT_WRITTEN, EventBus
from ..plan.policy import PersistencePolicy
from ..plan.spec import ProblemSpec, RngSpec, SketchPlan
from ..rng.base import SketchingRNG
from ..sparse.csc import CSCMatrix
from ..utils.timing import Timer
from ..utils.validation import check_positive_int

__all__ = ["StreamingSketch"]


class _OffsetRNG(SketchingRNG):
    """View of a generator with its column (sparse-row) indices shifted.

    Wrapping rather than copying keeps the underlying family's counters
    and checkpoint semantics; ``_panel(r, d1, js)``, which every entry
    point reads, delegates with ``js + offset`` so batch ``t``'s local
    row ``j`` addresses the global column ``offset + j`` of ``S``.
    """

    def __init__(self, inner: SketchingRNG, offset: int) -> None:
        # Deliberately skip SketchingRNG.__init__: state lives in `inner`.
        self._inner = inner
        self._offset = int(offset)

    def _bits_block(self, r, d1, js):  # pragma: no cover - not reached
        raise NotImplementedError

    def _panel(self, r, d1, js, out=None):
        return self._inner._panel(r, d1, js + self._offset, out)

    @property
    def blocking_independent(self) -> bool:
        return self._inner.blocking_independent

    @property
    def dist(self):
        return self._inner.dist

    @property
    def post_scale(self) -> float:
        return self._inner.post_scale

    @property
    def samples_generated(self) -> int:
        return self._inner.samples_generated

    @samples_generated.setter
    def samples_generated(self, value: int) -> None:
        self._inner.samples_generated = value

    @property
    def family(self) -> str:
        return self._inner.family

    @property
    def seed(self) -> int:
        return self._inner.seed

    @seed.setter
    def seed(self, value: int) -> None:
        self._inner.seed = value


class StreamingSketch:
    """Maintains ``Ahat = S A`` while rows of ``A`` arrive in batches.

    Parameters
    ----------
    d:
        Sketch size (rows of the implicit ``S``).
    n:
        Column count of the stream (fixed across batches).
    rng:
        The sketch generator; its state object is shared across batches so
        instrumentation (``samples_generated``) accumulates.
    kernel, b_d, b_n:
        Kernel options of each batch's plan, run by
        :class:`repro.plan.Runtime`;
        block sizes are resolved eagerly (via
        :func:`repro.kernels.default_block_sizes`) so every batch uses the
        same grid and checkpoints can fingerprint it.
    persistence:
        Durable crash recovery as a
        :class:`~repro.plan.PersistencePolicy` (see
        :mod:`repro.persist`): a verified-restorable snapshot of the
        partial sketch is written atomically every ``every`` newly
        absorbed rows.  Restore with
        :func:`repro.persist.resume_streaming`.  Setting
        ``checkpoint_every = None`` after construction turns the
        automatic cadence off (snapshots only via
        :meth:`save_checkpoint`).
    bus:
        An :class:`~repro.plan.EventBus` for observability: each
        absorbed batch's per-batch runtime emits its lifecycle events
        here (so a :class:`~repro.obs.RunObserver` sees every batch),
        and :meth:`save_checkpoint` emits ``checkpoint_written`` with
        the measured write latency.  Omitted: no events, no overhead.

    Example
    -------
    >>> st = StreamingSketch(60, 20, PhiloxSketchRNG(0))   # doctest: +SKIP
    >>> for batch in stream_of_csc_blocks:                 # doctest: +SKIP
    ...     st.absorb(batch)
    >>> Ahat = st.sketch                                   # doctest: +SKIP
    """

    def __init__(self, d: int, n: int, rng: SketchingRNG, *,
                 kernel: str = "algo3", b_d: int | None = None,
                 b_n: int | None = None,
                 persistence: PersistencePolicy | None = None,
                 bus: "EventBus | None" = None) -> None:
        self.d = check_positive_int(d, "d")
        self.n = check_positive_int(n, "n")
        self.rng = rng
        if kernel not in ("algo3", "algo4"):
            raise ConfigError(
                f"kernel must be 'algo3' or 'algo4', got {kernel!r}")
        self.kernel = kernel
        bd_default, bn_default = default_block_sizes(d, n)
        self.b_d = bd_default if b_d is None else check_positive_int(b_d, "b_d")
        self.b_n = bn_default if b_n is None else check_positive_int(b_n, "b_n")
        self.rows_seen = 0
        self.batches_absorbed = 0
        #: Row batches absorbed through :meth:`absorb` as ``(offset, rows)``
        #: pairs — the replay log checkpoint verification audits against.
        self.batch_log: list[tuple[int, int]] = []
        #: Chunks absorbed through :meth:`absorb_entries` (not replayable
        #: from ``(offset, rows)`` coordinates; counted for resume-skip).
        self.entry_chunks_absorbed = 0
        self._sketch = np.zeros((d, n), dtype=np.float64, order="F")
        if rng.post_scale != 1.0:
            # The scaling trick folds a constant into the *finished*
            # product; an incrementally updated sketch would need the
            # factor tracked per batch.  Keep the contract simple.
            raise ConfigError(
                "StreamingSketch requires post_scale == 1 distributions; "
                "use 'uniform' or 'rademacher'"
            )
        pol = persistence if persistence is not None else PersistencePolicy()
        self.checkpoint_every = pol.every if pol.enabled else None
        self.persistence = pol
        self.checkpoint = pol.build_manager()
        self._rows_at_last_snapshot = 0
        self.bus = bus

    def _batch_plan(self, batch: CSCMatrix) -> SketchPlan:
        """The per-batch plan :meth:`absorb` hands to the runtime.

        Streaming runs each batch on the serial driver with persistence
        disabled — streaming snapshots capture the *accumulated* sketch
        plus the batch replay log (``mode="streaming"``), which the
        engine's per-row-block checkpoints cannot express.
        """
        return SketchPlan(
            problem=ProblemSpec(m=batch.shape[0], n=self.n, d=self.d,
                                nnz=batch.nnz),
            kernel=self.kernel, b_d=self.b_d, b_n=self.b_n,
            rng=RngSpec(kind=self.rng.family, seed=self.rng.seed,
                        distribution=self.rng.dist.name),
            driver="serial",
        )

    @property
    def sketch(self) -> np.ndarray:
        """The current ``d x n`` sketch of all rows absorbed so far."""
        return self._sketch

    # -- durable checkpoints ------------------------------------------------

    def fingerprint(self) -> dict:
        """Immutable run identity for checkpoint compatibility checks."""
        from ..persist.snapshot import run_fingerprint

        return run_fingerprint(
            mode="streaming", d=self.d, n=self.n, b_d=self.b_d,
            b_n=self.b_n, kernel=self.kernel,
            rng_kind=self.rng.family, seed=self.rng.seed,
            distribution=self.rng.dist.name,
        )

    def save_checkpoint(self) -> "object | None":
        """Write a snapshot of the current partial sketch now.

        Returns the snapshot path, or ``None`` when no checkpoint manager
        is configured.  Called automatically from :meth:`absorb` every
        ``checkpoint_every`` rows; call it directly for externally paced
        checkpoints (e.g. per input-file chunk).
        """
        if self.checkpoint is None:
            return None
        blocks = [(r, self._sketch[r:r + min(self.b_d, self.d - r), :])
                  for r in range(0, self.d, self.b_d)]
        state = {
            "rows_seen": int(self.rows_seen),
            "batches_absorbed": int(self.batches_absorbed),
            "batches": [[int(off), int(cnt)] for off, cnt in self.batch_log],
            "entry_chunks": int(self.entry_chunks_absorbed),
            "samples_generated": int(self.rng.samples_generated),
        }
        with Timer() as write:
            path = self.checkpoint.save(blocks, self.fingerprint(), state)
        self._rows_at_last_snapshot = self.rows_seen
        if self.bus is not None:
            self.bus.emit(CHECKPOINT_WRITTEN, path=path,
                          rows=(0, self.rows_seen),
                          snapshots_written=self.checkpoint.snapshots_written,
                          seconds=write.elapsed)
        return path

    def _maybe_checkpoint(self) -> None:
        if self.checkpoint is None or self.checkpoint_every is None:
            return
        if self.rows_seen - self._rows_at_last_snapshot >= self.checkpoint_every:
            self.save_checkpoint()

    # -- absorption ---------------------------------------------------------

    def absorb(self, batch: CSCMatrix) -> int:
        """Fold a batch of new rows into the sketch.

        *batch* holds the next ``k`` rows of the stream as a ``k x n`` CSC
        matrix; returns the global row offset the batch was placed at.
        """
        if batch.shape[1] != self.n:
            raise ShapeError(
                f"batch has {batch.shape[1]} columns, stream has {self.n}"
            )
        if batch.nnz and not np.isfinite(batch.data).all():
            raise FormatError(
                "batch contains NaN/Inf values; refusing to absorb them "
                "into the sketch"
            )
        offset = self.rows_seen
        shifted = _OffsetRNG(self.rng, offset)
        from ..plan.runtime import Runtime

        result = Runtime(bus=self.bus).run(self._batch_plan(batch), batch,
                                           rng_factory=lambda w: shifted)
        self._sketch += result.sketch
        self.rows_seen += batch.shape[0]
        self.batches_absorbed += 1
        self.batch_log.append((offset, batch.shape[0]))
        self._maybe_checkpoint()
        return offset

    def absorb_entries(self, rows: np.ndarray, cols: np.ndarray,
                       vals: np.ndarray) -> None:
        """Fold raw COO entries with *global* row indices into the sketch.

        The fully out-of-core path: entries may arrive in any order, from
        any source (e.g. :func:`repro.sparse.iter_matrix_market_entries`),
        and ``A`` is never materialized — each entry ``(i, j, v)``
        contributes ``v * S[:, i]`` to output column ``j``.  Unlike
        :meth:`absorb`, row indices here are absolute (no offset is
        applied) and :attr:`rows_seen` is not advanced; do not mix the two
        entry points on one instance unless the coordinates agree.
        """
        rows = np.asarray(rows, dtype=np.int64)
        cols = np.asarray(cols, dtype=np.int64)
        vals = np.asarray(vals, dtype=np.float64)
        if not (rows.shape == cols.shape == vals.shape) or rows.ndim != 1:
            raise ShapeError("rows, cols, vals must be equal-length vectors")
        if rows.size == 0:
            return
        if cols.min() < 0 or cols.max() >= self.n:
            raise ShapeError(f"column indices out of range [0, {self.n})")
        if rows.min() < 0:
            raise ShapeError("row indices must be non-negative")
        # Batched generation per row block of S (honouring the same b_d
        # checkpoint grid the kernels use, so checkpointed generators agree
        # with the matrix path); S columns are addressed by the absolute
        # row indices, so duplicates and arbitrary entry order are fine.
        if not np.isfinite(vals).all():
            raise FormatError(
                "entry values contain NaN/Inf; refusing to absorb them "
                "into the sketch"
            )
        b_d = self.b_d if self.b_d is not None else self.d
        for r in range(0, self.d, b_d):
            d1 = min(b_d, self.d - r)
            V = self.rng.column_block_batch(r, d1, rows)  # d1 x batch
            contrib = V * vals
            np.add.at(self._sketch[r:r + d1].T, cols, contrib.T)
        self.batches_absorbed += 1
        self.entry_chunks_absorbed += 1

    @classmethod
    def from_matrix_market(cls, source, d: int, rng: SketchingRNG, *,
                           chunk: int = 65536, kernel: str = "algo3",
                           b_d: int | None = None, checkpoint_dir=None,
                           checkpoint_every_chunks: int | None = None,
                           resume: bool = False) -> "StreamingSketch":
        """Sketch a MatrixMarket file without ever materializing it.

        Streams the file's entries in *chunk*-sized batches through
        :meth:`absorb_entries`; peak memory is the ``d x n`` sketch plus
        one chunk.  Requires a ``general`` coordinate file.

        With *checkpoint_dir* set, a durable snapshot is written every
        *checkpoint_every_chunks* chunks (default: every chunk), and
        ``resume=True`` restores the newest verified-good snapshot and
        skips the already-absorbed chunks — a multi-hour out-of-core
        sketch killed at 99% replays only the input scan, not the
        arithmetic.  Chunk iteration is deterministic for a given file
        and *chunk*, which is what makes skip-ahead exact; the chunk size
        is part of the resume contract (it is checked via the absorbed
        chunk count and the file's entry total).
        """
        from ..sparse.io_mm import iter_matrix_market_entries

        st: "StreamingSketch | None" = None
        skip = 0
        if resume:
            if checkpoint_dir is None:
                raise ConfigError("resume=True requires checkpoint_dir")
            from ..persist.resume import try_resume_streaming

            expect = {"mode": "streaming", "d": int(d),
                      "kernel": str(kernel), "rng_kind": rng.family,
                      "seed": rng.seed, "distribution": rng.dist.name}
            if b_d is not None:
                expect["b_d"] = int(b_d)
            st = try_resume_streaming(checkpoint_dir, expect=expect)
            if st is not None:
                skip = st.entry_chunks_absorbed
        every = (1 if checkpoint_every_chunks is None
                 else check_positive_int(checkpoint_every_chunks,
                                         "checkpoint_every_chunks"))
        done = 0
        for (m, n, _nnz), rows, cols, vals in iter_matrix_market_entries(
                source, chunk=chunk):
            if st is None:
                pol = (PersistencePolicy(checkpoint_dir=str(checkpoint_dir))
                       if checkpoint_dir is not None else None)
                st = cls(d, n, rng, kernel=kernel, b_d=b_d, persistence=pol)
                st.checkpoint_every = None  # externally paced (per chunk)
                st.rows_seen = m  # absolute coordinates; fixed stream height
            done += 1
            if done <= skip:
                continue
            st.absorb_entries(rows, cols, vals)
            if checkpoint_dir is not None and \
                    st.entry_chunks_absorbed % every == 0:
                st.save_checkpoint()
        if st is None:
            raise ShapeError("matrix file contained no entries")
        return st
