"""Containers for transient simulation output."""

from __future__ import annotations

import numpy as np

from repro.api.serialize import SerializableMixin
from repro.transient.events import zero_crossings


class TransientResult(SerializableMixin):
    """Time series produced by :func:`repro.transient.engine.simulate_transient`.

    Attributes
    ----------
    t:
        Accepted time points, shape ``(m,)`` (includes the initial point).
    x:
        States at those points, shape ``(m, n)``.
    variable_names:
        Labels matching the state columns.
    stats:
        Dict of counters (steps, newton iterations, rejected steps, ...).

    Like every result class, supports the uniform serialization protocol:
    ``to_dict()`` / ``from_dict()`` round-trip bit-identically (see
    :mod:`repro.api.serialize`).
    """

    def __init__(self, t, x, variable_names, stats=None):
        self.t = np.asarray(t, dtype=float)
        self.x = np.asarray(x, dtype=float)
        if self.x.shape[0] != self.t.size:
            raise ValueError(
                f"time axis has {self.t.size} points but states have "
                f"{self.x.shape[0]} rows"
            )
        self.variable_names = tuple(variable_names)
        self.stats = dict(stats or {})

    @property
    def n(self):
        """Number of state variables."""
        return self.x.shape[1]

    def __len__(self):
        return self.t.size

    def column(self, key):
        """A single variable's trace, by name or index."""
        if isinstance(key, str):
            key = self.variable_names.index(key)
        return self.x[:, key]

    def __getitem__(self, key):
        return self.column(key)

    def sample(self, times, key=None):
        """Linear interpolation of one variable (or all) at ``times``.

        Parameters
        ----------
        times:
            Where to sample; must lie within the simulated range.
        key:
            Variable name/index; ``None`` returns shape ``(len(times), n)``.
        """
        times = np.asarray(times, dtype=float)
        if key is not None:
            return np.interp(times, self.t, self.column(key))
        return np.stack(
            [np.interp(times, self.t, self.x[:, j]) for j in range(self.n)],
            axis=-1,
        )

    def crossing_times(self, key, level=0.0, direction=+1):
        """Times where a variable crosses ``level`` (linear interpolation)."""
        return zero_crossings(
            self.t, self.column(key) - level, direction=direction
        )

    def final_state(self):
        """State at the last accepted time point."""
        return self.x[-1].copy()


class TrajectoryRecorder:
    """The stored trajectory of a march, kept as arrays.

    The one owner of the stored format — a time vector plus a row array
    of any trailing shape (``(n,)`` states, ``(B, n)`` ensemble stacks,
    ``(N1, n)`` envelope samples) — and of the ``store_every`` policy
    shared by the transient and envelope marches.  Counting accepted steps from the
    last kept row, the ``store_every``-th is kept, and so is every row
    whose time reaches ``t_stop`` (such a row ends the march, so the
    final state is always stored).  The count since the last kept row is
    ``carried``; it moves across :meth:`record_block` calls and into
    checkpoints.

    Rows land in one preallocated buffer that grows geometrically;
    :meth:`reserve` sizes it exactly when the step count is known.

    Parameters
    ----------
    t, rows:
        The rows stored so far: the initial point of a fresh march, or a
        checkpoint's ``stored_t``/``stored_x`` (arrays, or the lists of
        rows older checkpoints hold).
    store_every, t_stop:
        The decimation policy.
    carried:
        Accepted steps since the last kept row.
    """

    def __init__(self, t, rows, store_every=1, t_stop=np.inf, carried=0):
        t = np.array(t, dtype=float).reshape(-1)
        rows = np.array(rows, dtype=float)
        if rows.shape[0] != t.size:
            raise ValueError(
                f"{t.size} stored times but {rows.shape[0]} stored rows"
            )
        self.store_every = int(store_every)
        self.t_stop = float(t_stop)
        self.carried = int(carried)
        self._t = t
        self._x = rows
        self._n = t.size

    def reserve(self, steps):
        """Make room for ``steps`` more accepted steps ending the march."""
        pending = self.carried + int(steps)
        self._grow(-(-pending // self.store_every))

    def _grow(self, extra):
        need = self._n + extra
        if need <= self._t.size:
            return
        t = np.empty(need)
        x = np.empty((need,) + self._x.shape[1:])
        t[:self._n] = self._t[:self._n]
        x[:self._n] = self._x[:self._n]
        self._t, self._x = t, x

    def record(self, t, row):
        """One accepted step at time ``t``; kept per the policy."""
        self.carried += 1
        if self.carried >= self.store_every or t >= self.t_stop:
            if self._n == self._t.size:
                self._grow(max(self._n, 64))
            self._t[self._n] = t
            self._x[self._n] = row
            self._n += 1
            self.carried = 0

    def record_block(self, t, rows):
        """A non-empty block of accepted steps ``t[j]``, ``rows[j]``; kept per the policy."""
        k = t.shape[0]
        if self.store_every != 1:
            counts = np.arange(self.carried + 1, self.carried + k + 1)
            keep = (counts % self.store_every == 0) | (t >= self.t_stop)
            self.carried = (
                0 if t[-1] >= self.t_stop
                else (self.carried + k) % self.store_every
            )
            t, rows = t[keep], rows[keep]
            k = t.shape[0]
        if self._n + k > self._t.size:
            self._grow(max(k, self._n))
        self._t[self._n:self._n + k] = t
        self._x[self._n:self._n + k] = rows
        self._n += k

    def arrays(self):
        """``(t, x)`` of the rows kept so far.

        Later records never write into rows already returned, so an
        exactly filled buffer is handed out without a copy.
        """
        if self._n == self._t.size:
            return self._t, self._x
        return self._t[:self._n].copy(), self._x[:self._n].copy()

    def snapshot(self):
        """Copies of ``(t, x)`` for a checkpoint (with :attr:`carried`)."""
        return self._t[:self._n].copy(), self._x[:self._n].copy()
