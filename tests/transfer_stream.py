"""Tap the interval runs one machine charges, in charge order.

A compiled schedule keeps only a run's counts.  Tests that pin *which*
runs a run charged, in what order and at which levels — the
recursive-runs golden and the charge-plan-versus-scope equality —
record them here: :func:`tap` wraps one machine instance's ``read``,
``write``, ``charge_intervals`` and ``scope``, and the
function it returns gives the stream so far as four arrays, one entry
per charged interval run:

* ``starts`` / ``stops`` — the half-open address run (``int64``);
* ``kinds`` — True for writes (fast → slow), False for reads;
* ``masks`` — bitmask of the levels the run was charged at (bit ``i``
  is ``machine.levels[i]``, ``int64``).

Explicit transfers are write-through, so they carry every level; an
ideal-cache scope charges its read set on entry and its write set on
exit at the levels its footprint newly fits.  A read that faults is
recorded twice, since its retry is charged again.  A batch (one
planned run; a fault-armed machine never takes one) is recorded whole.
Only bound methods are replaced: the machine stays unobserved, so the
algorithms still take their charge plans under the tap.
"""

from contextlib import contextmanager

import numpy as np

FIELDS = ("starts", "stops", "kinds", "masks")


def tap(machine):
    """Record every interval run ``machine`` charges from now on."""
    parts = [(np.empty(0, np.int64), np.empty(0, np.int64),
              np.empty(0, bool), np.empty(0, np.int64))]
    everywhere = (1 << len(machine.levels)) - 1

    def record(starts, stops, kinds, mask):
        parts.append((starts, stops, kinds,
                      np.full(len(starts), mask, dtype=np.int64)))

    def record_set(ivs, is_write, mask=everywhere):
        pairs = np.asarray(ivs.intervals, dtype=np.int64).reshape(-1, 2)
        record(pairs[:, 0], pairs[:, 1], np.full(len(pairs), is_write), mask)

    read = machine.read
    write = machine.write
    charge_intervals = machine.charge_intervals
    scope = machine.scope

    def tapped_read(ivs):
        faults = machine.faults
        before = faults.stats.read_faults if faults else 0
        read(ivs)
        record_set(ivs, False)
        if faults and faults.stats.read_faults > before:
            record_set(ivs, False)

    def tapped_write(ivs):
        write(ivs)
        record_set(ivs, True)

    def tapped_charge_intervals(batch, **kwargs):
        charge_intervals(batch, **kwargs)
        kinds = np.repeat(batch.is_write, np.diff(batch.offsets))
        record(batch.starts.copy(), batch.stops.copy(), kinds, everywhere)

    @contextmanager
    def tapped_scope(read_ivs, write_ivs=None):
        with scope(read_ivs, write_ivs) as handle:
            mask = sum(
                1 << i for i, level in enumerate(machine.levels)
                if level.fitted_scope_depth == handle.depth
            )
            if mask:
                record_set(read_ivs, False, mask)
            yield handle
        if mask and write_ivs is not None:
            record_set(write_ivs, True, mask)

    machine.read = tapped_read
    machine.write = tapped_write
    machine.charge_intervals = tapped_charge_intervals
    machine.scope = tapped_scope

    def stream():
        return dict(zip(FIELDS, (np.concatenate(col) for col in zip(*parts))))

    return stream
