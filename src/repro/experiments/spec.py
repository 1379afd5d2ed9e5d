"""Declarative experiment specifications.

An :class:`ExperimentSpec` names a grid of simulation configurations —
algorithm × layout × n × M (plus per-parameter grids) for sequential
runs, (n, block, P) configs for parallel PxPOTRF runs — expanded once,
at construction, into an ordered tuple of :class:`SpecPoint` records.
The engine (:mod:`repro.experiments.engine`) executes points; the cache
(:mod:`repro.experiments.cache`) keys on them.

Seed plumbing: a spec carries **one** root seed, and every point gets
its own seed derived deterministically from the root plus the point's
identity (:func:`derive_seed`).  This decorrelates sweep points — the
old behaviour of every ``measure`` call defaulting to ``seed=0`` made
all points share one input matrix — while staying reproducible: the
same spec always yields the same per-point seeds, independent of
execution order or process placement.
"""

from __future__ import annotations

import hashlib
import itertools
import json
from dataclasses import dataclass
from typing import Any, Iterable, Mapping, Sequence

from repro.abft import AbftConfig
from repro.faults.plan import FaultPlan
from repro.results import freeze_params

SEQUENTIAL = "sequential"
PARALLEL = "parallel"


def _freeze_faults(faults) -> tuple:
    """Canonicalize a fault plan (or dict / frozen tuple / None) for a point."""
    if faults is None:
        return ()
    if isinstance(faults, FaultPlan):
        plan = faults
    elif isinstance(faults, tuple):
        plan = FaultPlan.from_frozen(faults)
    else:
        plan = FaultPlan.from_dict(faults)
    return () if plan.is_empty() else plan.freeze()


def _freeze_abft(abft) -> tuple:
    """Canonicalize an ABFT config (config/dict/bool/frozen/None) for a point."""
    if isinstance(abft, tuple):
        return () if not abft else AbftConfig.from_frozen(abft).freeze()
    cfg = AbftConfig.coerce(abft)
    return () if cfg is None else cfg.freeze()


def derive_seed(root: int, *parts: object) -> int:
    """Deterministically derive a 32-bit seed from a root and identity parts.

    Stable across processes and Python versions (SHA-256, not
    ``hash()``), so a spec's per-point seeds never depend on where or
    when the point runs.
    """
    text = ":".join([str(int(root)), *(repr(p) for p in parts)])
    return int.from_bytes(hashlib.sha256(text.encode("utf-8")).digest()[:4], "big")


@dataclass(frozen=True)
class SpecPoint:
    """One fully-resolved configuration of an experiment grid.

    ``kind`` selects the execution path: ``"sequential"`` points run
    :func:`repro.analysis.sweeps.measure` (and use ``M`` + ``params``),
    ``"parallel"`` points run
    :func:`repro.analysis.sweeps.measure_parallel` (and use ``P`` +
    ``block``).  Points are frozen, hashable and picklable — they cross
    process boundaries and are the unit the result cache keys on.
    """

    kind: str
    algorithm: str
    layout: str
    n: int
    seed: int
    verify: bool = True
    M: int | None = None
    P: int | None = None
    block: int | None = None
    params: tuple = ()
    #: Record a phase-span profile alongside the counters.  Part of
    #: the cache key: an observed and an unobserved run store
    #: different payloads (the former carries the span tree).
    observe: bool = False
    #: Frozen :class:`~repro.faults.FaultPlan` (``FaultPlan.freeze()``),
    #: or ``()`` for a failure-free point.  Part of the cache key:
    #: a faulty run and a clean run of the same configuration report
    #: different counters, so they must never share an entry.
    faults: tuple = ()
    #: Frozen :class:`~repro.abft.AbftConfig` (``AbftConfig.freeze()``),
    #: or ``()`` for an unprotected point.  Part of the cache key — a
    #: protected run carries checksum overhead in its counters plus the
    #: ``abft`` record — but *omitted* from the canonical dict when
    #: off, so every pre-ABFT cache entry keeps its key.
    abft: tuple = ()

    @property
    def fault_plan(self) -> "FaultPlan | None":
        """The point's fault plan as a live object (``None`` if clean)."""
        return FaultPlan.from_frozen(self.faults) if self.faults else None

    @property
    def abft_config(self) -> "AbftConfig | None":
        """The point's ABFT config as a live object (``None`` if off)."""
        return AbftConfig.from_frozen(self.abft) if self.abft else None

    def to_dict(self) -> dict:
        """JSON-ready canonical dict (the cache-key input)."""
        d = {
            "kind": self.kind,
            "algorithm": self.algorithm,
            "layout": self.layout,
            "n": int(self.n),
            "seed": int(self.seed),
            "verify": bool(self.verify),
            "M": None if self.M is None else int(self.M),
            "P": None if self.P is None else int(self.P),
            "block": None if self.block is None else int(self.block),
            "params": [[k, v] for k, v in self.params],
            "observe": bool(self.observe),
            "faults": None if not self.faults else self.fault_plan.to_dict(),
        }
        if self.abft:
            d["abft"] = self.abft_config.to_dict()
        return d

    @classmethod
    def from_dict(cls, d: Mapping[str, Any]) -> "SpecPoint":
        """Rebuild a point from :meth:`to_dict` output."""
        return cls(
            kind=d["kind"],
            algorithm=d["algorithm"],
            layout=d["layout"],
            n=int(d["n"]),
            seed=int(d["seed"]),
            verify=bool(d.get("verify", True)),
            M=None if d.get("M") is None else int(d["M"]),
            P=None if d.get("P") is None else int(d["P"]),
            block=None if d.get("block") is None else int(d["block"]),
            params=tuple((str(k), v) for k, v in (d.get("params") or ())),
            observe=bool(d.get("observe", False)),
            faults=_freeze_faults(d.get("faults")),
            abft=_freeze_abft(d.get("abft")),
        )

    def key(self) -> str:
        """Content hash of the point (code version is added by the cache).

        Derived once per point object: the front door routes on it,
        the trace id and the result key derive from it.
        """
        key = self.__dict__.get("_key")
        if key is None:
            blob = json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))
            key = hashlib.sha256(blob.encode("utf-8")).hexdigest()
            self.__dict__["_key"] = key  # frozen: bypass __setattr__
        return key

    def label(self) -> str:
        """Short human-readable tag for progress lines."""
        chaos = " +faults" if self.faults else ""
        chaos += " +abft" if self.abft else ""
        if self.kind == PARALLEL:
            return (
                f"{self.algorithm} n={self.n} b={self.block} P={self.P}{chaos}"
            )
        return f"{self.algorithm}/{self.layout} n={self.n} M={self.M}{chaos}"


def _point_seed(root: int, explicit: int | None, *identity: object) -> int:
    return derive_seed(root, *identity) if explicit is None else int(explicit)


@dataclass(frozen=True)
class ExperimentSpec:
    """A named, ordered collection of sweep points.

    Construct via the classmethods — :meth:`sequential` for full
    grids, :meth:`from_cases` for explicit case lists (the Table 1
    census shape), :meth:`parallel` for PxPOTRF configs — rather than
    assembling ``points`` by hand.
    """

    name: str
    points: "tuple[SpecPoint, ...]"
    seed: int = 0

    @classmethod
    def sequential(
        cls,
        name: str,
        *,
        algorithms: Sequence[str],
        ns: Sequence[int],
        Ms: Sequence[int],
        layouts: Sequence[str] = ("column-major",),
        params: Mapping[str, Any] | None = None,
        param_grid: Mapping[str, Sequence[Any]] | None = None,
        seed: int = 0,
        verify: bool = True,
        observe: bool = False,
        faults: "FaultPlan | None" = None,
        abft=None,
    ) -> "ExperimentSpec":
        """Cross an algorithm × layout × n × M (× param) grid.

        ``params`` are fixed keywords applied to every point;
        ``param_grid`` maps parameter names to value sequences and is
        expanded as an extra cross-product dimension (e.g.
        ``{"block": [4, 16, 64]}`` for a block-size sweep).
        ``observe=True`` records a phase-span profile for every point
        (stored in the artifact next to the counters).  ``faults``
        applies one deterministic fault plan to every point (part of
        each point's cache key).  ``abft`` (config/dict/``True``) runs
        every point checksum-protected (also part of the cache key).
        """
        base = dict(params or {})
        grid_names = sorted(param_grid or {})
        grid_values = [list((param_grid or {})[k]) for k in grid_names]
        frozen_faults = _freeze_faults(faults)
        frozen_abft = _freeze_abft(abft)
        pts = []
        for algo, layout, n, M in itertools.product(algorithms, layouts, ns, Ms):
            for combo in itertools.product(*grid_values) if grid_names else [()]:
                p = dict(base)
                p.update(zip(grid_names, combo))
                frozen = freeze_params(p)
                pts.append(
                    SpecPoint(
                        kind=SEQUENTIAL,
                        algorithm=algo,
                        layout=layout,
                        n=int(n),
                        M=int(M),
                        params=frozen,
                        verify=verify,
                        observe=observe,
                        faults=frozen_faults,
                        abft=frozen_abft,
                        seed=derive_seed(seed, algo, layout, n, M, frozen),
                    )
                )
        return cls(name=name, points=tuple(pts), seed=seed)

    @classmethod
    def from_cases(
        cls,
        name: str,
        cases: Iterable[Mapping[str, Any]],
        *,
        seed: int = 0,
        verify: bool = True,
        observe: bool = False,
        faults: "FaultPlan | None" = None,
        abft=None,
    ) -> "ExperimentSpec":
        """Build a spec from explicit case dicts (census-style lists).

        Each case needs ``algorithm``, ``n`` and either ``M`` (+
        optional ``layout``/``params``) for a sequential point or
        ``P`` + ``block`` for a parallel one.  A case may pin its own
        ``seed``, ``observe``, ``faults`` (a
        :class:`~repro.faults.FaultPlan` or its dict form) or ``abft``;
        otherwise the spec-wide values apply.
        """
        spec_faults = _freeze_faults(faults)
        spec_abft = _freeze_abft(abft)
        pts = []
        for case in cases:
            algo = case["algorithm"]
            n = int(case["n"])
            explicit = case.get("seed")
            vfy = bool(case.get("verify", verify))
            obs = bool(case.get("observe", observe))
            flt = (
                _freeze_faults(case["faults"])
                if "faults" in case
                else spec_faults
            )
            abf = (
                _freeze_abft(case["abft"]) if "abft" in case else spec_abft
            )
            if case.get("P") is not None:
                P, block = int(case["P"]), int(case["block"])
                pts.append(
                    SpecPoint(
                        kind=PARALLEL,
                        algorithm=algo,
                        layout=case.get("layout", "block-cyclic"),
                        n=n,
                        P=P,
                        block=block,
                        verify=vfy,
                        observe=obs,
                        faults=flt,
                        abft=abf,
                        seed=_point_seed(seed, explicit, algo, n, block, P),
                    )
                )
            else:
                layout = case.get("layout", "column-major")
                M = int(case["M"])
                frozen = freeze_params(case.get("params"))
                pts.append(
                    SpecPoint(
                        kind=SEQUENTIAL,
                        algorithm=algo,
                        layout=layout,
                        n=n,
                        M=M,
                        params=frozen,
                        verify=vfy,
                        observe=obs,
                        faults=flt,
                        abft=abf,
                        seed=_point_seed(seed, explicit, algo, layout, n, M, frozen),
                    )
                )
        return cls(name=name, points=tuple(pts), seed=seed)

    @classmethod
    def parallel(
        cls,
        name: str,
        configs: Iterable[Sequence[int]],
        *,
        seed: int = 0,
        verify: bool = True,
        observe: bool = False,
        faults: "FaultPlan | None" = None,
        abft=None,
    ) -> "ExperimentSpec":
        """Spec over PxPOTRF configurations ``(n, block, P)``."""
        cases = [
            {"algorithm": "pxpotrf", "n": n, "block": b, "P": P}
            for n, b, P in configs
        ]
        return cls.from_cases(
            name, cases, seed=seed, verify=verify, observe=observe,
            faults=faults, abft=abft,
        )

    def to_dict(self) -> dict:
        """JSON-ready dict (used by the engine's artifact output)."""
        return {
            "name": self.name,
            "seed": int(self.seed),
            "points": [p.to_dict() for p in self.points],
        }

    def __len__(self) -> int:
        """Number of sweep points."""
        return len(self.points)


__all__ = [
    "ExperimentSpec",
    "SpecPoint",
    "derive_seed",
    "SEQUENTIAL",
    "PARALLEL",
]
