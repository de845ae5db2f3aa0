"""Central registry of mitigations, trackers, evaluations, and figures.

The simulator, the CLI, and the experiment engine all need to answer the
same questions — "which mitigations exist?", "what is this design's
default swap rate?", "how do I build one for a bank?" — and before this
module existed the answers were hard-coded string tuples scattered
across ``sim/factory.py``. The registry turns each answer into metadata
carried by the design itself: a mitigation (or tracker) class declares
its name, description, defaults, and builder hook with a decorator, and
everything downstream (CLI choices, factory dispatch, grid validation)
is derived from the registered set.

Adding a new design is one decorated class::

    from repro.registry import register_mitigation

    @register_mitigation(
        "my-defence",
        description="My new Row Hammer defence",
        default_swap_rate=4.0,
        builder=lambda ctx: MyDefence(ctx.bank, ctx.tracker, ctx.rng),
    )
    class MyDefence(Mitigation):
        ...

and ``python -m repro run --mitigations my-defence ...`` works with no
other change (see :mod:`repro.core.aqua` and
:mod:`repro.core.blockhammer` for real examples).

*Evaluation kinds* make the experiment engine itself extensible: a kind
is a registered runner (``cell -> result record``) plus the metadata the
engine needs to plan, execute, persist, and export cells of that kind —
a parameter dataclass for grid expansion, serialization hooks for
JSON/CSV and the content-addressed result store, and a schema version
for store keying. The built-in kinds are ``perf`` (the performance
simulator), ``security`` (Juggernaut time-to-break, analytical plus
Monte-Carlo), ``hammer`` (Section II-E's hammer-pattern rig), and
``model`` (the paper's closed-form numbers, the Table IV storage and
Table V power models among them); see :mod:`repro.sim.evaluations`.

*Figures* close the loop from evaluations back to the paper: every
figure/table of the paper's evaluation is a registered builder
producing a declarative :class:`~repro.report.spec.FigureSpec` (the
experiment cells behind the artifact plus a render hook), which is how
``repro report`` and the ``benchmarks/`` tier share one definition per
figure (see :mod:`repro.report`).

The registry module itself imports nothing from :mod:`repro.core`,
:mod:`repro.trackers`, :mod:`repro.sim`, or :mod:`repro.report` — those
modules import *it* to self-register. Lookup methods lazily import the
built-in packages so the registry is populated no matter which module is
imported first. Workloads are not registered: a workload is a name,
resolved by :func:`repro.workloads.sources.resolve_workload`.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, fields
from typing import (
    Any,
    Callable,
    Dict,
    Generic,
    Iterator,
    List,
    Mapping,
    Optional,
    Tuple,
    TypeVar,
)

T = TypeVar("T")


@dataclass
class MitigationBuildContext:
    """Everything a mitigation builder may need for one bank's engine.

    Attributes:
        bank: The bank the engine will protect.
        bank_key: ``(channel, rank, bank)`` tuple identifying the bank.
        trh: The (scaled) Row Hammer threshold.
        swap_threshold: Tracker trigger threshold ``TS`` (== ``trh`` for
            designs without a swap rate).
        tracker: Per-bank tracker instance, or ``None`` when the design
            declared ``uses_tracker=False``.
        rng: Deterministic per-bank random stream.
        pin_buffer: Shared pin-buffer (Scale-SRS LLC pinning).
        keep_events: Retain per-event mitigation logs (tests only).
    """

    bank: Any
    bank_key: tuple
    trh: int
    swap_threshold: int
    tracker: Optional[Any]
    rng: random.Random
    pin_buffer: Any
    keep_events: bool = False


@dataclass(frozen=True)
class MitigationInfo:
    """Registry record for one mitigation design."""

    name: str
    cls: type
    builder: Callable[[MitigationBuildContext], Any]
    description: str = ""
    default_swap_rate: Optional[float] = None
    uses_tracker: bool = True
    is_baseline: bool = False


@dataclass(frozen=True)
class TrackerInfo:
    """Registry record for one aggressor-row tracker.

    ``builder(threshold, timing)`` must return a tracker sized securely
    for that trigger threshold under the given :class:`DRAMTiming`.
    """

    name: str
    cls: type
    builder: Callable[[int, Any], Any]
    description: str = ""


@dataclass(frozen=True)
class FigureInfo:
    """Registry record for one reproducible paper figure or table.

    A figure is *declarative*: ``builder(config)`` returns a
    :class:`~repro.report.spec.FigureSpec` — the experiment specs whose
    cells produce the figure's data (resolved against a
    :class:`~repro.sim.store.ResultStore`, executing only missing
    cells) plus a render hook emitting the artifact as markdown/CSV.
    The same registered definition drives both the ``repro report`` CLI
    and the pytest benchmark tier (see :mod:`repro.report`).

    Attributes:
        name: Artifact name (``fig06``, ``table4``, ...); also the
            output file stem.
        builder: ``ReportConfig -> FigureSpec`` hook; must be cheap
            (validation/listing calls it), deferring all simulation to
            the resolve step.
        title: Human-readable caption (markdown heading).
        artifact: ``"figure"`` or ``"table"`` (presentation only).
        description: One-line description for ``repro report --list``.
    """

    name: str
    builder: Callable[[Any], Any]
    title: str = ""
    artifact: str = "figure"
    description: str = ""


@dataclass(frozen=True)
class EvaluationInfo:
    """Registry record for one evaluation kind.

    An evaluation kind teaches the experiment engine
    (:mod:`repro.sim.experiment`) how to run one leg of the paper's
    evaluation — performance simulation, Monte-Carlo security analysis,
    or an analytical model — through the same grid/parallelism/
    persistence machinery.

    Attributes:
        name: Kind name carried by every :class:`ExperimentCell`.
        runner: ``cell -> result record`` hook executing one cell. Must
            be a module-level callable (cells fan out over a process
            pool) and deterministic in the cell's parameters.
        params_cls: Dataclass of per-cell parameters; grid axes are
            validated against its fields and expanded with
            :func:`dataclasses.replace`.
        subjects: Valid ``mitigation`` names for cells of this kind, or
            ``None`` to validate against the mitigation registry (the
            ``perf`` kind).
        scenario: Default ``workload`` label when a spec names none
            (non-``perf`` kinds have no workloads; the label keys
            filtering and export).
        schema_version: Version of the result record's schema. Part of
            the result store's content digest, so bumping it when the
            runner's numbers or the record's fields change invalidates
            every stored cell of this kind.
        params_to_dict: ``params -> JSON-ready dict`` (stable field
            order is not required; store digests sort keys).
        params_from_dict: Inverse of ``params_to_dict``.
        key_params_to_dict: Like ``params_to_dict`` but for *identity*
            (store digests, merge deduplication): fields the result is
            provably not a function of are normalized away here —
            ``perf`` drops the simulation engine, which is bit-identical
            by contract. Defaults to ``params_to_dict``.
        result_to_dict: ``result record -> JSON-ready dict`` (including
            the nested params).
        result_from_dict: Inverse of ``result_to_dict``; the round trip
            must be bit-identical, or store reuse would perturb results.
        csv_header: Column names for CSV export, or ``None`` when the
            kind implements export elsewhere (``perf`` lives in
            :class:`~repro.sim.experiment.ResultSet`) or has no flat
            rows (``hammer``, ``model``: JSON export only).
        csv_row: ``result record -> row values`` matching ``csv_header``.
        cell_cost: Optional ``cell -> cost`` estimate of one
            :class:`~repro.sim.experiment.ExperimentCell`, in
            microseconds of single-CPU work (one unit is roughly one
            simulated memory request). The dispatcher
            (:mod:`repro.sim.pool`) orders cells longest first, sizes
            the pool from the cells that reach the pool's break-even
            (cheaper cells ride along in the same pool) and stays serial
            when at most one does, so microsecond analytical cells
            report tens of units while heavy simulation cells report
            thousands to millions.
            ``None`` means one unit.
    """

    name: str
    runner: Callable[[Any], Any]
    params_cls: type
    subjects: Optional[Tuple[str, ...]] = None
    scenario: str = "-"
    schema_version: int = 1
    params_to_dict: Optional[Callable[[Any], Dict[str, Any]]] = None
    params_from_dict: Optional[Callable[[Mapping[str, Any]], Any]] = None
    key_params_to_dict: Optional[Callable[[Any], Dict[str, Any]]] = None
    result_to_dict: Optional[Callable[[Any], Dict[str, Any]]] = None
    result_from_dict: Optional[Callable[[Mapping[str, Any]], Any]] = None
    csv_header: Optional[Tuple[str, ...]] = None
    csv_row: Optional[Callable[[Any], List[Any]]] = None
    cell_cost: Optional[Callable[[Any], float]] = None

    @property
    def param_fields(self) -> Tuple[str, ...]:
        """Field names of ``params_cls`` (the valid grid axes)."""
        return tuple(f.name for f in fields(self.params_cls))

    def key_params(self, params: Any) -> Dict[str, Any]:
        """The identity view of ``params`` (see ``key_params_to_dict``)."""
        hook = self.key_params_to_dict or self.params_to_dict
        return hook(params)


class Registry(Generic[T]):
    """Name -> info mapping with duplicate rejection and lazy population.

    Args:
        kind: Human-readable kind ("mitigation", "tracker") for errors.
        populate: Callable importing the built-in implementations so
            their decorators run; invoked at most once, on first lookup.
    """

    def __init__(self, kind: str, populate: Optional[Callable[[], None]] = None):
        self.kind = kind
        self._populate = populate
        self._populated = populate is None
        self._entries: Dict[str, T] = {}

    def _ensure_populated(self) -> None:
        if not self._populated:
            # Flag only after success so a failed import is retried (and
            # re-raised) instead of leaving a silently empty registry.
            self._populate()
            self._populated = True

    def add(self, name: str, info: T) -> None:
        """Register ``info`` under ``name``; duplicate names are an error."""
        if name in self._entries:
            raise ValueError(f"duplicate {self.kind} name {name!r}")
        self._entries[name] = info

    def remove(self, name: str) -> None:
        """Unregister ``name`` (test hygiene; built-ins should stay put)."""
        self._ensure_populated()
        del self._entries[name]

    def get(self, name: str) -> T:
        self._ensure_populated()
        try:
            return self._entries[name]
        except KeyError:
            raise ValueError(
                f"unknown {self.kind} {name!r}; options: {self.names()}"
            ) from None

    def names(self) -> Tuple[str, ...]:
        self._ensure_populated()
        return tuple(self._entries)

    def __contains__(self, name: str) -> bool:
        self._ensure_populated()
        return name in self._entries

    def __iter__(self) -> Iterator[T]:
        self._ensure_populated()
        return iter(self._entries.values())

    def __len__(self) -> int:
        self._ensure_populated()
        return len(self._entries)


def _populate_mitigations() -> None:
    import repro.core  # noqa: F401  (registers the built-in designs)


def _populate_trackers() -> None:
    import repro.trackers  # noqa: F401  (registers the built-in trackers)


def _populate_evaluations() -> None:
    import repro.sim.evaluations  # noqa: F401  (registers the built-in kinds)


def _populate_figures() -> None:
    import repro.report.figures  # noqa: F401  (registers the paper's figures)


MITIGATIONS: Registry[MitigationInfo] = Registry("mitigation", _populate_mitigations)
TRACKERS: Registry[TrackerInfo] = Registry("tracker", _populate_trackers)
EVALUATIONS: Registry[EvaluationInfo] = Registry(
    "evaluation kind", _populate_evaluations
)
FIGURES: Registry[FigureInfo] = Registry("figure", _populate_figures)


def register_mitigation(
    name: str,
    *,
    builder: Callable[[MitigationBuildContext], Any],
    description: str = "",
    default_swap_rate: Optional[float] = None,
    uses_tracker: bool = True,
    is_baseline: bool = False,
) -> Callable[[type], type]:
    """Class decorator registering a mitigation design.

    Args:
        name: CLI/API name of the design.
        builder: ``ctx -> Mitigation`` hook building one bank's engine
            from a :class:`MitigationBuildContext`.
        description: One-line description (shown by ``list-mitigations``).
        default_swap_rate: ``TRH / TS`` used when the caller passes no
            explicit swap rate; ``None`` means the design has no swap
            rate and its tracker (if any) triggers at ``TRH`` directly.
        uses_tracker: Whether a per-bank tracker should be built and
            handed to the builder.
        is_baseline: Marks the no-mitigation reference design.
    """

    def decorate(cls: type) -> type:
        MITIGATIONS.add(
            name,
            MitigationInfo(
                name=name,
                cls=cls,
                builder=builder,
                description=description,
                default_swap_rate=default_swap_rate,
                uses_tracker=uses_tracker,
                is_baseline=is_baseline,
            ),
        )
        return cls

    return decorate


def register_tracker(
    name: str,
    *,
    builder: Callable[[int, Any], Any],
    description: str = "",
) -> Callable[[type], type]:
    """Class decorator registering a tracker.

    ``builder(threshold, timing)`` sizes and builds the tracker for a
    trigger threshold under the given timing.
    """

    def decorate(cls: type) -> type:
        TRACKERS.add(
            name,
            TrackerInfo(
                name=name,
                cls=cls,
                builder=builder,
                description=description,
            ),
        )
        return cls

    return decorate


def _json_safe(value: Any) -> Any:
    """Map non-finite floats to the sentinels ``'inf'``/``'-inf'``/``'nan'``.

    ``json.dump`` would otherwise emit the non-RFC-8259 ``Infinity`` /
    ``NaN`` tokens, which strict consumers (jq, ``JSON.parse``) reject.
    Kinds whose string fields could legitimately hold a sentinel value
    must supply explicit serializers instead of the generic ones.
    """
    if isinstance(value, float) and not math.isfinite(value):
        return repr(value)
    return value


def _json_restore(value: Any) -> Any:
    """Inverse of :func:`_json_safe` (bit-exact for ``inf``)."""
    if isinstance(value, str) and value in ("inf", "-inf", "nan"):
        return float(value)
    return value


def _float_field_names(cls: type) -> frozenset:
    """Names of a dataclass's float-annotated fields (incl. Optional).

    Sentinel restoration applies only to these, so a *string* field
    whose value happens to be ``'inf'`` (a workload label, say) is
    never corrupted into a float on the way back in.
    """
    return frozenset(
        f.name for f in fields(cls) if "float" in str(f.type).lower()
    )


def _generic_params_serializers(
    params_cls: type,
) -> Tuple[Callable[[Any], Dict[str, Any]], Callable[[Mapping[str, Any]], Any]]:
    """Field-by-field (de)serializers for a flat, JSON-scalar dataclass."""

    names = tuple(f.name for f in fields(params_cls))
    float_names = _float_field_names(params_cls)

    def to_dict(params: Any) -> Dict[str, Any]:
        return {name: _json_safe(getattr(params, name)) for name in names}

    def from_dict(data: Mapping[str, Any]) -> Any:
        return params_cls(
            **{
                name: (
                    _json_restore(data[name])
                    if name in float_names
                    else data[name]
                )
                for name in names
                if name in data
            }
        )

    return to_dict, from_dict


def _generic_result_serializers(
    result_cls: type,
    params_to_dict: Callable[[Any], Dict[str, Any]],
    params_from_dict: Callable[[Mapping[str, Any]], Any],
) -> Tuple[Callable[[Any], Dict[str, Any]], Callable[[Mapping[str, Any]], Any]]:
    """(De)serializers for a flat result dataclass with a nested ``params``."""

    names = tuple(f.name for f in fields(result_cls))
    float_names = _float_field_names(result_cls)

    def to_dict(result: Any) -> Dict[str, Any]:
        out = {name: _json_safe(getattr(result, name)) for name in names}
        if out.get("params") is not None:
            out["params"] = params_to_dict(getattr(result, "params"))
        return out

    def from_dict(data: Mapping[str, Any]) -> Any:
        kwargs = {
            name: (
                _json_restore(data[name]) if name in float_names else data[name]
            )
            for name in names
            if name in data
        }
        if kwargs.get("params") is not None:
            kwargs["params"] = params_from_dict(data["params"])
        return result_cls(**kwargs)

    return to_dict, from_dict


def register_evaluation(
    name: str,
    *,
    params_cls: type,
    result_cls: Optional[type] = None,
    subjects: Optional[Tuple[str, ...]] = None,
    scenario: str = "-",
    schema_version: int = 1,
    params_to_dict: Optional[Callable[[Any], Dict[str, Any]]] = None,
    params_from_dict: Optional[Callable[[Mapping[str, Any]], Any]] = None,
    key_params_to_dict: Optional[Callable[[Any], Dict[str, Any]]] = None,
    result_to_dict: Optional[Callable[[Any], Dict[str, Any]]] = None,
    result_from_dict: Optional[Callable[[Mapping[str, Any]], Any]] = None,
    csv_header: Optional[Tuple[str, ...]] = None,
    csv_row: Optional[Callable[[Any], List[Any]]] = None,
    cell_cost: Optional[Callable[[Any], float]] = None,
) -> Callable[[Callable[[Any], Any]], Callable[[Any], Any]]:
    """Function decorator registering an evaluation kind's cell runner.

    The decorated function is the kind's ``runner`` (``cell -> result
    record``); see :class:`EvaluationInfo` for every hook's contract.
    Serialization hooks default to generic field-by-field dataclass
    conversion (with the nested ``params`` handled through the params
    hooks), which suffices for flat records of JSON scalars; kinds with
    richer records (``perf``'s per-core lists, enums) pass explicit
    hooks. When the generic result serializers are requested,
    ``result_cls`` is required.
    """

    if params_to_dict is None or params_from_dict is None:
        generic_to, generic_from = _generic_params_serializers(params_cls)
        params_to_dict = params_to_dict or generic_to
        params_from_dict = params_from_dict or generic_from
    if result_to_dict is None or result_from_dict is None:
        if result_cls is None:
            raise ValueError(
                "register_evaluation needs result_cls to derive the "
                "generic result serializers"
            )
        generic_to, generic_from = _generic_result_serializers(
            result_cls, params_to_dict, params_from_dict
        )
        result_to_dict = result_to_dict or generic_to
        result_from_dict = result_from_dict or generic_from

    def decorate(runner: Callable[[Any], Any]) -> Callable[[Any], Any]:
        EVALUATIONS.add(
            name,
            EvaluationInfo(
                name=name,
                runner=runner,
                params_cls=params_cls,
                subjects=subjects,
                scenario=scenario,
                schema_version=schema_version,
                params_to_dict=params_to_dict,
                params_from_dict=params_from_dict,
                key_params_to_dict=key_params_to_dict,
                result_to_dict=result_to_dict,
                result_from_dict=result_from_dict,
                csv_header=csv_header,
                csv_row=csv_row,
                cell_cost=cell_cost,
            ),
        )
        return runner

    return decorate


def register_figure(
    name: str,
    *,
    title: str = "",
    artifact: str = "figure",
    description: str = "",
) -> Callable[[Callable[[Any], Any]], Callable[[Any], Any]]:
    """Function decorator registering a paper figure/table builder.

    The decorated function is the figure's ``builder``
    (``ReportConfig -> FigureSpec``); see :class:`FigureInfo` for the
    contract and :mod:`repro.report.figures` for the built-in set.
    ``artifact`` must be ``"figure"`` or ``"table"``.
    """
    if artifact not in ("figure", "table"):
        raise ValueError(
            f"figure {name!r}: artifact must be 'figure' or 'table', "
            f"got {artifact!r}"
        )

    def decorate(builder: Callable[[Any], Any]) -> Callable[[Any], Any]:
        FIGURES.add(
            name,
            FigureInfo(
                name=name,
                builder=builder,
                title=title or name,
                artifact=artifact,
                description=description,
            ),
        )
        return builder

    return decorate


def figure_names() -> Tuple[str, ...]:
    """Registered figure/table names, registration order."""
    return FIGURES.names()


def mitigation_names() -> Tuple[str, ...]:
    """Registered mitigation names, registration order."""
    return MITIGATIONS.names()


def tracker_names() -> Tuple[str, ...]:
    """Registered tracker names, registration order."""
    return TRACKERS.names()


