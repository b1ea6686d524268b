"""Declarative experiment registry: prepare/run/analyze across the harness.

Every harness experiment is a subclass of :class:`Experiment` registered
under a CLI-stable name with :func:`register`.  The protocol splits each
experiment into three phases (the artiq ``prepare``/``run``/``analyze``
shape, DESIGN.md §16):

``prepare(ctx)``
    Pre-compute configuration (parse the ``-O`` options, build request
    streams).  Must not simulate.
``run(ctx)``
    Execute the simulation(s) and return a **JSON-serializable** results
    document.  The executor round-trips whatever ``run`` returns through
    JSON before anything else sees it, so live and cached analysis are
    guaranteed to read byte-identical data.
``analyze(results, ctx)``
    Render the results document into the experiment's report text.  Must
    depend only on ``results`` (and cheap ``ctx.options``), never on
    simulation state — that is what makes ``python -m repro.harness
    analyze --from <run-dir>`` re-renderable offline.

Each class declares the ``-O KEY=VALUE`` options it reads
(``Experiment.options``); :func:`prepare` rejects any other key and the
class's ``prepare`` parses the values once, both before anything
simulates; ``run`` reads what ``prepare`` parsed.  :func:`execute`
(:func:`prepare` then :func:`run_prepared`, the two steps the CLI takes)
is the one way to run an experiment; the tests and benchmarks call it.

:func:`observe` is the one observability wiring: it builds a run's
registry, sampler, SLO monitor, shard store, console and profiler from
:class:`ObsSpec` and writes the ``--emit`` artifacts on exit.  The CLI
enters it once per run, and a sweep may enter it once per point (the
``scale`` knee-sweep does), so points never share a registry.

Run artifacts (``save_run``/:func:`analyze_from`) live in a run
directory::

    <run-dir>/experiment.json   # name, scale knobs, options, artifacts (format 1)
    <run-dir>/results.json      # the round-tripped ``run`` document
    <run-dir>/<artifact>        # each --emit kind under its ARTIFACTS name
    <run-dir>/point-<label>/    # one sweep point's artifacts, same names

``analyze_from`` re-instantiates the registered class and re-renders
without constructing a single :class:`~repro.sim.Environment` — the DES
kernel's ``events_processed`` count stays at zero, which the round-trip
test asserts.
"""

from __future__ import annotations

import difflib
import importlib
import json
import os
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field, fields, replace
from typing import Callable, Dict, FrozenSet, Iterator, List, Optional, Sequence, Tuple

import repro.obs as obs
from repro.harness.format import format_table
from repro.harness.runner import SCALE_PAPER, ExperimentScale

#: Version stamp of the run-directory layout.  Bump when the artifact
#: schema changes incompatibly; ``analyze_from`` refuses newer/older
#: formats with an actionable error instead of mis-rendering them.
RUN_FORMAT = 1

#: Harness modules scanned by :func:`discover`.  Imported by dotted name
#: (not an ``import`` statement) so the intra-harness layering lint can
#: keep the registry ranked *below* the experiment modules it serves.
DISCOVER_MODULES = (
    "table1", "fig1", "fig2", "fig9", "fig10", "fig11", "fig12",
    "fig13", "fig14", "fig15", "ablations", "chaos", "scale", "scaleout",
)


class UnknownExperiment(KeyError):
    """Raised by :func:`get` for names missing from the registry.

    The message names near-miss registry entries, so CLI callers can
    surface it verbatim as an actionable error.
    """

    def __init__(self, name: str, known: Sequence[str]):
        self.name = name
        self.suggestions = difflib.get_close_matches(name, list(known), n=3, cutoff=0.4)
        hint = (
            f"did you mean: {', '.join(self.suggestions)}? "
            if self.suggestions
            else ""
        )
        super().__init__(
            f"unknown experiment {name!r}; {hint}"
            f"'python -m repro.harness list' prints the registry"
        )

    def __str__(self) -> str:  # KeyError.__str__ would repr() the message
        return self.args[0]


class OptionError(ValueError):
    """A rejected ``-O`` option; the message names the key."""

    def __init__(self, key: str, message: str):
        super().__init__(f"-O {key}: {message}")


# --------------------------------------------------------------------------
# Context & option parsers
# --------------------------------------------------------------------------


#: ``--emit`` artifact kinds and the fixed file (or directory) each one
#: writes inside a run directory or a ``point-<label>/`` directory.
ARTIFACTS = {
    "trace": "trace.json",
    "metrics": "metrics.json",
    "report": "report.html",
    "series": "series.csv",
    "prom": "metrics.prom",
    "shards": "shards",
    "heartbeat": "heartbeat.jsonl",
    "flame": "flame.collapsed",
    "diff": "diff.json",
}


def parse_emit(text: str) -> FrozenSet[str]:
    """``--emit KIND,KIND,...`` -> the set of :data:`ARTIFACTS` kinds."""
    kinds = frozenset(kind.strip() for kind in text.split(",") if kind.strip())
    unknown = sorted(kinds - ARTIFACTS.keys())
    if unknown:
        raise ValueError(
            f"unknown artifact {', '.join(unknown)} (choose from {', '.join(ARTIFACTS)})"
        )
    return kinds


def parse_option(text: str) -> Tuple[str, object]:
    """``-O KEY=VALUE`` -> (key, value); VALUE is JSON when it parses."""
    key, sep, value = text.partition("=")
    if not sep or not key:
        raise ValueError(f"expects KEY=VALUE, got {text!r}")
    try:
        return key, json.loads(value)
    except json.JSONDecodeError:
        return key, value


@dataclass
class ObsSpec:
    """What a run observes and emits; the CLI builds it from its flags.

    The CLI checks the combinations: ``emit`` needs an ``out_dir``,
    ``flame`` a stack-sampling ``profile`` rate and
    ``diff`` a ``baseline``.
    """

    #: ``--emit`` kinds (keys of :data:`ARTIFACTS`).
    emit: FrozenSet[str] = frozenset()
    #: ``--slo`` spec; each registry binds its own monitor.
    slo: Optional[str] = None
    sample_interval: float = 1.0
    span_buffer: int = 10_000
    #: Live-console redraw interval in wall seconds (``--live``).
    live: Optional[float] = None
    #: Stack-sampling rate in Hz (``--profile``); ``None`` is off.
    profile: Optional[float] = None
    analyze: bool = False
    top_k: int = 10
    #: ``(label, metrics document)`` the run is diffed against.
    baseline: Optional[Tuple[str, dict]] = None
    tolerances: Optional[Dict[str, float]] = None

    @property
    def active(self) -> bool:
        """Whether any flag asks for a real registry."""
        return bool(
            self.emit or self.slo or self.live or self.analyze or self.baseline
        ) or self.profile is not None


def one_of(choices: Sequence[str]) -> Callable[[object], str]:
    """A :meth:`ExperimentContext.parsed_option` parser admitting ``choices``."""

    def parse(value) -> str:
        if not isinstance(value, str) or value not in choices:
            raise ValueError(f"got {value!r}; choose from {', '.join(choices)}")
        return value

    return parse


def some_of(choices: Sequence[str]) -> Callable[[object], Tuple[str, ...]]:
    """A parser admitting a non-empty list of ``choices``; a bare string
    names one choice."""

    def parse(value) -> Tuple[str, ...]:
        values = [value] if isinstance(value, str) else value
        if not isinstance(values, (list, tuple)) or not values:
            raise ValueError(f"got {value!r}; expects a list of {', '.join(choices)}")
        for item in values:
            if not isinstance(item, str) or item not in choices:
                raise ValueError(f"got {item!r}; choose from {', '.join(choices)}")
        return tuple(values)

    return parse


def boolean(value) -> bool:
    """A parser admitting JSON ``true`` or ``false``."""
    if not isinstance(value, bool):
        raise ValueError(f"got {value!r}; expects true or false")
    return value


def positive_int(value) -> int:
    """A parser admitting a whole number > 0 (not a bool, not a float)."""
    if isinstance(value, bool) or not isinstance(value, int) or value <= 0:
        raise ValueError(f"got {value!r}; expects a whole number > 0")
    return value


@dataclass
class ExperimentContext:
    """Everything a phase may read: size knobs, options, output paths.

    ``options`` carries the ``-O`` knobs the experiment class declares
    (``system``, ``traffic``, ``policies``, ...); ``prepare`` parses
    them with :meth:`parsed_option`.  ``artifacts`` collects the paths
    (relative to ``out_dir``) the run writes, for ``experiment.json``.
    A run records into the installed registry (:func:`repro.obs.current`).
    """

    scale: ExperimentScale = SCALE_PAPER
    options: Dict[str, object] = field(default_factory=dict)
    out_dir: Optional[str] = None
    obs: ObsSpec = field(default_factory=ObsSpec)
    artifacts: List[str] = field(default_factory=list)

    def option(self, key: str, default=None):
        value = self.options.get(key)
        return default if value is None else value

    def parsed_option(self, key: str, parse: Callable, default=None):
        """``parse(option(key, default))``; a rejected value names the key."""
        try:
            return parse(self.option(key, default))
        except (TypeError, ValueError) as e:
            raise OptionError(key, str(e)) from None

    def artifact(self, name: str) -> str:
        """Path of artifact ``name`` under ``out_dir``, listed in the manifest."""
        path = os.path.join(self.out_dir, name)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        self.artifacts.append(name)
        return path


# --------------------------------------------------------------------------
# The Experiment protocol
# --------------------------------------------------------------------------


class Experiment:
    """Base class for registered experiments (see the module docstring).

    Subclass, override ``run`` (and optionally ``prepare``/``analyze``),
    and decorate with :func:`register`.  ``analyze`` returns the report
    text; the executor prints it, so phases never print the final report
    themselves (progress lines during ``run`` are fine).
    """

    #: CLI-stable registry name, set by :func:`register`.
    name: str = ""
    #: Declared ``-O`` options: key -> one-line help.  :func:`prepare`
    #: rejects every other key.
    options: Dict[str, str] = {}

    def prepare(self, ctx: ExperimentContext) -> None:
        """Parse the options and pre-compute configuration.  Must not simulate."""

    def run(self, ctx: ExperimentContext):
        """Simulate and return a JSON-serializable results document."""
        raise NotImplementedError

    def analyze(self, results, ctx: ExperimentContext) -> str:
        """Render ``results`` (always JSON-round-tripped) into report text."""
        raise NotImplementedError

    # -- introspection (harness list) --------------------------------------

    @classmethod
    def phases(cls) -> str:
        """Which protocol phases the class implements, e.g. ``run/analyze``."""
        out = []
        for phase in ("prepare", "run", "analyze"):
            if getattr(cls, phase) is not getattr(Experiment, phase):
                out.append(phase)
        return "/".join(out)

    @classmethod
    def describe(cls) -> str:
        """One-line description pulled from the class docstring."""
        doc = (cls.__doc__ or "").strip()
        return doc.splitlines()[0] if doc else ""

    @classmethod
    def check_options(cls, options: Dict[str, object]) -> None:
        """Raise :class:`OptionError` for a key the class does not declare."""
        for key in options:
            if key not in cls.options:
                close = difflib.get_close_matches(key, list(cls.options), n=1)
                hint = f"did you mean {close[0]!r}? " if close else ""
                declared = ", ".join(cls.options) or "none"
                raise OptionError(
                    key, f"not an option of {cls.name}; {hint}(declared: {declared})"
                )


@dataclass
class Observed:
    """The registry :func:`observe` installed, and the run's diff verdict."""

    telemetry: object
    #: Set on exit when the ``baseline`` diff broke ``tolerances``.
    failed: bool = False


def report_tolerances(delta, tolerances: Dict[str, float]) -> bool:
    """Print the tolerance verdict of a run diff; True when it passed."""
    failures = obs.check_tolerances(delta, tolerances)
    print("tolerance check FAILED:" if failures else "tolerance check passed")
    for failure in failures:
        print(f"  {failure}")
    return not failures


@contextmanager
def observe(
    ctx: ExperimentContext, name: str, point: Optional[str] = None
) -> Iterator[Observed]:
    """Wire one run's observability from ``ctx.obs``; tear it down on exit.

    Builds the registry (sampler, SLO monitor, shard store, live
    console, stack sampler) and installs it as the process-wide
    default for the block.  On exit it writes each ``--emit`` artifact
    under its :data:`ARTIFACTS` name and prints the run digests.  With no
    observing flag the installed (null) registry is left alone.

    ``point`` marks one point of a sweep: it always gets a fresh
    registry with a sampler (points must not contaminate each other, and
    the open-loop runner keeps its latency histogram there) and writes
    under ``point-<point>/``, the same layout as a run directory.
    """
    spec = ctx.obs
    if point is None and not spec.active:
        yield Observed(obs.current())
        return
    title = name if point is None else f"{name} {point}"
    prefix = "" if point is None else f"point-{point}/"
    paths = {
        kind: ctx.artifact(prefix + filename)
        for kind, filename in ARTIFACTS.items()
        if kind in spec.emit
    }
    tel = obs.Telemetry()
    live = spec.live
    if live is None and "heartbeat" in paths:
        live = 1.0  # a heartbeat stream implies the console that writes it
    if (
        point is not None or spec.slo or live
        or paths.keys() & {"report", "series", "prom", "shards"}
    ):
        tel.sampler = obs.Sampler(interval_s=spec.sample_interval)
    if spec.slo is not None:
        tel.slo = obs.parse_slo_spec(spec.slo).bind(tel)
    store = None
    if "shards" in paths:
        # Spans shard to disk instead of staying in memory; nothing the
        # run reports depends on where they live.
        store = obs.attach_store(tel, paths["shards"], buffer_limit=spec.span_buffer)
    console = None
    if live is not None:
        console = tel.console = obs.LiveConsole(
            interval_s=live, heartbeat_path=paths.get("heartbeat")
        )
    profiler = None
    if spec.profile is not None:
        profiler = tel.profiler = obs.SamplingProfiler(hz=spec.profile)
        profiler.start()
    previous = obs.current()
    obs.install(tel)
    observed = Observed(tel)
    try:
        yield observed
        if profiler is not None:
            profiler.stop()  # freeze the sample set before any exporter reads it
        if console is not None:
            console.close(tel)
        if store is not None:
            # Final flush: every completed request group lands in the
            # shards, so the directory alone is a complete record.
            store.close()
            st = store.stats()
            print(
                f"[span stream: {st['spans_flushed']} spans in "
                f"{st['shards']} shard(s) under {st['directory']}]"
            )
        delta = None
        if spec.baseline is not None:
            base_label, base_doc = spec.baseline
            delta = obs.diff_runs(
                base_doc, obs.metrics_dict(tel),
                base_label=base_label, other_label=f"this run ({title})",
            )
        writers = {
            "trace": lambda path: obs.write_chrome_trace(tel, path),
            "metrics": lambda path: obs.write_metrics(tel, path),
            "series": lambda path: obs.write_series_csv(tel, path),
            "prom": lambda path: obs.write_prometheus(tel, path),
            "diff": lambda path: _write_json(path, delta, sort_keys=True),
            "report": lambda path: obs.write_html_report(
                tel, path, title=f"repro run report: {title}", comparison=delta
            ),
            "flame": lambda path: profiler.write_collapsed(path),
        }
        for kind, write in writers.items():
            if kind in paths:
                write(paths[kind])
                print(f"[{kind} written to {paths[kind]}]")
        if spec.active:
            print()
            print(obs.summary_table(tel))
        if profiler is not None:
            print()
            print(profiler.format_layers())
        if spec.analyze:
            print()
            print(obs.render_analysis(
                obs.analyze(tel, top_k=spec.top_k), top_k=spec.top_k
            ))
        if delta is not None:
            print()
            print(obs.render_diff(delta))
            if spec.tolerances is not None:
                observed.failed = not report_tolerances(delta, spec.tolerances)
    finally:
        if profiler is not None:
            profiler.stop()  # idempotent; covers the exception path
        obs.install(previous)


# --------------------------------------------------------------------------
# Registry & discovery
# --------------------------------------------------------------------------

_REGISTRY: Dict[str, type] = {}
_ALIASES: Dict[str, str] = {}
_discovered = False


def register(name: str, aliases: Sequence[str] = ()):
    """Class decorator: register an :class:`Experiment` under ``name``."""

    def deco(cls: type) -> type:
        if not (isinstance(cls, type) and issubclass(cls, Experiment)):
            raise TypeError(f"@register({name!r}) needs an Experiment subclass")
        cls.name = name
        _REGISTRY[name] = cls
        for alias in aliases:
            _ALIASES[alias] = name
        return cls

    return deco


def discover() -> Dict[str, type]:
    """Import every harness experiment module once; return the registry."""
    global _discovered
    if not _discovered:
        for module in DISCOVER_MODULES:
            importlib.import_module(f"repro.harness.{module}")
        _discovered = True
    return dict(sorted(_REGISTRY.items()))


def names() -> List[str]:
    return sorted(discover())


def get(name: str) -> type:
    """Resolve ``name`` (or alias) to its Experiment class.

    Raises :class:`UnknownExperiment` (with near-miss suggestions) for
    anything not registered.
    """
    registry = discover()
    resolved = _ALIASES.get(name, name)
    try:
        return registry[resolved]
    except KeyError:
        raise UnknownExperiment(name, [*registry, *_ALIASES]) from None


def format_listing() -> str:
    """The ``harness list`` table: name, phases, -O options, description."""
    registry = discover()
    rows = [
        [name, cls.phases(), ",".join(cls.options) or "-", cls.describe()]
        for name, cls in registry.items()
    ]
    return format_table(
        ["Experiment", "Phases", "Options", "Description"],
        rows,
        title=f"registered experiments ({len(registry)})",
    )


# --------------------------------------------------------------------------
# JSON round-tripping
# --------------------------------------------------------------------------


def to_jsonable(obj):
    """Recursively coerce a results document into plain JSON types.

    Dict keys become strings, tuples become lists, numpy scalars/arrays
    collapse via ``tolist()``; anything else falls back to ``str``.
    """
    if isinstance(obj, dict):
        return {str(k): to_jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [to_jsonable(v) for v in obj]
    if obj is None or isinstance(obj, (bool, int, float, str)):
        return obj
    tolist = getattr(obj, "tolist", None)  # numpy arrays and scalars
    if callable(tolist):
        return to_jsonable(tolist())
    return str(obj)


def roundtrip(results):
    """What ``analyze`` always receives: results as-if loaded from disk.

    Both the live executor and :func:`analyze_from` feed ``analyze``
    through this same JSON round-trip, which is what makes cached
    re-analysis byte-identical to the live run's report.
    """
    return json.loads(json.dumps(to_jsonable(results)))


# --------------------------------------------------------------------------
# Executor & run artifacts
# --------------------------------------------------------------------------


def prepare(name: str, ctx: ExperimentContext) -> Experiment:
    """Resolve ``name``, reject undeclared ``-O`` keys, run ``prepare``.

    Raises :class:`UnknownExperiment` or :class:`OptionError` before
    anything simulates.
    """
    exp = get(name)()
    exp.check_options(ctx.options)
    exp.prepare(ctx)
    return exp


def run_prepared(exp: Experiment, ctx: ExperimentContext):
    """Run a prepared experiment; return its round-tripped results.

    Pass ``results`` straight to ``exp.analyze(results, ctx)``.  With
    ``ctx.out_dir`` set the run directory is saved too.
    """
    results = roundtrip(exp.run(ctx))
    if ctx.out_dir is not None:
        save_run(ctx.out_dir, exp.name, ctx, results)
    return results


def execute(name: str, ctx: Optional[ExperimentContext] = None):
    """:func:`prepare` then :func:`run_prepared`; return (exp, results)."""
    if ctx is None:
        ctx = ExperimentContext()
    exp = prepare(name, ctx)
    return exp, run_prepared(exp, ctx)


def _write_json(path: str, doc, sort_keys: bool = False) -> None:
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=sort_keys)
        fh.write("\n")


def save_run(out_dir: str, name: str, ctx: ExperimentContext, results) -> None:
    """Persist ``results.json`` and the ``experiment.json`` manifest.

    The manifest lists every artifact of ``ctx.artifacts``: the
    :func:`observe` outputs are recorded when the wiring is entered, so
    the list is complete once the enclosing :func:`observe` exits.
    """
    os.makedirs(out_dir, exist_ok=True)
    meta = {
        "format": RUN_FORMAT,
        "experiment": name,
        "scale": asdict(ctx.scale),
        "options": to_jsonable(ctx.options),
        "artifacts": sorted({"results.json", *ctx.artifacts}),
    }
    _write_json(os.path.join(out_dir, "experiment.json"), meta, sort_keys=True)
    _write_json(os.path.join(out_dir, "results.json"), results)


def load_run(run_dir: str) -> Tuple[Dict[str, object], object]:
    """Load (meta, results) from a run directory, validating the format."""
    meta_path = os.path.join(run_dir, "experiment.json")
    try:
        with open(meta_path) as fh:
            meta = json.load(fh)
    except FileNotFoundError:
        raise ValueError(
            f"{run_dir} is not a harness run directory (no experiment.json; "
            "produce one with 'python -m repro.harness run <name> --out-dir DIR')"
        ) from None
    except json.JSONDecodeError as e:
        raise ValueError(f"{meta_path} is not valid JSON: {e}") from None
    if meta.get("format") != RUN_FORMAT:
        raise ValueError(
            f"{run_dir}: run format {meta.get('format')!r} does not match "
            f"this harness ({RUN_FORMAT}); re-run the experiment to refresh "
            "the cached artifacts"
        )
    results_path = os.path.join(run_dir, "results.json")
    try:
        with open(results_path) as fh:
            results = json.load(fh)
    except FileNotFoundError:
        raise ValueError(
            f"{run_dir}: results.json missing (incomplete run?)"
        ) from None
    except json.JSONDecodeError as e:
        raise ValueError(f"{results_path} is not valid JSON: {e}") from None
    return meta, results


def analyze_from(run_dir: str, options: Optional[Dict[str, object]] = None) -> str:
    """Re-render a saved run's report from cached artifacts, no simulation.

    The registered class's ``analyze`` runs against the results document
    exactly as the live executor fed it (same JSON round-trip), so the
    output is byte-identical to the live run's report.
    """
    meta, results = load_run(run_dir)
    exp = get(str(meta["experiment"]))()
    exp.check_options(options or {})
    scale_doc = meta.get("scale") or {}
    known = {f.name for f in fields(ExperimentScale)}
    scale = replace(
        SCALE_PAPER, **{k: v for k, v in scale_doc.items() if k in known}
    )
    merged = dict(meta.get("options") or {})
    merged.update(options or {})
    ctx = ExperimentContext(scale=scale, options=merged)
    return exp.analyze(results, ctx)


__all__ = [
    "ARTIFACTS",
    "DISCOVER_MODULES",
    "Experiment",
    "ExperimentContext",
    "ObsSpec",
    "Observed",
    "OptionError",
    "RUN_FORMAT",
    "UnknownExperiment",
    "analyze_from",
    "boolean",
    "discover",
    "execute",
    "format_listing",
    "get",
    "load_run",
    "names",
    "observe",
    "one_of",
    "parse_emit",
    "parse_option",
    "positive_int",
    "prepare",
    "register",
    "report_tolerances",
    "roundtrip",
    "run_prepared",
    "save_run",
    "some_of",
    "to_jsonable",
]
