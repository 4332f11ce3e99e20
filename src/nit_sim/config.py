"""Strict key-value config parsing for the command-line tool.

The format is a flat INI-like text: `[block]` headers followed by
`key = value` lines, `#`/`;` comments.  A value may be quoted, but `#` and
`;` start a comment even inside quotes, so a quote left open by one is an
error, and so is a quote that closes a value it never opened.  Parsing is
deliberately strict.
Unknown blocks and keys are fatal (with an edit-distance hint), every
diagnostic carries the offending key and line number, and values are
range-checked at parse time.  A silent typo in a physics parameter is
the costliest failure mode this tool has, so nothing is ignored.

`render_config` writes the canonical form; `parse_config(render_config(cfg))`
reproduces `cfg` exactly (floats via repr round-trip).
"""

from __future__ import annotations

import cmath
import difflib
import re
from dataclasses import dataclass, field, fields
from typing import Any, Callable

from .errors import ConfigError, DomainError
from .model import BACKENDS, HilbertSpec, PhysicalParams, SweepConfig, SystemParams, normalize

_REQUIRED_BLOCKS: dict[str, tuple[str, ...]] = {
    "steady": ("system",),
    "sweep": ("system", "sweep"),
    "evolve": ("system", "evolve"),
    "validate": ("system",),
    "derive-coupling": ("system", "physical"),
    "dephasing-scan": ("system", "dephasing"),
}
COMMANDS = tuple(_REQUIRED_BLOCKS)
FORMATS = ("csv", "json", "svg")
UNITS = ("kappa_a", "SI")


@dataclass(frozen=True)
class EvolveSettings:
    """Mean-field trajectory integration settings."""

    t_end: float


@dataclass(frozen=True)
class RunConfig:
    """Fully resolved run description.

    `system` is always stored normalized (kappa_a == 1).  `blocks` keeps the
    schema values of every block but [run] as the file gave them, defaults
    filled in; `render_config` writes them back.  They are excluded from
    equality, so round-tripping through the canonical renderer compares
    equal.
    """

    command: str
    system: SystemParams
    output_dir: str = "."
    formats: tuple[str, ...] = ("csv", "json")
    physical: PhysicalParams | None = None
    sweep: SweepConfig | None = None
    evolve: EvolveSettings | None = None
    dephasing: tuple[float, ...] | None = None
    validate: SweepConfig | None = None
    # [system] is kept as parsed so SI configs render back in their own
    # units (rates rescaled twice would drift by an ulp)
    blocks: dict[str, dict[str, Any]] = field(default_factory=dict, compare=False)

    @property
    def system_units(self) -> str:
        return self.blocks["system"]["units"]

    @property
    def kappa_a_input(self) -> float:
        return self.blocks["system"]["kappa_a"]


def _finite(value, raw: str):
    if not cmath.isfinite(value):
        raise ValueError(f"expected a finite number, got {raw!r}")
    return value


def _num(raw: str) -> float:
    try:
        value = float(raw)
    except ValueError:
        raise ValueError(f"expected a number, got {raw!r}") from None
    return _finite(value, raw)


def _intval(raw: str) -> int:
    try:
        return int(raw, 10)
    except ValueError:
        raise ValueError(f"expected an integer, got {raw!r}") from None


def _cplx(raw: str) -> complex:
    try:
        value = complex(raw.replace(" ", ""))
    except ValueError:
        raise ValueError(
            f"expected a real or complex number, got {raw!r}"
        ) from None
    return _finite(value, raw)


def _enum(options: tuple[str, ...]) -> Callable[[str], str]:
    def parse(raw: str) -> str:
        if raw in options:
            return raw
        raise ValueError(
            f"must be one of {', '.join(options)}, got {raw!r}" + _suggest(raw, options)
        )

    return parse


def _formats(raw: str) -> tuple[str, ...]:
    picked = set()
    for item in raw.split(","):
        name = item.strip()
        if name not in FORMATS:
            raise ValueError(
                f"unknown format {name!r}; choose from {', '.join(FORMATS)}"
            )
        picked.add(name)
    return tuple(f for f in FORMATS if f in picked)


def _out(raw: str) -> str:
    """An output directory that reads back as itself from `render_config`'s line."""
    try:
        if _tokenize(f"[run]\nout = {raw}")["run"]["out"][0] == raw:
            return raw
    except ConfigError:
        pass
    raise ValueError(f"{raw!r} would not read back from a config line (it may not be empty, "
                     "hold #, ; or a line break, or begin or end with a quote or whitespace)")


def _float_list(raw: str) -> tuple[float, ...]:
    return tuple(_num(s.strip()) for s in raw.split(","))


@dataclass(frozen=True)
class _Field:
    parse: Callable[[str], Any]
    required: bool = False
    default: Any = None
    check: tuple[Callable[[Any], bool], str] | None = None


_POS = (lambda v: v > 0, "must be > 0")
_NONNEG = (lambda v: v >= 0, "must be >= 0")
_GE2 = (lambda v: v >= 2, "must be >= 2")

_SCHEMA: dict[str, dict[str, _Field]] = {
    "run": {
        "command": _Field(_enum(COMMANDS), required=True),
        "out": _Field(_out, default="."),
        "formats": _Field(_formats, default=("csv", "json")),
    },
    "system": {
        "units": _Field(_enum(UNITS), default="kappa_a"),
        "delta_p": _Field(_num, default=0.0),
        "delta_b_offset": _Field(_num, default=0.0),
        "delta_q_offset": _Field(_num, default=0.0),
        "lambda": _Field(_num, required=True, check=_NONNEG),
        "g": _Field(_num, required=True, check=_NONNEG),
        "epsilon": _Field(_cplx, required=True),
        "kappa_a": _Field(_num, required=True, check=_POS),
        "kappa_b": _Field(_num, required=True, check=_NONNEG),
        "gamma": _Field(_num, required=True, check=_NONNEG),
        "gamma_phi": _Field(_num, required=True, check=_NONNEG),
    },
    "physical": {
        f.name: _Field(_num, required=True, check=_POS) for f in fields(PhysicalParams)
    },
    "sweep": {
        "delta_min": _Field(_num, required=True),
        "delta_max": _Field(_num, required=True),
        "n_points": _Field(_intval, required=True, check=_GE2),
        "backend": _Field(_enum(BACKENDS), default="analytic"),
        "n_a": _Field(_intval, default=HilbertSpec.n_a, check=_GE2),
        "n_b": _Field(_intval, default=HilbertSpec.n_b, check=_GE2),
    },
    "evolve": {
        "t_end": _Field(_num, required=True, check=_POS),
    },
    "dephasing": {
        "gamma_phi_values": _Field(
            _float_list, required=True, check=(lambda v: min(v) >= 0, "must be >= 0")
        ),
    },
    "validate": {
        "delta_min": _Field(_num, default=-1.5),
        "delta_max": _Field(_num, default=1.5),
        "n_points": _Field(_intval, default=11, check=_GE2),
        "n_a": _Field(_intval, default=HilbertSpec.n_a, check=_GE2),
        "n_b": _Field(_intval, default=HilbertSpec.n_b, check=_GE2),
    },
}


def _suggest(name: str, options) -> str:
    hit = difflib.get_close_matches(name, list(options), n=1, cutoff=0.6)
    return f" (did you mean {hit[0]!r}?)" if hit else ""


def _tokenize(text: str) -> dict[str, dict[str, tuple[str, int]]]:
    """Split into blocks of raw key/value strings with line numbers."""
    blocks: dict[str, dict[str, tuple[str, int]]] = {}
    current: str | None = None
    for lineno, raw_line in enumerate(text.splitlines(), start=1):
        line = re.split("[#;]", raw_line, maxsplit=1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            name = line[1:-1].strip()
            if name not in _SCHEMA:
                raise ConfigError(
                    f"line {lineno}: unknown block [{name}]"
                    + _suggest(name, _SCHEMA)
                )
            if name in blocks:
                raise ConfigError(f"line {lineno}: duplicate block [{name}]")
            blocks[name] = {}
            current = name
            continue
        if "=" not in line:
            raise ConfigError(
                f"line {lineno}: expected `key = value`, got {line!r}"
            )
        if current is None:
            raise ConfigError(
                f"line {lineno}: key outside any [block]: {line!r}"
            )
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if value[:1] in ("'", '"'):
            if len(value) < 2 or value[-1] != value[0]:
                raise ConfigError(
                    f"line {lineno}: unclosed quote in the value of {key!r} "
                    "(# and ; start a comment even inside quotes)"
                )
            value = value[1:-1].strip()
        elif value[-1:] in ("'", '"'):
            raise ConfigError(
                f"line {lineno}: the value of {key!r} closes a quote it never opens"
            )
        schema = _SCHEMA[current]
        if key not in schema:
            raise ConfigError(
                f"line {lineno}: unknown key {key!r} in [{current}]"
                + _suggest(key, schema)
            )
        if key in blocks[current]:
            raise ConfigError(
                f"line {lineno}: duplicate key {key!r} in [{current}]"
            )
        if not value:
            raise ConfigError(f"line {lineno}: empty value for {key!r}")
        blocks[current][key] = (value, lineno)
    return blocks


def _apply_schema(block: str, raw: dict[str, tuple[str, int]]) -> dict[str, Any]:
    out: dict[str, Any] = {}
    for key, spec in _SCHEMA[block].items():
        if key not in raw:
            if spec.required:
                raise ConfigError(f"[{block}]: missing required key {key!r}")
            out[key] = spec.default
            continue
        value_str, lineno = raw[key]
        try:
            value = spec.parse(value_str)
        except ValueError as exc:
            raise ConfigError(f"line {lineno}: {key}: {exc}") from None
        if spec.check is not None and not spec.check[0](value):
            raise ConfigError(
                f"line {lineno}: {key} {spec.check[1]}, got {value_str}"
            )
        out[key] = value
    return out


def _build(block: str, make: Callable[..., Any], *args) -> Any:
    """Run a block's constructor, reporting its DomainError as a ConfigError."""
    try:
        return make(*args)
    except DomainError as exc:
        raise ConfigError(f"[{block}]: {exc}") from None


def _grid(system: SystemParams, backend: str, n_a: int, n_b: int, **grid):
    """[sweep] or [validate] as a SweepConfig; only the quantum backend
    reads the truncation n_a, n_b."""
    spec = HilbertSpec(n_a, n_b) if backend == "quantum" else None
    return SweepConfig(base=system, backend=backend, quantum_spec=spec, **grid)


# the RunConfig field of each block but [run] and [system], from the
# normalized system and the block's schema values
_MAKE: dict[str, Callable[[SystemParams, dict[str, Any]], Any]] = {
    "physical": lambda system, v: PhysicalParams(**v),
    "sweep": lambda system, v: _grid(system, **v),
    "evolve": lambda system, v: EvolveSettings(**v),
    "dephasing": lambda system, v: v["gamma_phi_values"],
    "validate": lambda system, v: _grid(system, backend="quantum", **v),
}


def parse_config(text: str) -> RunConfig:
    """Parse config text into a validated RunConfig.

    Every error names the offending key and line.  The [system] block is
    normalized on ingestion; its values as parsed stay in `blocks`, so with
    units = "SI" the raw kappa_a (`kappa_a_input`) and SI rates remain
    available for reporting.
    """
    raw = _tokenize(text)
    if "run" not in raw:
        raise ConfigError("missing [run] block (must set `command`)")
    run = _apply_schema("run", raw["run"])
    command = run["command"]

    for need in _REQUIRED_BLOCKS[command]:
        if need not in raw:
            raise ConfigError(
                f"command {command!r} requires a [{need}] block"
            )
    if command == "validate":
        raw.setdefault("validate", {})
    blocks = {b: _apply_schema(b, raw[b]) for b in _SCHEMA if b in raw and b != "run"}

    rates = dict(blocks["system"])
    units = rates.pop("units")
    if units == "kappa_a" and rates["kappa_a"] != 1.0:
        raise ConfigError(
            'with units = "kappa_a" the kappa_a value must be 1 '
            f"(got {rates['kappa_a']!r}); use units = \"SI\" for raw rates"
        )
    rates["lam"] = rates.pop("lambda")
    system = _build("system", lambda: normalize(SystemParams(**rates)))

    made = {b: _build(b, f, system, blocks[b]) for b, f in _MAKE.items() if b in blocks}

    if command == "validate":
        for key, value in (("epsilon", system.epsilon), ("lambda", system.lam)):
            if value == 0:
                raise ConfigError(
                    f"[system]: validate needs {key} != 0; its checks are "
                    "relative to <a> and <b>, which vanish without drive or coupling"
                )
    if command == "derive-coupling" and units != "SI":
        raise ConfigError(
            'derive-coupling requires [system] units = "SI" so rates can be '
            "reported in both SI and kappa_a units"
        )

    return RunConfig(
        command=command,
        system=system,
        output_dir=run["out"],
        formats=run["formats"],
        blocks=blocks,
        **made,
    )


def _render_value(value: Any) -> str:
    if isinstance(value, str):
        return value
    if isinstance(value, tuple):
        if isinstance(value[0], str):
            return ",".join(value)
        return ", ".join(repr(v) for v in value)
    return repr(value)


def render_config(cfg: RunConfig) -> str:
    """Write the canonical config text for a RunConfig.

    Emits every key of every block the config had, defaults filled in and
    in the units the config used (floats via repr), so the output is
    self-contained and `parse_config` reproduces `cfg` exactly.  [run]
    comes from the config's own fields, so overrides of `output_dir` and
    `formats` show up.
    """
    run = dict(zip(_SCHEMA["run"], (cfg.command, cfg.output_dir, cfg.formats)))
    sections = []
    for name, values in {"run": run, **cfg.blocks}.items():
        lines = [f"[{name}]"] + [f"{k} = {_render_value(v)}" for k, v in values.items()]
        sections.append("\n".join(lines))
    return "\n\n".join(sections) + "\n"
