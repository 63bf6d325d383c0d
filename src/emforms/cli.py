"""Command-line front end: JSON scenario config in, CSV/JSON reports out.

Config keys carry their SI units explicitly. Example cylinder config:

    {
      "scenario": "cylinder",
      "geometry": {"r1_m": 0.02, "r2_m": 0.04},
      "omega_rad_per_s": 100.0,
      "b0_tesla": 1.0,
      "material": {"eps_r": 6.0, "mu_r": 1.0}
    }

The optional "sampling" and "outputs" sections take the keys of
``SAMPLING`` and ``OUTPUTS``, which hold their defaults; "outputs" may
also name "samples_json". A config is validated once, into the echo the
reports write (``RunConfig.echo``): the config with every number a float
and the defaults filled in.

Each scenario declares its own geometry keys and drive key; a sphere
config uses "geometry": {"a_m": ...} and "e0_volt_per_m". The driver
reaches a scenario only through the interface of :class:`Scenario`.
Unknown keys and non-finite numbers are rejected, and so are output
names that are not non-empty strings, that hold a NUL or cannot be
encoded as file names, or that name one file once resolved against
``--out-dir``, which :func:`run` does once, for the checks and the writers.

The seed, ``--seed`` or else ``sampling.seed``, draws the events of the
Maxwell and junction checks, and the echo names it; the junction match
runs at fixed events (seed 0), so a scenario's solution depends on the
scenario alone. Each interface draws its events, for the match and for
its check, by ``Interface.events``. :func:`run` keeps the scenario of its
last run and reuses it, with its chart, interfaces and solution, and the
forms that the solution keeps for the checks, when the next config
builds a scenario of the same ``repr``; the config is still validated
and the scenario built.

``verification.json`` summarises the covariant junction report of each
interface, [F] ^ dPhi and [star G] ^ dPhi: its maxima, per condition too,
and its worst event. The 3-vector (Gibbs) relations are a library
cross-check, not part of a run. The per-sample event and residual arrays
go to a fourth file only when ``outputs.samples_json`` names one; it is
written with ``--verify-only`` too, which builds no profile and no
lab-frame decomposition. A warning raised while the
config is built, such as the sphere's rim-speed warning, is printed as one
``warning: <message>`` line on stderr. Exit
codes: 0 on success; 2 on config errors, including a config file that is
not UTF-8 or is nested too deeply to parse, a rim speed at which
``c*c - (r*r)*(omega*omega)`` is not positive, geometry so small that
the metric degenerates, numbers whose arithmetic fails (an
``ArithmeticError``, such as a float overflow), a library input guard (a
``ValueError``) raised while solving, and sampling above
``MAX_SAMPLES`` or ``MAX_PROFILE_ROWS`` (no outputs are written); 3 when residual
tolerances are exceeded or a region's sampled field scale vanishes
(reports are still written); 4 when an output file cannot be written.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import sys
import warnings
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii
from typing import ClassVar, Protocol

import numpy as np

from . import __version__, g17

# The profile builders live with their scenarios and stay importable from here.
from .cylinder import CylinderScenario, cylinder_profile  # noqa: F401
from .forms import DegenerateMetricError
from .junction import covariant_jump_residual
from .media import MaterialParams
from .solutions import FieldSolution, MatchingError, verify_solution
from .sphere import SphereScenario, sphere_profile  # noqa: F401

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_TOLERANCE = 3
EXIT_OUTPUT = 4

# Ceilings checked before any array is built; far above every shipped
# config (512 samples, 3,072 profile rows). A shell profile at the row
# ceiling peaks near 80 MB, as the whole table is evaluated at once.
MAX_SAMPLES = 100_000
MAX_PROFILE_ROWS = 100_000

# Profile tables of at least G17_MIN_VALUES values are formatted by the
# g17 kernel: its fixed cost makes it slower than one '%' pass up to about
# 700 values, and faster by a sixth at 1,024 and by two fifths at 2,048.
# On the scenario-sweep benchmark's own tables (40 runs, file I/O
# excluded), the kernel takes about twice the time of '%' on the 128-value
# shell tables and two thirds of it on the 512-value sphere tables; the
# threshold stays above 512 because at 256 a 300-run sweep loop's peak
# resident set rose by about 0.9 MB (36.8 to 37.8 MB, 3 seeds).
# It runs on blocks of G17_BLOCK_VALUES values, so that its temporaries
# stay near 0.5 MB.
G17_MIN_VALUES = 1024
G17_BLOCK_VALUES = 4096


class ConfigError(ValueError):
    """Malformed or schema-violating run configuration."""


def _require_keys(section: dict, allowed: set[str], required: set[str], where: str) -> None:
    if not isinstance(section, dict):
        raise ConfigError(f"{where} must be a JSON object, got {type(section).__name__}")
    unknown = set(section) - allowed
    if unknown:
        raise ConfigError(f"unknown key(s) in {where}: {sorted(unknown)}")
    missing = required - set(section)
    if missing:
        raise ConfigError(f"missing key(s) in {where}: {sorted(missing)}")


def _number(section: dict, key: str, where: str) -> float:
    value = section[key]
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{where}.{key} must be a number, got {value!r}")
    # also rejects NaN, and integers too large for a float
    if not abs(value) <= sys.float_info.max:
        raise ConfigError(f"{where}.{key} must be finite, got {value!r}")
    return float(value)


def _output_names(names: dict) -> dict[str, str]:
    """The output file names, each a non-empty string that holds no NUL
    and that the file system encoding can encode. Whether two of them name
    one file is decided by :func:`_output_paths`."""
    for key, name in names.items():
        if not isinstance(name, str) or not name:
            raise ConfigError(f"outputs.{key} must be a non-empty string, got {name!r}")
        if "\0" in name:
            raise ConfigError(f"outputs.{key} must not hold a NUL character, got {name!r}")
        try:
            os.fsencode(name)
        except UnicodeEncodeError:
            raise ConfigError(f"outputs.{key} is not encodable as a file name, got {name!r}") from None
    return names


def _output_paths(outputs: dict[str, str], out_dir: str | None) -> dict[str, str]:
    """Each output's file: its name joined to ``out_dir`` (else the working
    directory), absolute and normalised, so that ``a/../b`` names ``b``
    whether or not a directory ``a`` exists. Two names for one file raise
    ConfigError, as one report would overwrite another."""
    base = os.path.abspath(out_dir or os.curdir)
    paths = {key: os.path.normpath(os.path.join(base, name)) for key, name in outputs.items()}
    owners: dict[str, str] = {}
    for key, path in paths.items():
        if owners.setdefault(path, key) != key:
            raise ConfigError(f"outputs.{owners[path]} and outputs.{key} both name {os.path.relpath(path, base)!r}")
    return paths


def _integer(section: dict, key: str, where: str, default: int, minimum: int) -> int:
    value = section.get(key, default)
    if isinstance(value, bool) or not isinstance(value, int) or value < minimum:
        raise ConfigError(f"{where}.{key} must be an integer >= {minimum}, got {value!r}")
    return value


class Scenario(Protocol):
    """What the driver needs of a scenario. It is built from ``omega``,
    ``mat`` and the fields of ``GEOMETRY_KEYS`` (geometry key -> field) and ``DRIVE_KEY``
    (config key, field); ``solution`` is the matched solution and its
    constants, solved on first use at fixed match events and cached like
    ``chart`` and ``interfaces``, so it depends on the scenario alone; its
    solution carries those interfaces as ``FieldSolution.interfaces``, each
    drawing its own events by ``Interface.events``. ``profile`` takes
    the solution and one point count per ``PROFILE_GRID`` sampling key, and
    returns the CSV header, the field values (one row per grid point, C
    order) and the grid axes, as :func:`write_csv` takes them."""

    GEOMETRY_KEYS: ClassVar[dict[str, str]]
    DRIVE_KEY: ClassVar[tuple[str, str]]
    PROFILE_GRID: ClassVar[tuple[str, ...]]

    @property
    def solution(self) -> tuple[FieldSolution, object]: ...
    def profile(self, sol, *points: int) -> tuple[list[str], np.ndarray, tuple[np.ndarray, ...]]: ...
    def observables(self, constants) -> dict: ...


SCENARIOS: dict[str, type[Scenario]] = {"cylinder": CylinderScenario, "sphere": SphereScenario}
# sampling key -> (default, minimum): the profile grid's point counts, then the seed
SAMPLING = {"radial_points": (64, 1), "angular_points": (16, 1), "seed": (0, 0)}
# output key -> default file name; "samples_json" has none and is written only when named
OUTPUTS = {
    "profile_csv": "profile.csv",
    "observables_json": "observables.json",
    "verification_json": "verification.json",
}
# material keys, also the fields of MaterialParams
MATERIAL = ("eps_r", "mu_r")

# The scenario of the last run, under its repr: a run whose scenario has the
# same repr reuses it, with its chart, interfaces, solution and the solution's
# forms, and any other scenario takes its place. The key is the repr, not
# ``==``, which takes -0.0 for 0.0 where the reports do not.
_kept_scenario: dict[str, Scenario] = {}


@dataclass(frozen=True)
class RunConfig:
    """A validated run: the scenario, and the ``echo`` of its config that
    the reports write. The echo is the config with every number a float
    and the ``SAMPLING`` and ``OUTPUTS`` defaults filled in;
    ``outputs.samples_json`` is in it only when the config names it."""

    scenario: Scenario
    echo: dict

    @classmethod
    def from_dict(cls, raw: dict) -> "RunConfig":
        """Validate a config dict; a scenario's own range check raises ValueError."""
        if not isinstance(raw, dict):
            raise ConfigError("config root must be a JSON object")
        kind = raw.get("scenario")
        if not isinstance(kind, str) or kind not in SCENARIOS:
            names = " or ".join(repr(name) for name in SCENARIOS)
            raise ConfigError(f"scenario must be {names}, got {kind!r}")
        scenario_cls = SCENARIOS[kind]
        drive_key, drive_field = scenario_cls.DRIVE_KEY
        required = {"scenario", "geometry", "omega_rad_per_s", drive_key, "material"}
        _require_keys(raw, required | {"sampling", "outputs"}, required, "config")

        geometry = raw["geometry"]
        keys = scenario_cls.GEOMETRY_KEYS
        _require_keys(geometry, set(keys), set(keys), "geometry")
        echo = {
            "scenario": kind,
            "geometry": {key: _number(geometry, key, "geometry") for key in keys},
            drive_key: _number(raw, drive_key, "config"),
        }
        material = raw["material"]
        _require_keys(material, set(MATERIAL), set(MATERIAL), "material")
        sampling = raw.get("sampling", {})
        _require_keys(sampling, set(SAMPLING), set(), "sampling")
        outputs = raw.get("outputs", {})
        _require_keys(outputs, {*OUTPUTS, "samples_json"}, set(), "outputs")
        echo["outputs"] = _output_names({**OUTPUTS, **outputs})
        echo["omega_rad_per_s"] = _number(raw, "omega_rad_per_s", "config")
        echo["material"] = {key: _number(material, key, "material") for key in MATERIAL}

        # the seed is checked after the profile-row ceiling
        *grid, seed = SAMPLING
        echo["sampling"] = {key: _integer(sampling, key, "sampling", *SAMPLING[key]) for key in grid}
        rows = math.prod([echo["sampling"][key] for key in scenario_cls.PROFILE_GRID])
        if rows > MAX_PROFILE_ROWS:
            product = " * ".join(f"sampling.{key}" for key in scenario_cls.PROFILE_GRID)
            raise ConfigError(f"profile rows ({product}) must be at most {MAX_PROFILE_ROWS}, got {rows}")
        echo["sampling"][seed] = _integer(sampling, seed, "sampling", *SAMPLING[seed])

        # built last, after every config value has been validated
        scenario = scenario_cls(
            **{field: echo["geometry"][key] for key, field in keys.items()},
            **{drive_field: echo[drive_key]},
            omega=echo["omega_rad_per_s"],
            mat=MaterialParams(**echo["material"]),
        )
        return cls(scenario, echo)


def load_config(path: str) -> RunConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    # a config too deeply nested for the parser is rejected as invalid JSON too
    except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    return RunConfig.from_dict(raw)


def _load_config_printing_warnings(path: str) -> RunConfig:
    """:func:`load_config`, printing each warning raised on the way as one
    ``warning: <message>`` line on stderr, on every call and without the
    source path and line that the warnings module would print."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            return load_config(path)
        finally:
            for warning in caught:
                print(f"warning: {warning.message}", file=sys.stderr)


def _atomic_write(path: str, data: bytes) -> None:
    """Write ``data`` to a new file beside ``path``, then move it over
    ``path``. The file is created with mode 0o666 less the umask, as
    ``open(path, "w")`` creates it; on any failure it is removed. The path
    is taken as given: :func:`run` passes each report's file as
    :func:`_output_paths` resolved it, absolute and normalised."""
    directory = os.path.dirname(path) or os.curdir
    os.makedirs(directory, exist_ok=True)
    tmp = os.path.join(directory, ".emforms-" + os.urandom(8).hex())
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with open(fd, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _json_numbers(text: str) -> str:
    """Float reprs with the stdlib ``json`` tokens for NaN and infinities."""
    if "n" in text:  # only the reprs nan, inf and -inf have an "n"
        text = text.replace("nan", "NaN").replace("inf", "Infinity")
    return text


def _json_text(o, nl: str = "\n") -> str:
    """``json.dumps(o, indent=2, sort_keys=True)`` for a value whose line
    starts after ``nl``, with each float64 ndarray written as its
    ``tolist()``; a dict key that is not a ``str`` raises TypeError.

    ``json.dumps`` with an indent walks every value through Python
    generators; here a list whose items are all floats is formatted in
    one ``float.__repr__`` pass.
    """
    if isinstance(o, str):
        return encode_basestring_ascii(o)
    if o is None:
        return "null"
    if o is True:
        return "true"
    if o is False:
        return "false"
    if isinstance(o, int):
        return int.__repr__(o)
    if isinstance(o, float):
        return _json_numbers(float.__repr__(o))
    if isinstance(o, np.ndarray) and o.dtype == np.float64 and o.ndim:
        o = o.tolist()
    if isinstance(o, (list, tuple)):
        if not o:
            return "[]"
        inner = nl + "  "
        if all(isinstance(v, float) for v in o):
            items = _json_numbers(("," + inner).join(map(float.__repr__, o)))
        else:
            items = ("," + inner).join([_json_text(v, inner) for v in o])
        return "[" + inner + items + nl + "]"
    if isinstance(o, dict):
        if not o:
            return "{}"
        for key in o:
            if not isinstance(key, str):
                raise TypeError(f"keys must be str, not {type(key).__name__}")
        inner = nl + "  "
        items = ("," + inner).join(
            [encode_basestring_ascii(key) + ": " + _json_text(o[key], inner) for key in sorted(o)]
        )
        return "{" + inner + items + nl + "}"
    raise TypeError(f"Object of type {type(o).__name__} is not JSON serializable")


def _write_json(path: str, payload: dict) -> None:
    _atomic_write(path, (_json_text(payload) + "\n").encode("ascii"))


def write_csv(path: str, header: list[str], values, axes=()) -> None:
    """Write a table of ``len(header)`` columns, each value as
    ``format(float(x), ".17g")``.

    ``axes`` are the 1-D axes of a profile grid, whose values lead each
    row: the rows run over the grid in C order (the last axis fastest), and
    ``values`` holds the remaining columns, one row per grid point. Each
    axis value is formatted once, and each row gathers the texts of its
    grid point's axis values. Without axes,
    ``values`` is the whole table. ``values`` is an array or rows of
    numbers; a row whose width differs from the header's less the axes, or
    a row count other than the grid's, raises TypeError.

    A table of fewer than ``G17_MIN_VALUES`` values is formatted in one
    ``%`` pass; a larger one by :func:`g17.format_g17`, in blocks of
    ``G17_BLOCK_VALUES`` values, whose text is the same."""
    width = len(header) - len(axes)
    try:
        table = np.asarray(values, dtype=np.float64).reshape(-1, width)
    except ValueError as exc:
        raise TypeError(f"rows must have {width} values, the header's width less the axes") from exc
    if len(table) != len(values):
        raise TypeError(f"rows must have {width} values, the header's width less the axes")
    grid = [len(axis) for axis in axes]
    if axes and math.prod(grid) != len(table):
        raise TypeError(f"values must have one row per grid point, {math.prod(grid)}, got {len(table)}")
    chunks = [(",".join(header) + "\n").encode("utf-8")]
    if table.size < G17_MIN_VALUES:
        prefixes = [""]
        for axis in axes:
            texts = ["%.17g," % x for x in axis]
            prefixes = [p + t for p in prefixes for t in texts]
        cells = np.empty((len(table), 1 + width), dtype=object)
        cells[:, 0] = prefixes  # without axes, the one empty prefix leads every row
        cells[:, 1:] = table
        line = "%s" + ",".join(["%.17g"] * width) + "\n"
        chunks.append((line * len(table) % tuple(cells.ravel().tolist())).encode("ascii"))
    else:
        # each axis's texts as 0-padded rows of bytes; row i of the table
        # takes those of value index[k, i] of axis k
        index = np.indices(grid).reshape(len(axes), len(table))
        prefixes = [
            np.array(["%.17g," % x for x in axis], dtype="S").view(np.uint8).reshape(len(axis), -1)[i]
            for axis, i in zip(axes, index)
        ]
        step = max(1, G17_BLOCK_VALUES // width)
        for start in range(0, len(table), step):
            rows = g17.format_g17(table[start : start + step]).reshape(-1, width, g17.WIDTH)
            # the last byte of a cell, always 0, takes its separator
            rows[:, :, -1] = ord(",")
            rows[:, -1, -1] = ord("\n")
            rows = rows.reshape(len(rows), -1)
            if axes:
                rows = np.hstack([*(prefix[start : start + step] for prefix in prefixes), rows])
            chunks.append(rows.tobytes().translate(None, b"\0"))
    _atomic_write(path, b"".join(chunks))


def run(
    config_path: str,
    verify_only: bool = False,
    samples: int | None = None,
    seed: int | None = None,
    out_dir: str | None = None,
) -> int:
    """Load a config, resolve the output files, solve, verify, and write the
    reports; a failure before the writes prints one ``error:`` line (exit 2)."""
    try:
        cfg = _load_config_printing_warnings(config_path)
        echo, sampling = cfg.echo, cfg.echo["sampling"]
        key = repr(cfg.scenario)
        if key not in _kept_scenario:
            _kept_scenario.clear()
        sc = _kept_scenario.setdefault(key, cfg.scenario)
        paths = _output_paths(echo["outputs"], out_dir)
        seed = sampling["seed"] if seed is None else seed
        n_samples = 64 if samples is None else samples
        if n_samples < 1 or seed < 0:
            raise ConfigError(f"need samples >= 1 and seed >= 0, got {n_samples} and {seed}")
        if n_samples > MAX_SAMPLES:
            raise ConfigError(f"samples must be at most {MAX_SAMPLES}, got {n_samples}")
        sampling["seed"] = seed  # the echo names the seed the events are drawn with

        # Non-finite values fail the run through the explicit checks (a
        # MatchingError or a failed tolerance); numpy's floating-point
        # warnings would only print ahead of that message. Python float
        # arithmetic raises instead; its ArithmeticError fails the run as
        # a config error.
        with np.errstate(all="ignore"):
            sol, constants = sc.solution
            maxwell = verify_solution(sol, samples_per_region=n_samples, seed=seed)
            junctions = [
                covariant_jump_residual(sol, iface, iface.events(n_samples, seed)) for iface in sol.interfaces
            ]
            if not verify_only:
                observables = sc.observables(constants)
                header, values, axes = sc.profile(sol, *[sampling[key] for key in sc.PROFILE_GRID])
    # ConfigError, DegenerateMetricError and the scenarios' range checks are ValueErrors
    except (ValueError, MatchingError, ArithmeticError) as exc:
        message = str(exc)
        if isinstance(exc, ArithmeticError):
            message = f"arithmetic failure ({type(exc).__name__}): {message}"
        elif isinstance(exc, DegenerateMetricError):
            message = f"geometry too small for the metric floor: {message}"
        print(f"error: {message}", file=sys.stderr)
        return EXIT_CONFIG

    junction_ok = all(rep.max_rel <= maxwell.tolerance_g for rep in junctions)
    within_tolerance = maxwell.passed and junction_ok

    verification = {
        "config": echo,
        "provenance": {
            "emforms": __version__,
            "numpy": np.__version__,
            "config_sha256": hashlib.sha256(_json_text(echo).encode("ascii")).hexdigest(),
        },
        "maxwell": maxwell.to_json_dict(),
        "junction_tolerance_rel": maxwell.tolerance_g,
        "junction": [rep.to_json_dict() for rep in junctions],
        "within_tolerance": within_tolerance,
    }

    path = paths["verification_json"]
    try:
        _write_json(path, verification)
        if "samples_json" in paths:
            path = paths["samples_json"]
            _write_json(path, {"junction": [rep.arrays_json_dict() for rep in junctions]})
        if not verify_only:
            path = paths["observables_json"]
            _write_json(path, {"config": echo, **observables})
            path = paths["profile_csv"]
            write_csv(path, header, values, axes)
    except OSError as exc:
        print(f"error: cannot write {path}: {exc.strerror or exc}", file=sys.stderr)
        return EXIT_OUTPUT

    return EXIT_OK if within_tolerance else EXIT_TOLERANCE


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="emforms",
        description="Electromagnetics of rotating media: solve, verify, report.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    run_parser = sub.add_parser("run", help="solve a scenario config and write reports")
    run_parser.add_argument("config", help="path to a JSON scenario config")
    run_parser.add_argument(
        "--verify-only", action="store_true", help="write only the verification report (and the samples file, if named)"
    )
    run_parser.add_argument("--samples", type=int, default=None, help="samples per region/interface")
    run_parser.add_argument("--seed", type=int, default=None, help="override the sampling seed")
    run_parser.add_argument("--out-dir", default=None, help="directory for output files")
    args = parser.parse_args(argv)
    return run(
        args.config,
        verify_only=args.verify_only,
        samples=args.samples,
        seed=args.seed,
        out_dir=args.out_dir,
    )


if __name__ == "__main__":
    sys.exit(main())
