"""Command-line front end.

Subcommands: synth, place, sweep, mf, report. Every subcommand takes --seed
and --config; all but synth, which writes to --out, take --out-dir; sweep and
mf, the only ones that run trials, take --threads.

Every long option is declared once, in ``OPTIONS``: its flag, how its text
converts, its default, whether it is required, its allowed choices and
whether the manifest records it. The parser, the config-file rules, the
defaults and each manifest's ``arg.`` lines all come from that table.
Protocol defaults are the library's own (``ExperimentConfig``,
``PlacementPolicy``), never restated here.

Option precedence is flags > config file > environment (SPARSESENSE_SEED for
the master seed) > built-in defaults. The config file is a flat key=value
text file whose keys are the long flag names; text from a flag and from the
file goes through the same conversion and choice check. A key that no
subcommand declares, a line without '=', or a bad value is a usage error,
so one file can drive several subcommands but cannot misspell a key.

Exit codes: 0 success, 64 usage error, 65 bad or inconsistent input data,
2 I/O failure.

Each command returns its outputs and the values it derived; ``_run`` writes
every output atomically (temp file + rename) and then the manifest, the one
record of a run: ``manifest.txt`` in --out-dir, or ``<out>.manifest`` for
synth. Its lines are, in order: the run facts (tool, command, master-seed,
started, finished, python, numpy, blas, blas-threads); the derived values
(place: modes, method; sweep: config-digest; mf: config-digest, regime;
report: inputs); ``arg.<flag>`` for each recorded option, defaults included,
and for nothing else; and ``file.<name>=sha256:<hex>`` for each output.
"""

from __future__ import annotations

import argparse
import inspect
import math
import os
import platform
import sys
import tempfile
from dataclasses import dataclass
from datetime import datetime, timezone
from hashlib import sha256
from typing import Any, Callable

import numpy as np

from . import __version__, kernels
from .basis import BASIS_KINDS, randomized_basis, svd_basis
from .dataset import (
    MatrixFormatError,
    SpectrumSpec,
    load_matrix,
    save_matrix,
    synthesize,
)
from .evaluation import (
    ExperimentConfig,
    classify_composition_sweep,
    mf_sweep,
    sweep_modes_sensors,
)
from .multifidelity import ASSIGNMENTS, budget_from_endpoints
from .placement import OVERSAMPLERS, PlacementPolicy, plan_with_modes
from .svg import line_chart

_REGIME_TINTS = {
    "cheap": "#f6c9c9",
    "expensive": "#c9d7f6",
    "inconclusive": "#ffffff",
    "mixed-best": "#e3d0f2",
}

_TRUE_WORDS = ("1", "true", "yes", "on")
_FALSE_WORDS = ("0", "false", "no", "off")


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


# ---------------------------------------------------------------------------
# Option table
# ---------------------------------------------------------------------------


def _parse_bool(text: str) -> bool:
    word = text.strip().lower()
    if word not in _TRUE_WORDS + _FALSE_WORDS:
        raise ValueError(word)
    return word in _TRUE_WORDS


def _parse_grid(text: str) -> list[int]:
    values = [int(part) for part in text.split(",") if part.strip()]
    if not values:
        raise ValueError("empty grid")
    return values


def _parse_threads(text: str) -> int:
    threads = int(text)
    if threads < 1:
        raise _UsageError(f"--threads must be >= 1, got {threads}")
    return threads


def _parse_band(text: str) -> float:
    band = float(text)
    if not (math.isfinite(band) and band >= 0):
        raise ValueError(text)
    return band


def _library_default(owner, name: str):
    """The default the library gives keyword ``name`` of ``owner``."""
    return inspect.signature(owner).parameters[name].default


def _protocol(name: str):
    """The protocol default of ``ExperimentConfig.<name>``."""
    return _library_default(ExperimentConfig, name)


@dataclass(frozen=True)
class Option:
    """One long option, ``--flag``.

    ``conv`` turns its text, from the command line or a config file, into a
    value; a ``ValueError`` there, or a value outside ``choices``, is a usage
    error. ``default`` is a value, or a function of the options declared
    before it. ``record`` writes the value to the manifest as
    ``arg.<flag>``. ``env`` names an environment variable read when neither
    the flag nor the config file sets it. An option converted by
    ``_parse_bool`` takes no value on the command line.
    """

    flag: str
    conv: Callable[[str], Any] = str
    default: Any = None
    required: bool = False
    choices: tuple[str, ...] = ()
    record: bool = True
    env: str | None = None

    @property
    def dest(self) -> str:
        return self.flag.replace("-", "_")


_SEED = Option("seed", int, _protocol("master_seed"), record=False, env="SPARSESENSE_SEED")
_THREADS = Option(
    "threads", _parse_threads, _library_default(sweep_modes_sensors, "threads"), record=False
)
_OUT_DIR = Option("out-dir", default=".", record=False)
_CONFIG = Option("config", record=False)
_DATA = Option("data", required=True)
_BASIS = Option("basis", default=_protocol("basis_kind"), choices=BASIS_KINDS)
_OVERSAMPLE = Option(
    "oversample", default=_library_default(PlacementPolicy, "oversample"), choices=OVERSAMPLERS
)
# The protocol options that sweep and mf share, in ``_experiment`` below.
_PROTOCOL = (
    _BASIS,
    _OVERSAMPLE,
    Option("train-fraction", float, _protocol("train_fraction")),
    Option("splits", int, _protocol("n_splits")),
    Option("cv", int, _protocol("n_placement_cv")),
    Option("noise-draws", int, _protocol("n_noise")),
    Option("svg", _parse_bool, False, record=False),
)

OPTIONS: dict[str, tuple[Option, ...]] = {
    "synth": (
        _SEED, _CONFIG,
        Option("a", float, required=True),
        Option("b", float, required=True),
        Option("n", int, required=True),
        Option("m", int, required=True),
        Option("n-sv", int, lambda o: min(o.n, o.m)),
        Option("format", default=_library_default(save_matrix, "fmt"), choices=("binary", "csv")),
        Option("out", required=True),
    ),
    "place": (
        _SEED, _OUT_DIR, _CONFIG, _DATA,
        Option("p", int, required=True),
        _BASIS,
        # The manifest records the mode count the plan used instead.
        Option("modes", int, record=False),
        _OVERSAMPLE,
    ),
    "sweep": (
        _SEED, _THREADS, _OUT_DIR, _CONFIG, _DATA,
        Option("r-grid", _parse_grid, required=True),
        Option("p-grid", _parse_grid, required=True),
        Option("noise-level", float, _protocol("level_cheap")),
    )
    + _PROTOCOL,
    "mf": (
        _SEED, _THREADS, _OUT_DIR, _CONFIG, _DATA,
        Option("p-cheap-max", int, required=True),
        Option("p-exp-max", int, required=True),
        Option("cost-cheap", float, 1.0),
        Option("level-cheap", float, _protocol("level_cheap")),
        Option("level-exp", float, _protocol("level_exp")),
        Option("steps", int, _protocol("composition_steps")),
        Option("assignment", default=_protocol("assignment"), choices=ASSIGNMENTS),
        Option("band", _parse_band, _library_default(classify_composition_sweep, "band")),
    )
    + _PROTOCOL
    + (Option("tag-b"), Option("tag-noise"), Option("tag-counts")),
    "report": (_SEED, _OUT_DIR, _CONFIG),
}


def _load_config_file(path: str) -> dict[str, str]:
    known = {opt.flag for options in OPTIONS.values() for opt in options}
    out: dict[str, str] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            key, eq, value = line.partition("=")
            key = key.strip()
            if not eq:
                raise _UsageError(f"{path}: line {lineno}: expected key=value")
            if key not in known:
                raise _UsageError(f"{path}: line {lineno}: unknown key {key!r}")
            out[key] = value.strip()
    return out


def _resolve(args: argparse.Namespace, cfg: dict[str, str]) -> argparse.Namespace:
    """Replace each option's flag text in ``args`` by its value: the flag,
    then the config file, then the environment, then the default."""
    for opt in OPTIONS[args.command]:
        text = getattr(args, opt.dest)
        if text is None:
            text = cfg.get(opt.flag, os.environ.get(opt.env) if opt.env else None)
        if text is None:
            if opt.required:
                raise _UsageError(f"missing required option --{opt.flag}")
            value = opt.default(args) if callable(opt.default) else opt.default
        else:
            try:
                value = opt.conv(text)
            except ValueError:
                raise _UsageError(f"bad value for --{opt.flag}: {text!r}") from None
            if opt.choices and value not in opt.choices:
                raise _UsageError(
                    f"bad value for --{opt.flag}: {text!r} (choose from {', '.join(opt.choices)})"
                )
        setattr(args, opt.dest, value)
    return args


# ---------------------------------------------------------------------------
# Output: one writer, and the manifest written last
# ---------------------------------------------------------------------------


def _write_atomic(path: str, payload) -> None:
    """Write ``payload`` to a temp file beside ``path``, then rename it over
    ``path``. A str is written as UTF-8; anything else is called with the
    temp file's path and writes it."""
    target = os.path.abspath(path)
    directory = os.path.dirname(target)
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".sparsesense-")
    os.close(fd)
    try:
        if isinstance(payload, str):
            with open(tmp, "wb") as fh:
                fh.write(payload.encode("utf-8"))
        else:
            payload(tmp)
        os.chmod(tmp, 0o644)
        os.replace(tmp, target)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _digest_file(path: str) -> str:
    h = sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def _utcnow() -> str:
    return datetime.now(timezone.utc).isoformat(timespec="seconds")


def _show(value) -> str:
    if isinstance(value, float):
        return f"{value:.17g}"
    if isinstance(value, list):
        return ",".join(map(str, value))
    return str(value)


def _manifest(o, started: str, outputs, derived: dict) -> str:
    """The run facts, the ``derived`` values, an ``arg.`` line for every
    recorded option that has a value, and each output's digest."""
    recorded = {
        opt.flag: getattr(o, opt.dest)
        for opt in OPTIONS[o.command]
        if opt.record and getattr(o, opt.dest) is not None
    }
    lines = [
        f"tool=sparsesense {__version__}",
        f"command={o.command}",
        f"master-seed={o.seed}",
        f"started={started}",
        f"finished={_utcnow()}",
        f"python={platform.python_version()}",
        f"numpy={np.__version__}",
    ]
    lines += [f"{key}={value}" for key, value in kernels.blas_record().items()]
    lines += [f"{key}={_show(value)}" for key, value in sorted(derived.items())]
    lines += [f"arg.{key}={_show(value)}" for key, value in sorted(recorded.items())]
    lines += [
        f"file.{os.path.basename(p)}=sha256:{_digest_file(p)}" for p in sorted(outputs)
    ]
    return "\n".join(lines) + "\n"


def _run(o) -> None:
    """Run ``o.command``, write each output it returns, then the manifest."""
    started = _utcnow()
    outputs, derived = o.func(o)
    for path, payload in outputs.items():
        _write_atomic(path, payload)
    if o.command == "synth":
        manifest = o.out + ".manifest"
    else:
        manifest = os.path.join(o.out_dir, "manifest.txt")
    _write_atomic(manifest, _manifest(o, started, outputs, derived))


# ---------------------------------------------------------------------------
# Results tables: each declares its (column, type) pairs once
# ---------------------------------------------------------------------------

_SWEEP_COLUMNS = (
    ("r", int), ("p", int), ("basis", str),
    ("mean_error", float), ("std_error", float), ("trials", int),
)
_MF_COLUMNS = (
    ("p_cheap", int), ("p_exp", int),
    ("mean_error", float), ("std_error", float), ("trials", int),
)
_SENSORS_COLUMNS = (("rank", int), ("location", int))
_REPORT_COLUMNS = (("b", str), ("noise_regime", str), ("count_regime", str), ("regime", str))


def _table(columns, rows, notes=()) -> str:
    """CSV text: the header, one line per row of values (floats to 17
    significant digits), then a ``# <note>`` line per note."""
    lines = [",".join(name for name, _ in columns)]
    lines += [",".join(map(_show, row)) for row in rows]
    lines += [f"# {note}" for note in notes]
    return "\n".join(lines) + "\n"


def _parse_table(columns, text: str, path: str) -> tuple[list[dict], list[str]]:
    """The rows of a ``_table`` text as dicts typed by ``columns``, and its
    notes. Blank lines are skipped; every error names ``path`` and the line."""
    header = ",".join(name for name, _ in columns)
    lines = [(n, line) for n, line in enumerate(text.splitlines(), start=1) if line.strip()]
    if not lines or lines[0][1] != header:
        lineno = lines[0][0] if lines else 1
        raise ValueError(f"{path}: line {lineno}: missing header {header!r}")
    rows, notes = [], []
    for lineno, line in lines[1:]:
        if line.startswith("#"):
            notes.append(line.lstrip("#").strip())
            continue
        fields = line.split(",")
        if len(fields) != len(columns):
            raise ValueError(
                f"{path}: line {lineno}: expected {len(columns)} fields, found {len(fields)}"
            )
        try:
            rows.append({name: conv(field) for (name, conv), field in zip(columns, fields)})
        except ValueError:
            raise ValueError(f"{path}: line {lineno}: malformed row {line!r}") from None
    return rows, notes


def format_sweep_csv(results, basis_kind: str) -> str:
    return _table(
        _SWEEP_COLUMNS,
        ((c.r, c.p, basis_kind, c.mean_error, c.std_error, c.trials) for c in results),
    )


def parse_sweep_csv(text: str) -> list[dict]:
    """The rows of a sweep CSV; raises ValueError with the line."""
    return _parse_table(_SWEEP_COLUMNS, text, "<sweep csv>")[0]


def format_mf_csv(results, regime: str, tags: dict[str, str] | None = None) -> str:
    rows = (
        (res.composition.p_cheap, res.composition.p_exp, res.mean_error, res.std_error, res.trials)
        for res in results
    )
    notes = [f"regime={regime}"] + [f"tag:{k}={v}" for k, v in sorted((tags or {}).items())]
    return _table(_MF_COLUMNS, rows, notes)


def parse_mf_csv(text: str, path: str = "<mf csv>"):
    """Returns (rows, regime, tags); raises ValueError with file and line."""
    rows, notes = _parse_table(_MF_COLUMNS, text, path)
    regime = None
    tags: dict[str, str] = {}
    for note in notes:
        key, _, value = note.partition("=")
        if key == "regime":
            regime = value
        elif key.startswith("tag:"):
            tags[key[4:]] = value
    if regime is None:
        raise ValueError(f"{path}: missing '# regime=' footer")
    return rows, regime, tags


# ---------------------------------------------------------------------------
# Commands: each returns its outputs (path -> text, or a function that writes
# the temp path) and the values it derived
# ---------------------------------------------------------------------------


def _cmd_synth(o):
    ds = synthesize(SpectrumSpec(o.a, o.b, o.n_sv), o.n, o.m, o.seed)
    return {o.out: lambda tmp: save_matrix(ds, tmp, o.format)}, {}


def _cmd_place(o):
    ds = load_matrix(o.data)
    if not ds.X.any():
        # Every column ties; the plan would be sensors 0..p-1 for any p.
        raise ValueError(f"{o.data}: data matrix has zero norm")
    r = o.modes if o.modes is not None else PlacementPolicy().modes_for(o.p, min(ds.n, ds.m))
    # One BLAS thread, as in sweeps, so the sensors do not depend on the
    # machine's core count.
    with kernels.single_blas_thread():
        if o.basis == "svd":
            basis = svd_basis(ds.X, r)
        else:
            basis = randomized_basis(ds.X, r, o.seed)
        plan = plan_with_modes(basis, o.p, o.oversample, o.seed)
    outputs = {
        os.path.join(o.out_dir, "sensors.csv"): _table(_SENSORS_COLUMNS, enumerate(plan.locations))
    }
    return outputs, {"modes": plan.r_used, "method": plan.method}


def _experiment(o, dataset, **settings) -> ExperimentConfig:
    """The sweep/mf protocol from the ``_PROTOCOL`` options plus ``settings``."""
    return ExperimentConfig(
        dataset=dataset,
        basis_kind=o.basis,
        policy=PlacementPolicy(oversample=o.oversample),
        train_fraction=o.train_fraction,
        n_splits=o.splits,
        n_placement_cv=o.cv,
        n_noise=o.noise_draws,
        master_seed=o.seed,
        **settings,
    )


def _cmd_sweep(o):
    config = _experiment(
        o, load_matrix(o.data), level_cheap=o.noise_level, level_exp=o.noise_level
    )
    results = sweep_modes_sensors(config, o.r_grid, o.p_grid, threads=o.threads)
    outputs = {os.path.join(o.out_dir, "sweep.csv"): format_sweep_csv(results, o.basis)}
    if o.svg:
        series = []
        for r in o.r_grid:
            cells = [res for res in results if res.r == r]
            series.append((f"r={r}", [c.p for c in cells], [c.mean_error for c in cells]))
        outputs[os.path.join(o.out_dir, "sweep.svg")] = line_chart(
            series,
            title=f"reconstruction error ({o.basis} basis)",
            x_label="sensors p",
            y_label="fractional error",
        )
    return outputs, {"config-digest": config.digest()}


def _cmd_mf(o):
    config = _experiment(
        o,
        load_matrix(o.data),
        level_cheap=o.level_cheap,
        level_exp=o.level_exp,
        assignment=o.assignment,
        budget=budget_from_endpoints(o.p_cheap_max, o.p_exp_max, o.cost_cheap),
        composition_steps=o.steps,
    )
    results = mf_sweep(config, threads=o.threads)
    regime = classify_composition_sweep([res.mean_error for res in results], o.band)
    tags = {
        opt.flag.removeprefix("tag-"): getattr(o, opt.dest)
        for opt in OPTIONS["mf"]
        if opt.flag.startswith("tag-") and getattr(o, opt.dest) is not None
    }
    outputs = {os.path.join(o.out_dir, "mf.csv"): format_mf_csv(results, regime, tags)}
    if o.svg:
        outputs[os.path.join(o.out_dir, "mf.svg")] = line_chart(
            [("error", list(range(len(results))), [res.mean_error for res in results])],
            title=f"composition sweep ({regime})",
            x_label="all cheap to all expensive",
            y_label="fractional error",
            background=_REGIME_TINTS[regime],
            x_end_labels=("C", "E"),
        )
    return outputs, {"regime": regime, "config-digest": config.digest()}


def _cmd_report(o):
    if not o.inputs:
        raise _UsageError("report needs at least one composition CSV")
    # One row per (b, noise, counts) tag set, in first-seen order.
    regimes: dict[tuple[str, str, str], str] = {}
    for path in o.inputs:
        with open(path, "r", encoding="utf-8") as fh:
            _, regime, tags = parse_mf_csv(fh.read(), path)
        key = (tags.get("b", ""), tags.get("noise", ""), tags.get("counts", ""))
        if regimes.setdefault(key, regime) != regime:
            raise ValueError(
                f"{path}: conflicting regime {regime!r} for tags {key}, "
                f"already recorded {regimes[key]!r}"
            )
    rows = [(*key, regime) for key, regime in regimes.items()]
    outputs = {os.path.join(o.out_dir, "report.csv"): _table(_REPORT_COLUMNS, rows)}
    return outputs, {"inputs": ";".join(o.inputs)}


# ---------------------------------------------------------------------------
# Parser assembly
# ---------------------------------------------------------------------------


_COMMANDS = {
    "synth": ("generate a synthetic dataset", _cmd_synth),
    "place": ("compute sensor locations", _cmd_place),
    "sweep": ("mode/sensor error sweep", _cmd_sweep),
    "mf": ("multi-fidelity composition sweep", _cmd_mf),
    "report": ("aggregate regime table", _cmd_report),
}


def _build_parser() -> _Parser:
    parser = _Parser(prog="sparsesense", description=__doc__)
    parser.add_argument("--version", action="version", version=f"sparsesense {__version__}")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)
    for command, (help_text, func) in _COMMANDS.items():
        p = sub.add_parser(command, help=help_text)
        for opt in OPTIONS[command]:
            # Values stay text here; _resolve converts them like config-file text.
            if opt.conv is _parse_bool:
                p.add_argument(f"--{opt.flag}", dest=opt.dest, action="store_const", const="true")
            else:
                metavar = "{" + ",".join(opt.choices) + "}" if opt.choices else None
                p.add_argument(f"--{opt.flag}", dest=opt.dest, metavar=metavar)
        p.set_defaults(func=func)
    sub.choices["report"].add_argument("inputs", nargs="*")
    return parser


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        cfg = _load_config_file(args.config) if args.config else {}
        _run(_resolve(args, cfg))
        return 0
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 64
    except (MatrixFormatError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 65
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
