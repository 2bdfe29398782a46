"""Command-line front end.

Subcommands: synth, place, sweep, mf, report. Shared flags: --seed,
--threads, --out-dir, --config. Option precedence is flags > config file >
environment (SPARSESENSE_SEED for the master seed) > built-in defaults; the
config file is a flat key=value text file whose keys mirror the long flag
names.

Exit codes: 0 success, 64 usage error, 65 bad or inconsistent input data,
2 I/O failure. All outputs are written atomically (temp file + rename) and
every run leaves a manifest listing its arguments and output digests.
"""

from __future__ import annotations

import argparse
import os
import sys
import tempfile
from datetime import datetime, timezone
from hashlib import sha256

from . import __version__, kernels
from .basis import randomized_basis, svd_basis
from .dataset import (
    Dataset,
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
from .multifidelity import budget_from_endpoints
from .placement import PlacementPolicy, plan_with_modes
from .svg import line_chart

_REGIME_TINTS = {
    "cheap": "#f6c9c9",
    "expensive": "#c9d7f6",
    "inconclusive": "#ffffff",
    "mixed-best": "#e3d0f2",
}

_TRUE_WORDS = ("1", "true", "yes", "on")


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


# ---------------------------------------------------------------------------
# Option resolution
# ---------------------------------------------------------------------------


def _load_config_file(path: str) -> dict[str, str]:
    out: dict[str, str] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValueError(f"{path}: line {lineno}: expected key=value")
            key, _, value = line.partition("=")
            out[key.strip()] = value.strip()
    return out


def _parse_bool(text: str) -> bool:
    return text.strip().lower() in _TRUE_WORDS


def _parse_grid(text: str) -> list[int]:
    try:
        values = [int(part) for part in text.split(",") if part.strip()]
    except ValueError:
        raise _UsageError(f"grid must be a comma list of integers, got {text!r}")
    if not values:
        raise _UsageError(f"empty grid {text!r}")
    return values


def _get(args, cfg, key, default=None, conv=None, env=None, required=False):
    """Resolve one option: flag, then config file, then environment, then default."""
    value = getattr(args, key, None)
    if value is None:
        flag = key.replace("_", "-")
        if flag in cfg:
            value = cfg[flag]
        elif env is not None and env in os.environ:
            value = os.environ[env]
        else:
            value = default
    if value is None:
        if required:
            raise _UsageError(f"missing required option --{key.replace('_', '-')}")
        return None
    if conv is not None and isinstance(value, str):
        try:
            value = conv(value)
        except ValueError:
            raise _UsageError(f"bad value for --{key.replace('_', '-')}: {value!r}")
    return value


def _seed_of(args, cfg) -> int:
    return _get(args, cfg, "seed", default=0, conv=int, env="SPARSESENSE_SEED")


def _threads_of(args, cfg) -> int:
    threads = _get(args, cfg, "threads", default=1, conv=int)
    if threads < 1:
        raise _UsageError(f"--threads must be >= 1, got {threads}")
    return threads


# ---------------------------------------------------------------------------
# Output helpers
# ---------------------------------------------------------------------------


def _write_atomic(path: str, payload) -> None:
    data = payload.encode("utf-8") if isinstance(payload, str) else payload
    target = os.path.abspath(path)
    directory = os.path.dirname(target)
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".sparsesense-")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
        os.chmod(tmp, 0o644)
        os.replace(tmp, target)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _save_matrix_atomic(ds: Dataset, path: str, fmt: str) -> None:
    target = os.path.abspath(path)
    directory = os.path.dirname(target)
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".sparsesense-")
    os.close(fd)
    try:
        save_matrix(ds, tmp, fmt)
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


def _write_manifest(
    path, command, seed, arg_items, outputs, started, finished, run_items=()
):
    lines = [
        f"tool=sparsesense {__version__}",
        f"command={command}",
        f"master-seed={seed}",
        f"started={started}",
        f"finished={finished}",
    ]
    lines += [f"{key}={value}" for key, value in run_items]
    lines += [f"arg.{key}={value}" for key, value in sorted(arg_items)]
    lines += [
        f"file.{os.path.basename(p)}=sha256:{_digest_file(p)}" for p in sorted(outputs)
    ]
    _write_atomic(path, "\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# Results CSV formats
# ---------------------------------------------------------------------------


def format_sweep_csv(results, basis_kind: str) -> str:
    lines = ["r,p,basis,mean_error,std_error,trials"]
    for res in results:
        lines.append(
            f"{res.r},{res.p},{basis_kind},"
            f"{res.mean_error:.17g},{res.std_error:.17g},{res.trials}"
        )
    return "\n".join(lines) + "\n"


def parse_sweep_csv(text: str) -> list[dict]:
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines or lines[0] != "r,p,basis,mean_error,std_error,trials":
        raise ValueError("missing sweep CSV header")
    out = []
    for ln in lines[1:]:
        r, p, basis_kind, mean, std, trials = ln.split(",")
        out.append(
            {
                "r": int(r),
                "p": int(p),
                "basis": basis_kind,
                "mean_error": float(mean),
                "std_error": float(std),
                "trials": int(trials),
            }
        )
    return out


def format_mf_csv(results, regime: str, tags: dict[str, str] | None = None) -> str:
    lines = ["p_cheap,p_exp,mean_error,std_error,trials"]
    for res in results:
        comp = res.composition
        lines.append(
            f"{comp.p_cheap},{comp.p_exp},"
            f"{res.mean_error:.17g},{res.std_error:.17g},{res.trials}"
        )
    lines.append(f"# regime={regime}")
    for key, value in sorted((tags or {}).items()):
        lines.append(f"# tag:{key}={value}")
    return "\n".join(lines) + "\n"


def parse_mf_csv(text: str, path: str = "<mf csv>"):
    """Returns (rows, regime, tags); raises ValueError with file and line."""
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines or lines[0] != "p_cheap,p_exp,mean_error,std_error,trials":
        raise ValueError(f"{path}: line 1: missing composition CSV header")
    rows = []
    regime = None
    tags: dict[str, str] = {}
    for lineno, ln in enumerate(lines[1:], start=2):
        if ln.startswith("#"):
            body = ln.lstrip("#").strip()
            if body.startswith("regime="):
                regime = body.partition("=")[2]
            elif body.startswith("tag:"):
                key, _, value = body[4:].partition("=")
                tags[key] = value
            continue
        parts = ln.split(",")
        if len(parts) != 5:
            raise ValueError(f"{path}: line {lineno}: expected 5 fields, found {len(parts)}")
        try:
            rows.append(
                {
                    "p_cheap": int(parts[0]),
                    "p_exp": int(parts[1]),
                    "mean_error": float(parts[2]),
                    "std_error": float(parts[3]),
                    "trials": int(parts[4]),
                }
            )
        except ValueError:
            raise ValueError(f"{path}: line {lineno}: malformed row {ln!r}") from None
    if regime is None:
        raise ValueError(f"{path}: missing '# regime=' footer")
    return rows, regime, tags


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def _cmd_synth(args, cfg) -> int:
    amplitude = _get(args, cfg, "a", conv=float, required=True)
    exponent = _get(args, cfg, "b", conv=float, required=True)
    n = _get(args, cfg, "n", conv=int, required=True)
    m = _get(args, cfg, "m", conv=int, required=True)
    n_sv = _get(args, cfg, "n_sv", conv=int, default=min(n, m))
    fmt = _get(args, cfg, "format", default="binary")
    out = _get(args, cfg, "out", required=True)
    seed = _seed_of(args, cfg)

    started = _utcnow()
    ds = synthesize(SpectrumSpec(amplitude, exponent, n_sv), n, m, seed)
    _save_matrix_atomic(ds, out, fmt)
    meta = "\n".join(
        [
            "kind=synthetic",
            f"a={amplitude:.17g}",
            f"b={exponent:.17g}",
            f"n-sv={n_sv}",
            f"n={n}",
            f"m={m}",
            f"seed={seed}",
            f"format={fmt}",
        ]
    )
    _write_atomic(out + ".meta", meta + "\n")
    finished = _utcnow()
    _write_manifest(
        out + ".manifest",
        "synth",
        seed,
        [
            ("a", f"{amplitude:.17g}"),
            ("b", f"{exponent:.17g}"),
            ("n", n),
            ("m", m),
            ("n-sv", n_sv),
            ("format", fmt),
            ("out", out),
        ],
        [out, out + ".meta"],
        started,
        finished,
    )
    return 0


def _cmd_place(args, cfg) -> int:
    data = _get(args, cfg, "data", required=True)
    p = _get(args, cfg, "p", conv=int, required=True)
    basis_kind = _get(args, cfg, "basis", default="svd")
    modes = _get(args, cfg, "modes", conv=int)
    oversample = _get(args, cfg, "oversample", default="random")
    out_dir = _get(args, cfg, "out_dir", default=".")
    seed = _seed_of(args, cfg)

    started = _utcnow()
    ds = load_matrix(data)
    policy = PlacementPolicy(oversample=oversample)
    cap = min(ds.n, ds.m)
    r = modes if modes is not None else min(policy.modes_for(p), cap)
    # One BLAS thread, as in sweeps, so the sensors do not depend on the
    # machine's core count.
    with kernels.single_blas_thread():
        if basis_kind == "svd":
            basis = svd_basis(ds.X, r)
        elif basis_kind == "randomized":
            basis = randomized_basis(ds.X, r, seed)
        else:
            raise _UsageError(f"unknown basis {basis_kind!r}")
        plan = plan_with_modes(basis, p, oversample, seed)

    lines = ["rank,location"]
    lines += [f"{i},{loc}" for i, loc in enumerate(plan.locations)]
    out_csv = os.path.join(out_dir, "sensors.csv")
    _write_atomic(out_csv, "\n".join(lines) + "\n")
    finished = _utcnow()
    _write_manifest(
        os.path.join(out_dir, "manifest.txt"),
        "place",
        seed,
        [
            ("data", data),
            ("p", p),
            ("basis", basis_kind),
            ("modes", plan.r_used),
            ("method", plan.method),
            ("oversample", oversample),
        ],
        [out_csv],
        started,
        finished,
    )
    return 0


def _experiment_counts(args, cfg):
    return (
        _get(args, cfg, "splits", conv=int, default=20),
        _get(args, cfg, "cv", conv=int, default=20),
        _get(args, cfg, "noise_draws", conv=int, default=10),
    )


def _cmd_sweep(args, cfg) -> int:
    data = _get(args, cfg, "data", required=True)
    r_grid = _parse_grid(_get(args, cfg, "r_grid", required=True))
    p_grid = _parse_grid(_get(args, cfg, "p_grid", required=True))
    basis_kind = _get(args, cfg, "basis", default="svd")
    noise_level = _get(args, cfg, "noise_level", conv=float, default=0.02)
    oversample = _get(args, cfg, "oversample", default="random")
    train_fraction = _get(args, cfg, "train_fraction", conv=float, default=0.8)
    n_splits, n_cv, n_noise = _experiment_counts(args, cfg)
    want_svg = _get(args, cfg, "svg", conv=_parse_bool, default=False)
    out_dir = _get(args, cfg, "out_dir", default=".")
    threads = _threads_of(args, cfg)
    seed = _seed_of(args, cfg)

    started = _utcnow()
    ds = load_matrix(data)
    config = ExperimentConfig(
        dataset=ds,
        basis_kind=basis_kind,
        policy=PlacementPolicy(oversample=oversample),
        level_cheap=noise_level,
        level_exp=noise_level,
        train_fraction=train_fraction,
        n_splits=n_splits,
        n_placement_cv=n_cv,
        n_noise=n_noise,
        master_seed=seed,
    )
    results = sweep_modes_sensors(config, r_grid, p_grid, threads=threads)

    out_csv = os.path.join(out_dir, "sweep.csv")
    _write_atomic(out_csv, format_sweep_csv(results, basis_kind))
    outputs = [out_csv]
    if want_svg:
        series = []
        for r in r_grid:
            cells = [res for res in results if res.r == r]
            series.append((f"r={r}", [c.p for c in cells], [c.mean_error for c in cells]))
        out_svg = os.path.join(out_dir, "sweep.svg")
        _write_atomic(
            out_svg,
            line_chart(
                series,
                title=f"reconstruction error ({basis_kind} basis)",
                x_label="sensors p",
                y_label="fractional error",
            ),
        )
        outputs.append(out_svg)
    finished = _utcnow()
    _write_manifest(
        os.path.join(out_dir, "manifest.txt"),
        "sweep",
        seed,
        [
            ("data", data),
            ("r-grid", ",".join(map(str, r_grid))),
            ("p-grid", ",".join(map(str, p_grid))),
            ("basis", basis_kind),
            ("noise-level", f"{noise_level:.17g}"),
            ("oversample", oversample),
            ("train-fraction", f"{train_fraction:.17g}"),
            ("splits", n_splits),
            ("cv", n_cv),
            ("noise-draws", n_noise),
            ("config-digest", config.digest()),
        ],
        outputs,
        started,
        finished,
        kernels.blas_record().items(),
    )
    return 0


def _cmd_mf(args, cfg) -> int:
    data = _get(args, cfg, "data", required=True)
    p_cheap_max = _get(args, cfg, "p_cheap_max", conv=int, required=True)
    p_exp_max = _get(args, cfg, "p_exp_max", conv=int, required=True)
    cost_cheap = _get(args, cfg, "cost_cheap", conv=float, default=1.0)
    level_cheap = _get(args, cfg, "level_cheap", conv=float, default=0.02)
    level_exp = _get(args, cfg, "level_exp", conv=float, default=0.01)
    steps = _get(args, cfg, "steps", conv=int, default=11)
    assignment = _get(args, cfg, "assignment", default="exp-first")
    band = _get(args, cfg, "band", conv=float, default=0.02)
    basis_kind = _get(args, cfg, "basis", default="svd")
    oversample = _get(args, cfg, "oversample", default="random")
    train_fraction = _get(args, cfg, "train_fraction", conv=float, default=0.8)
    n_splits, n_cv, n_noise = _experiment_counts(args, cfg)
    want_svg = _get(args, cfg, "svg", conv=_parse_bool, default=False)
    out_dir = _get(args, cfg, "out_dir", default=".")
    threads = _threads_of(args, cfg)
    seed = _seed_of(args, cfg)
    tags = {}
    for tag_key, cli_key in (("b", "tag_b"), ("noise", "tag_noise"), ("counts", "tag_counts")):
        value = _get(args, cfg, cli_key)
        if value is not None:
            tags[tag_key] = str(value)

    started = _utcnow()
    ds = load_matrix(data)
    budget = budget_from_endpoints(p_cheap_max, p_exp_max, cost_cheap)
    config = ExperimentConfig(
        dataset=ds,
        basis_kind=basis_kind,
        policy=PlacementPolicy(oversample=oversample),
        level_cheap=level_cheap,
        level_exp=level_exp,
        assignment=assignment,
        budget=budget,
        composition_steps=steps,
        train_fraction=train_fraction,
        n_splits=n_splits,
        n_placement_cv=n_cv,
        n_noise=n_noise,
        master_seed=seed,
    )
    results = mf_sweep(config, threads=threads)
    regime = classify_composition_sweep([res.mean_error for res in results], band)

    out_csv = os.path.join(out_dir, "mf.csv")
    _write_atomic(out_csv, format_mf_csv(results, regime, tags))
    outputs = [out_csv]
    if want_svg:
        xs = list(range(len(results)))
        ys = [res.mean_error for res in results]
        out_svg = os.path.join(out_dir, "mf.svg")
        _write_atomic(
            out_svg,
            line_chart(
                [("error", xs, ys)],
                title=f"composition sweep ({regime})",
                x_label="all cheap to all expensive",
                y_label="fractional error",
                background=_REGIME_TINTS[regime],
                x_end_labels=("C", "E"),
            ),
        )
        outputs.append(out_svg)
    finished = _utcnow()
    _write_manifest(
        os.path.join(out_dir, "manifest.txt"),
        "mf",
        seed,
        [
            ("data", data),
            ("p-cheap-max", p_cheap_max),
            ("p-exp-max", p_exp_max),
            ("cost-cheap", f"{cost_cheap:.17g}"),
            ("level-cheap", f"{level_cheap:.17g}"),
            ("level-exp", f"{level_exp:.17g}"),
            ("steps", steps),
            ("assignment", assignment),
            ("band", f"{band:.17g}"),
            ("regime", regime),
            ("splits", n_splits),
            ("cv", n_cv),
            ("noise-draws", n_noise),
            ("config-digest", config.digest()),
        ],
        outputs,
        started,
        finished,
        kernels.blas_record().items(),
    )
    return 0


def _cmd_report(args, cfg) -> int:
    inputs = list(args.inputs or [])
    if not inputs:
        raise _UsageError("report needs at least one composition CSV")
    out_dir = _get(args, cfg, "out_dir", default=".")
    seed = _seed_of(args, cfg)

    started = _utcnow()
    table: dict[tuple[str, str, str], str] = {}
    order: list[tuple[str, str, str]] = []
    for path in inputs:
        with open(path, "r", encoding="utf-8") as fh:
            _, regime, tags = parse_mf_csv(fh.read(), path)
        key = (tags.get("b", ""), tags.get("noise", ""), tags.get("counts", ""))
        if key in table:
            if table[key] != regime:
                raise ValueError(
                    f"{path}: conflicting regime {regime!r} for tags {key}, "
                    f"already recorded {table[key]!r}"
                )
            continue
        table[key] = regime
        order.append(key)

    lines = ["b,noise_regime,count_regime,regime"]
    lines += [f"{b},{noise},{counts},{table[(b, noise, counts)]}" for b, noise, counts in order]
    out_csv = os.path.join(out_dir, "report.csv")
    _write_atomic(out_csv, "\n".join(lines) + "\n")
    finished = _utcnow()
    _write_manifest(
        os.path.join(out_dir, "manifest.txt"),
        "report",
        seed,
        [("inputs", ";".join(inputs))],
        [out_csv],
        started,
        finished,
    )
    return 0


# ---------------------------------------------------------------------------
# Parser assembly
# ---------------------------------------------------------------------------


def _build_parser() -> _Parser:
    shared = _Parser(add_help=False)
    shared.add_argument("--seed", type=int)
    shared.add_argument("--threads", type=int)
    shared.add_argument("--out-dir", dest="out_dir")
    shared.add_argument("--config")

    parser = _Parser(prog="sparsesense", description=__doc__)
    parser.add_argument("--version", action="version", version=f"sparsesense {__version__}")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p_synth = sub.add_parser("synth", parents=[shared], help="generate a synthetic dataset")
    p_synth.add_argument("--a", type=float)
    p_synth.add_argument("--b", type=float)
    p_synth.add_argument("--n", type=int)
    p_synth.add_argument("--m", type=int)
    p_synth.add_argument("--n-sv", dest="n_sv", type=int)
    p_synth.add_argument("--format", choices=("binary", "csv"))
    p_synth.add_argument("--out")
    p_synth.set_defaults(func=_cmd_synth)

    p_place = sub.add_parser("place", parents=[shared], help="compute sensor locations")
    p_place.add_argument("--data")
    p_place.add_argument("--p", type=int)
    p_place.add_argument("--basis", choices=("svd", "randomized"))
    p_place.add_argument("--modes", type=int)
    p_place.add_argument("--oversample", choices=("random", "odeim-e"))
    p_place.set_defaults(func=_cmd_place)

    p_sweep = sub.add_parser("sweep", parents=[shared], help="mode/sensor error sweep")
    p_sweep.add_argument("--data")
    p_sweep.add_argument("--r-grid", dest="r_grid")
    p_sweep.add_argument("--p-grid", dest="p_grid")
    p_sweep.add_argument("--basis", choices=("svd", "randomized"))
    p_sweep.add_argument("--noise-level", dest="noise_level", type=float)
    p_sweep.add_argument("--oversample", choices=("random", "odeim-e"))
    p_sweep.add_argument("--train-fraction", dest="train_fraction", type=float)
    p_sweep.add_argument("--splits", type=int)
    p_sweep.add_argument("--cv", type=int)
    p_sweep.add_argument("--noise-draws", dest="noise_draws", type=int)
    p_sweep.add_argument("--svg", action="store_const", const=True)
    p_sweep.set_defaults(func=_cmd_sweep)

    p_mf = sub.add_parser("mf", parents=[shared], help="multi-fidelity composition sweep")
    p_mf.add_argument("--data")
    p_mf.add_argument("--p-cheap-max", dest="p_cheap_max", type=int)
    p_mf.add_argument("--p-exp-max", dest="p_exp_max", type=int)
    p_mf.add_argument("--cost-cheap", dest="cost_cheap", type=float)
    p_mf.add_argument("--level-cheap", dest="level_cheap", type=float)
    p_mf.add_argument("--level-exp", dest="level_exp", type=float)
    p_mf.add_argument("--steps", type=int)
    p_mf.add_argument("--assignment", choices=("exp-first", "exp-last"))
    p_mf.add_argument("--band", type=float)
    p_mf.add_argument("--basis", choices=("svd", "randomized"))
    p_mf.add_argument("--oversample", choices=("random", "odeim-e"))
    p_mf.add_argument("--train-fraction", dest="train_fraction", type=float)
    p_mf.add_argument("--splits", type=int)
    p_mf.add_argument("--cv", type=int)
    p_mf.add_argument("--noise-draws", dest="noise_draws", type=int)
    p_mf.add_argument("--svg", action="store_const", const=True)
    p_mf.add_argument("--tag-b", dest="tag_b")
    p_mf.add_argument("--tag-noise", dest="tag_noise")
    p_mf.add_argument("--tag-counts", dest="tag_counts")
    p_mf.set_defaults(func=_cmd_mf)

    p_report = sub.add_parser("report", parents=[shared], help="aggregate regime table")
    p_report.add_argument("inputs", nargs="*")
    p_report.set_defaults(func=_cmd_report)

    return parser


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        cfg = _load_config_file(args.config) if args.config else {}
        return args.func(args, cfg)
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
