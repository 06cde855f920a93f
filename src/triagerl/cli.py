"""Operator-facing command line: the pipeline as composable subcommands.

Every subcommand reads and writes only the files named by its flags, echoes
the resolved config digest for provenance, and never prints a bare stack
trace. Exit codes: 0 success, 2 usage, 3 input validation, 4 internal.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import shlex
import sys
from dataclasses import MISSING, asdict, dataclass, field, fields, replace
from pathlib import Path

import numpy as np

from . import evaluate as evaluate_mod
from . import features as features_mod
from . import fuzz as fuzz_mod
from . import metrics as metrics_mod
from . import warnings as warn_mod
from .env import RewardSpec, check_finite
from .errors import InputError, NonFiniteScores
from .features import extract_features, manifest_export, normalize, validate_vector
from .fuzz import ExternalBackend, RecordedBackend, SimOracleConfig, SimulatedBackend, load_templates
from .trainer import TrainConfig, load_checkpoint, run_episodes, save_checkpoint, train
from .warnings import Dataset, Split

@dataclass
class RunConfig:
    """Resolved run settings: defaults, overlaid by config file, then flags."""

    seed: int = 0
    cluster_radius: int = 10
    backend: str = "simulated"
    recorded_path: str = ""
    external_command: str = "cargo-fuzz-triage"
    fuzz_budget: float = 45.0
    templates_dir: str = ""
    jobs: int = 1
    train: TrainConfig = field(default_factory=TrainConfig)
    reward: RewardSpec = field(default_factory=RewardSpec)
    sim: SimOracleConfig = field(default_factory=SimOracleConfig)

    def __post_init__(self):
        check_finite(self)
        for name in ("seed", "cluster_radius"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0, got {getattr(self, name)}")
        if self.jobs > fuzz_mod.MAX_JOBS:
            raise ValueError(f"jobs must be <= {fuzz_mod.MAX_JOBS}, got {self.jobs}")


# Each section field of RunConfig and its class.
_SECTIONS = {f.name: f.default_factory for f in fields(RunConfig) if f.default is MISSING}
# Each config key (`name` or `section.name`) and the type of its value.
CONFIG_KEYS: dict[str, type] = {
    **{f.name: type(f.default) for f in fields(RunConfig) if f.name not in _SECTIONS},
    **{f"{s}.{f.name}": type(f.default) for s, cls in _SECTIONS.items() for f in fields(cls)},
}


def parse_config_file(data: bytes, source: str) -> dict[str, object]:
    """Flat `key = value` lines of a line file, each value converted to its
    key's type; '#' starts a comment.

    A line that is not `key = value`, names no config key, or holds a value
    of the wrong type raises InputError naming `source` and the line.
    """
    out: dict[str, object] = {}
    for n, raw in warn_mod.text_lines(data):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, eq, value = (part.strip() for part in line.partition("="))
        if not eq:
            raise InputError(f"{source} line {n}: expected 'key = value', got {raw!r}")
        if key not in CONFIG_KEYS:
            raise InputError(f"{source} line {n}: unknown config key {key!r}")
        try:
            out[key] = CONFIG_KEYS[key](value)
        except ValueError:
            raise InputError(f"{source} line {n}: {key}: expected "
                             f"{CONFIG_KEYS[key].__name__}, got {value!r}") from None
    return out


def build_run_config(values: dict[str, object], source: str) -> RunConfig:
    """The run config from typed `values` keyed as in CONFIG_KEYS; keys not
    given keep their defaults. `train.seed` and `sim.seed` follow `seed`
    unless they are given. An out-of-range or non-finite value raises
    InputError naming `source` and the key."""
    kwargs: dict[str, dict] = {"": {}, **{s: {} for s in _SECTIONS}}
    for key, value in values.items():
        section, _, name = key.rpartition(".")
        kwargs[section][name] = value
    for section in ("train", "sim"):
        kwargs[section].setdefault("seed", kwargs[""].get("seed", RunConfig.seed))

    def build(cls, section: str):
        try:
            return cls(**kwargs[section])
        except ValueError as exc:
            raise InputError(f"{source}: {section + '.' if section else ''}{exc}") from None

    # The top level first: a bad `seed` is named as given, not as a section seed following it.
    top = build(RunConfig, "")
    return replace(top, **{section: build(cls, section) for section, cls in _SECTIONS.items()})


def config_digest(cfg: RunConfig) -> str:
    blob = json.dumps(asdict(cfg), sort_keys=True)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:16]


def _load_config(args) -> RunConfig:
    values = {}
    if args.config:
        values = _load(parse_config_file, args.config)
    # A flag whose dest is a config key overrides that key when it is given.
    values.update((k, v) for k, v in vars(args).items() if k in CONFIG_KEYS and v is not None)
    cfg = build_run_config(values, args.config or "config")
    print(f"config-digest {config_digest(cfg)}")
    return cfg


def _load(reader, path: str):
    """`reader` applied to the input file at `path`; its errors name the file."""
    return reader(warn_mod.read_input(path), source=path)


def _play(checkpoint: str, play, *args, **kwargs):
    """`play(*args, **kwargs)` with the policy from `checkpoint`, which is blamed
    for scores that are not finite; numpy's overflow warnings would repeat it."""
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            return play(*args, **kwargs)
    except NonFiniteScores as exc:
        raise NonFiniteScores(f"{checkpoint}: {exc}") from None


def _write(path: str, data: bytes) -> None:
    p = Path(path)
    try:
        p.parent.mkdir(parents=True, exist_ok=True)
        p.write_bytes(data)
    except OSError as exc:
        raise InputError(f"output file cannot be written: {path}: {exc.strerror}") from None
    print(f"wrote {path}")


def _make_backend(cfg: RunConfig):
    if cfg.backend == "simulated":
        return SimulatedBackend(cfg.sim)
    if cfg.backend == "recorded":
        if not cfg.recorded_path:
            raise InputError("backend 'recorded' needs recorded_path (or --recorded)")
        return RecordedBackend(_load(fuzz_mod.read_recorded_outcomes, cfg.recorded_path))
    if cfg.backend == "external":
        directory = Path(cfg.templates_dir or fuzz_mod.DEFAULT_TEMPLATE_DIR)
        if not directory.is_dir():  # else every harness would fail to generate
            raise InputError(f"templates_dir is not a directory: {directory}")
        try:
            command = shlex.split(cfg.external_command)
        except ValueError as exc:  # an unbalanced quote
            raise InputError(f"external_command cannot be split: {exc}") from None
        if not command:
            raise InputError("external_command is empty")
        return ExternalBackend(command, templates=load_templates(directory), budget=cfg.fuzz_budget)
    raise InputError(f"unknown backend {cfg.backend!r} (simulated/recorded/external)")


def _labeled_store(args) -> list[warn_mod.WarningRecord]:
    records = _load(warn_mod.read_warning_store, args.warnings)
    warn_mod.apply_labels(records, _load(warn_mod.read_label_sidecar, args.labels))
    return records


def _load_dataset(args) -> tuple[Dataset, features_mod.FeatureTable]:
    dataset = Dataset(_labeled_store(args), _load(warn_mod.read_split_file, args.splits))
    return dataset, _load(features_mod.read_feature_sidecar, args.features)


def _scored_split(args) -> tuple:
    """The checkpoint, the records of `--split` and the feature table, each
    input read before the split is checked for records."""
    checkpoint = _load(load_checkpoint, args.checkpoint)
    dataset, table = _load_dataset(args)
    records = dataset.split_records(Split(args.split))
    if not records:
        raise InputError(f"split {args.split!r} has no records")
    return checkpoint, records, table


# ---------------------------------------------------------------------------
# Subcommands.
# ---------------------------------------------------------------------------


def cmd_ingest(args, cfg: RunConfig) -> int:
    records = _load(warn_mod.parse_report, args.report)
    _write(args.out, warn_mod.write_warning_store(records))
    print(f"ingested {len(records)} warnings")
    return 0


def cmd_split(args, cfg: RunConfig) -> int:
    labeled = [r for r in _labeled_store(args) if r.label is not None]
    assignment = warn_mod.stratified_split(labeled, args.ratios, cfg.seed)
    _write(args.out, warn_mod.write_split_file(assignment, cfg.seed, args.ratios))
    return 0


def cmd_featurize(args, cfg: RunConfig) -> int:
    records = _load(warn_mod.read_warning_store, args.warnings)
    metadata = _load(features_mod.read_package_metadata, args.meta) if args.meta else {}
    if args.mode == "precomputed":
        if not args.sidecar:
            print("usage error: --mode precomputed needs --sidecar", file=sys.stderr)
            return 2
        table = _load(features_mod.read_feature_sidecar, args.sidecar)
        missing = [r.id for r in records if r.id not in table.row]
        if missing:
            raise InputError(f"sidecar has no vector for warning {missing[0]}")
        row, matrix = table.row, table.matrix
    else:
        sizes = warn_mod.cluster_sizes(records, cfg.cluster_radius)
        matrix = extract_features(records, metadata, sizes, args.warnings)
        row = {}  # the sidecar states one row per id: its first warning's
        for i, r in enumerate(records):
            first = row.setdefault(r.id, i)
            if first != i and not np.array_equal(matrix[first], matrix[i]):
                raise InputError(f"{args.warnings}: warnings with id {r.id} differ "
                                 "in level, op_type or code_snippet")
    _write(args.out, features_mod.write_feature_sidecar(
        [r.id for r in records], matrix[[row[r.id] for r in records]]))
    if args.export_manifest:
        _write(args.export_manifest, manifest_export().encode("utf-8"))
    return 0


def cmd_train(args, cfg: RunConfig) -> int:
    dataset, table = _load_dataset(args)
    backend = _make_backend(cfg)
    log_lines: list[str] = []
    checkpoint = train(dataset, table, cfg.train, backend, cfg.reward, log_lines=log_lines)
    _write(args.out, save_checkpoint(checkpoint))
    if args.log:
        _write(args.log, warn_mod.text_file(log_lines))
    best = max((h["val_f1"] for h in checkpoint.history), default=0.0)
    print(f"trained {len(checkpoint.history)} epochs, best val F1 {best:.4f}")
    return 0


def cmd_evaluate(args, cfg: RunConfig) -> int:
    checkpoint, records, table = _scored_split(args)
    backend = _make_backend(cfg)
    report, predictions = _play(args.checkpoint, evaluate_mod.evaluate_checkpoint, checkpoint,
                                records, table, backend, mask_fuzz=args.mask_fuzz, jobs=cfg.jobs)
    _write(args.out, metrics_mod.write_report(report))
    if args.verdicts:
        _write(args.verdicts, metrics_mod.write_verdicts(predictions))
    return 0


def cmd_triage(args, cfg: RunConfig) -> int:
    records = _load(warn_mod.parse_report, args.report)
    checkpoint = _load(load_checkpoint, args.checkpoint)
    metadata = _load(features_mod.read_package_metadata, args.meta) if args.meta else {}
    raw = extract_features(records, metadata, warn_mod.cluster_sizes(records, cfg.cluster_radius),
                           args.report)
    backend = _make_backend(cfg)
    feats = normalize(validate_vector(raw, lambda i: f"warning {records[i].id}"),
                      checkpoint.normalizer)
    played = _play(args.checkpoint, run_episodes, checkpoint.params, feats, records, backend,
                   mask_fuzz=args.mask_fuzz, jobs=cfg.jobs)
    verdicts = metrics_mod.prediction_records([r.id for r in records], played.called, played.score,
                                              played.outcome)
    _write(args.out, metrics_mod.write_verdicts(verdicts))
    return 0


def cmd_fuzz_validate(args, cfg: RunConfig) -> int:
    records = _load(warn_mod.read_warning_store, args.warnings)
    labels = _load(warn_mod.read_label_sidecar, args.labels) if args.labels else {}
    by_id = {r.id: r for r in records}
    ids = list(dict.fromkeys(args.ids.split(",") if args.ids else by_id))  # each id once
    missing = [w for w in ids if w not in by_id]
    if missing:
        raise InputError(f"warnings not in store: {', '.join(missing)}")
    backend = _make_backend(cfg)
    results = fuzz_mod.run_many(lambda wid: backend.run(by_id[wid], labels.get(wid)), ids, cfg.jobs)
    _write(args.out, fuzz_mod.write_recorded_outcomes(dict(zip(ids, results))))
    return 0


def cmd_importance(args, cfg: RunConfig) -> int:
    checkpoint, records, table = _scored_split(args)
    results = _play(args.checkpoint, evaluate_mod.permutation_importance, checkpoint, records,
                    table, repeats=args.repeats, seed=cfg.seed)
    _write(args.out, evaluate_mod.write_importance(results))
    return 0


def cmd_report(args, cfg: RunConfig) -> int:
    predictions = _load(metrics_mod.read_verdicts, args.verdicts)
    labels = _load(warn_mod.read_label_sidecar, args.labels)
    report = metrics_mod.compute_metrics(predictions, labels)
    _write(args.out, metrics_mod.write_report(report))
    return 0


# ---------------------------------------------------------------------------
# Parser.
# ---------------------------------------------------------------------------


def _ratios(text: str) -> tuple[float, ...]:
    return tuple(float(x) for x in text.split(","))


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _add_common(p: argparse.ArgumentParser) -> None:
    """The common flags; each dest is the config key the flag overrides."""
    p.add_argument("--config", help="flat key=value config file")
    p.add_argument("--seed", type=int, help="overrides config seed")
    p.add_argument("--backend", choices=["simulated", "recorded", "external"])
    p.add_argument("--recorded", dest="recorded_path",
                   help="recorded outcomes file for the recorded backend")
    p.add_argument("--templates", dest="templates_dir", help="harness template directory")
    p.add_argument("--jobs", type=int, help="cap on concurrent fuzz-backend calls")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="triagerl",
        description="Learned triage of static memory-safety warnings with budgeted fuzzing.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name: str, func, summary: str, *required: str) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=summary)
        p.set_defaults(func=func)
        for flag in (*required, "--out"):
            p.add_argument(flag, required=True)
        return p

    dataset = ("--warnings", "--labels", "--splits", "--features")
    command("ingest", cmd_ingest, "parse a report file into the warning store", "--report")

    p = command("split", cmd_split, "stratified train/val/test assignment", "--warnings",
                "--labels")
    p.add_argument("--ratios", type=_ratios, default="0.70,0.15,0.15")

    p = command("featurize", cmd_featurize, "compute or validate feature vectors", "--warnings")
    p.add_argument("--meta", help="package metadata JSON")
    p.add_argument("--mode", choices=["heuristic", "precomputed"], default="heuristic")
    p.add_argument("--sidecar", help="precomputed feature sidecar")
    p.add_argument("--export-manifest", help="also write the manifest audit listing")

    p = command("train", cmd_train, "train a policy checkpoint", *dataset)
    p.add_argument("--log", help="training log file (one line per epoch)")

    p = command("evaluate", cmd_evaluate, "score a checkpoint on a split", "--checkpoint", *dataset)
    p.add_argument("--split", default="test", choices=[s.value for s in Split])
    p.add_argument("--mask-fuzz", action="store_true")
    p.add_argument("--verdicts", help="also persist per-warning verdicts")

    p = command("triage", cmd_triage, "classify a raw report with a checkpoint", "--report",
                "--checkpoint")
    p.add_argument("--meta", help="package metadata JSON")
    p.add_argument("--mask-fuzz", action="store_true")

    p = command("fuzz-validate", cmd_fuzz_validate, "run the fuzz backend on listed warnings",
                "--warnings")
    p.add_argument("--ids", help="comma-separated warning ids (default: all)")
    p.add_argument("--labels", help="label sidecar (needed by the simulated backend)")

    p = command("importance", cmd_importance, "permutation feature importance", "--checkpoint",
                *dataset)
    p.add_argument("--split", default="test", choices=[s.value for s in Split])
    p.add_argument("--repeats", type=_positive_int, default=3)

    command("report", cmd_report, "recompute metrics from persisted verdicts", "--verdicts",
            "--labels")

    for p in sub.choices.values():
        _add_common(p)
    return parser


def run_cli(argv: list[str]) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else 0
    # A run frees its objects by reference count; its only cyclic garbage is
    # the parser above, so the cyclic collector would only spend time.
    collecting = gc.isenabled()
    gc.disable()
    try:
        return args.func(args, _load_config(args))
    except InputError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 3
    except Exception as exc:  # noqa: BLE001 - contract: no bare stack traces
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 4
    finally:
        if collecting:
            gc.enable()


def main() -> int:
    return run_cli(sys.argv[1:])


if __name__ == "__main__":
    sys.exit(main())
