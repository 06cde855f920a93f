"""Operator-facing command line: the pipeline as composable subcommands.

Every subcommand reads and writes only the files named by its flags, echoes
the resolved config digest for provenance, and never prints a bare stack
trace. Exit codes: 0 success, 2 usage, 3 input validation, 4 internal.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path

from . import evaluate as evaluate_mod
from . import features as features_mod
from . import fuzz as fuzz_mod
from . import metrics as metrics_mod
from . import warnings as warn_mod
from .env import RewardSpec, check_finite
from .errors import (
    EmptySplit,
    FeatureValidationError,
    InputError,
    MissingRecording,
    SchemaError,
    TriageError,
)
from .features import extract_features, manifest_export, normalize, package_of
from .fuzz import ExternalBackend, RecordedBackend, SimOracleConfig, SimulatedBackend, load_templates
from .trainer import TrainConfig, feature_matrix, load_checkpoint, run_episodes, save_checkpoint, train
from .warnings import Dataset, Split

_SECTIONS = {"train": TrainConfig, "reward": RewardSpec, "sim": SimOracleConfig}


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
        if self.cluster_radius < 0:
            raise ValueError(f"cluster_radius must be >= 0, got {self.cluster_radius}")


# Each config key (`name` or `section.name`) and the type of its value.
CONFIG_KEYS: dict[str, type] = {
    **{f.name: type(f.default) for f in fields(RunConfig) if f.name not in _SECTIONS},
    **{f"{s}.{f.name}": type(f.default) for s, cls in _SECTIONS.items() for f in fields(cls)},
}


def parse_config_file(text: str, source: str = "config") -> dict[str, object]:
    """Flat `key = value` lines, each value converted to its key's type;
    '#' starts a comment; blank lines ignored.

    A line that is not `key = value`, names no config key, or holds a value
    of the wrong type raises SchemaError naming `source` and the line.
    """
    out: dict[str, object] = {}
    for n, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, eq, value = (part.strip() for part in line.partition("="))
        if not eq:
            raise SchemaError(f"{source} line {n}: expected 'key = value', got {raw!r}")
        if key not in CONFIG_KEYS:
            raise SchemaError(f"{source} line {n}: unknown config key {key!r}")
        try:
            out[key] = CONFIG_KEYS[key](value)
        except ValueError:
            raise SchemaError(f"{source} line {n}: {key}: expected "
                              f"{CONFIG_KEYS[key].__name__}, got {value!r}") from None
    return out


def build_run_config(values: dict[str, object], source: str = "config") -> RunConfig:
    """The run config from typed `values` keyed as in CONFIG_KEYS; keys not
    given keep their defaults. `train.seed` and `sim.seed` follow `seed`
    unless they are given. An out-of-range or non-finite value raises
    SchemaError naming `source` and the key."""
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
            raise SchemaError(f"{source}: {section + '.' if section else ''}{exc}") from None

    for section, cls in _SECTIONS.items():
        kwargs[""][section] = build(cls, section)
    return build(RunConfig, "")


def config_digest(cfg: RunConfig) -> str:
    blob = json.dumps(asdict(cfg), sort_keys=True)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:16]


def _load_config(args) -> RunConfig:
    values = {}
    if args.config:
        values = parse_config_file(_read_bytes(args.config).decode("utf-8"), args.config)
    # A flag whose dest is a config key overrides that key when it is given.
    values.update((k, v) for k, v in vars(args).items() if k in CONFIG_KEYS and v is not None)
    cfg = build_run_config(values, args.config or "config")
    print(f"config-digest {config_digest(cfg)}")
    return cfg


def _read_bytes(path: str) -> bytes:
    """An input file's bytes, which must be UTF-8 text."""
    p = Path(path)
    if not p.exists():
        raise FileNotFoundError(f"input file does not exist: {path}")
    data = p.read_bytes()
    try:
        data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = data.count(b"\n", 0, exc.start) + 1
        raise SchemaError(f"{path} line {line}: not UTF-8: {exc.reason}") from None
    return data


def _load(reader, path: str):
    """`reader` applied to the input file at `path`; its errors name the file."""
    return reader(_read_bytes(path), source=path)


def _write(path: str, data: bytes) -> None:
    p = Path(path)
    p.parent.mkdir(parents=True, exist_ok=True)
    p.write_bytes(data)
    print(f"wrote {path}")


def _make_backend(cfg: RunConfig):
    if cfg.backend == "simulated":
        return SimulatedBackend(cfg.sim)
    if cfg.backend == "recorded":
        if not cfg.recorded_path:
            raise SchemaError("backend 'recorded' needs recorded_path (or --recorded)")
        return RecordedBackend(_load(fuzz_mod.read_recorded_outcomes, cfg.recorded_path))
    if cfg.backend == "external":
        templates = load_templates(cfg.templates_dir) if cfg.templates_dir else load_templates()
        return ExternalBackend(cfg.external_command, templates=templates, budget=cfg.fuzz_budget)
    raise SchemaError(f"unknown backend {cfg.backend!r} (simulated/recorded/external)")


def _featurize_records(records, metadata, radius):
    sizes = warn_mod.cluster_sizes(records, radius)
    return {r.id: extract_features(r, metadata.get(package_of(r)), cluster_size=sizes[r.id])
            for r in records}


def _load_dataset(args, cfg) -> tuple[Dataset, dict]:
    records = _load(warn_mod.read_warning_store, args.warnings)
    labels = _load(warn_mod.read_label_sidecar, args.labels)
    records = warn_mod.apply_labels(records, labels)
    assignment, seed, _ = _load(warn_mod.read_split_file, args.splits)
    records = [r for r in records if r.id in assignment]
    vectors = _load(features_mod.read_feature_sidecar, args.features)
    return Dataset(records, assignment, seed), vectors


# ---------------------------------------------------------------------------
# Subcommands.
# ---------------------------------------------------------------------------


def cmd_ingest(args) -> int:
    _load_config(args)
    records = _load(warn_mod.parse_report, args.report)
    _write(args.out, warn_mod.write_warning_store(records))
    print(f"ingested {len(records)} warnings")
    return 0


def cmd_split(args) -> int:
    cfg = _load_config(args)
    records = _load(warn_mod.read_warning_store, args.warnings)
    labels = _load(warn_mod.read_label_sidecar, args.labels)
    records = warn_mod.apply_labels(records, labels)
    labeled = [r for r in records if r.label is not None]
    assignment = warn_mod.stratified_split(labeled, args.ratios, cfg.seed)
    _write(args.out, warn_mod.write_split_file(assignment, cfg.seed, args.ratios))
    return 0


def cmd_featurize(args) -> int:
    cfg = _load_config(args)
    records = _load(warn_mod.read_warning_store, args.warnings)
    metadata = (
        _load(features_mod.read_package_metadata, args.meta) if args.meta else {}
    )
    if args.mode == "precomputed":
        if not args.sidecar:
            print("usage error: --mode precomputed needs --sidecar", file=sys.stderr)
            return 2
        vectors = _load(features_mod.read_feature_sidecar, args.sidecar)
        missing = [r.id for r in records if r.id not in vectors]
        if missing:
            raise FeatureValidationError(f"sidecar has no vector for warning {missing[0]}")
    else:
        vectors = _featurize_records(records, metadata, cfg.cluster_radius)
    _write(args.out, features_mod.write_feature_sidecar([vectors[r.id] for r in records]))
    if args.export_manifest:
        _write(args.export_manifest, manifest_export().encode("utf-8"))
    return 0


def cmd_train(args) -> int:
    cfg = _load_config(args)
    dataset, vectors = _load_dataset(args, cfg)
    backend = _make_backend(cfg)
    log_lines: list[str] = []
    checkpoint = train(dataset, vectors, cfg.train, backend, cfg.reward, log_lines=log_lines)
    _write(args.out, save_checkpoint(checkpoint))
    if args.log:
        _write(args.log, ("\n".join(log_lines) + "\n").encode("utf-8"))
    best = max((h["val_f1"] for h in checkpoint.history), default=0.0)
    print(f"trained {len(checkpoint.history)} epochs, best val F1 {best:.4f}")
    return 0


def cmd_evaluate(args) -> int:
    cfg = _load_config(args)
    checkpoint = _load(load_checkpoint, args.checkpoint)
    dataset, vectors = _load_dataset(args, cfg)
    records = dataset.split_records(Split(args.split))
    if not records:
        raise EmptySplit(f"split {args.split!r} has no records")
    backend = _make_backend(cfg)
    report, predictions = evaluate_mod.evaluate_checkpoint(
        checkpoint, records, vectors, backend, mask_fuzz=args.mask_fuzz, jobs=cfg.jobs
    )
    _write(args.out, metrics_mod.write_report(report))
    if args.verdicts:
        _write(args.verdicts, metrics_mod.write_verdicts(predictions))
    return 0


def cmd_triage(args) -> int:
    cfg = _load_config(args)
    records = _load(warn_mod.parse_report, args.report)
    checkpoint = _load(load_checkpoint, args.checkpoint)
    metadata = (
        _load(features_mod.read_package_metadata, args.meta) if args.meta else {}
    )
    vectors = _featurize_records(records, metadata, cfg.cluster_radius)
    backend = _make_backend(cfg)
    feats = normalize(feature_matrix(records, vectors), checkpoint.normalizer)
    _, predictions = run_episodes(checkpoint.params, checkpoint.reward_spec, feats, records,
                                  backend, mask_fuzz=args.mask_fuzz, jobs=cfg.jobs)
    _write(args.out, metrics_mod.write_verdicts(predictions))
    return 0


def cmd_fuzz_validate(args) -> int:
    cfg = _load_config(args)
    records = _load(warn_mod.read_warning_store, args.warnings)
    labels = (
        _load(warn_mod.read_label_sidecar, args.labels) if args.labels else {}
    )
    by_id = {r.id: r for r in records}
    ids = args.ids.split(",") if args.ids else list(by_id)
    missing = [w for w in ids if w not in by_id]
    if missing:
        raise MissingRecording(f"warnings not in store: {', '.join(missing)}")
    backend = _make_backend(cfg)
    results = fuzz_mod.run_many(
        lambda wid: fuzz_mod.run_fuzz(backend, by_id[wid], labels.get(wid)), ids, cfg.jobs
    )
    _write(args.out, fuzz_mod.write_recorded_outcomes(dict(zip(ids, results))))
    return 0


def cmd_importance(args) -> int:
    cfg = _load_config(args)
    checkpoint = _load(load_checkpoint, args.checkpoint)
    dataset, vectors = _load_dataset(args, cfg)
    records = dataset.split_records(Split(args.split))
    if not records:
        raise EmptySplit(f"split {args.split!r} has no records")
    results = evaluate_mod.permutation_importance(
        checkpoint, records, vectors, repeats=args.repeats, seed=cfg.seed
    )
    _write(args.out, evaluate_mod.write_importance(results))
    return 0


def cmd_report(args) -> int:
    _load_config(args)
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

    p = sub.add_parser("ingest", help="parse a report file into the warning store")
    p.add_argument("--report", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_ingest)
    _add_common(p)

    p = sub.add_parser("split", help="stratified train/val/test assignment")
    p.add_argument("--warnings", required=True)
    p.add_argument("--labels", required=True)
    p.add_argument("--ratios", type=_ratios, default="0.70,0.15,0.15")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_split)
    _add_common(p)

    p = sub.add_parser("featurize", help="compute or validate feature vectors")
    p.add_argument("--warnings", required=True)
    p.add_argument("--meta", help="package metadata JSON")
    p.add_argument("--mode", choices=["heuristic", "precomputed"], default="heuristic")
    p.add_argument("--sidecar", help="precomputed feature sidecar")
    p.add_argument("--out", required=True)
    p.add_argument("--export-manifest", help="also write the manifest audit listing")
    p.set_defaults(func=cmd_featurize)
    _add_common(p)

    p = sub.add_parser("train", help="train a policy checkpoint")
    p.add_argument("--warnings", required=True)
    p.add_argument("--labels", required=True)
    p.add_argument("--splits", required=True)
    p.add_argument("--features", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--log", help="training log file (one line per epoch)")
    p.set_defaults(func=cmd_train)
    _add_common(p)

    p = sub.add_parser("evaluate", help="score a checkpoint on a split")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--warnings", required=True)
    p.add_argument("--labels", required=True)
    p.add_argument("--splits", required=True)
    p.add_argument("--features", required=True)
    p.add_argument("--split", default="test", choices=["train", "val", "test"])
    p.add_argument("--mask-fuzz", action="store_true")
    p.add_argument("--out", required=True)
    p.add_argument("--verdicts", help="also persist per-warning verdicts")
    p.set_defaults(func=cmd_evaluate)
    _add_common(p)

    p = sub.add_parser("triage", help="classify a raw report with a checkpoint")
    p.add_argument("--report", required=True)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--meta", help="package metadata JSON")
    p.add_argument("--mask-fuzz", action="store_true")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_triage)
    _add_common(p)

    p = sub.add_parser("fuzz-validate", help="run the fuzz backend on listed warnings")
    p.add_argument("--warnings", required=True)
    p.add_argument("--ids", help="comma-separated warning ids (default: all)")
    p.add_argument("--labels", help="label sidecar (needed by the simulated backend)")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_fuzz_validate)
    _add_common(p)

    p = sub.add_parser("importance", help="permutation feature importance")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--warnings", required=True)
    p.add_argument("--labels", required=True)
    p.add_argument("--splits", required=True)
    p.add_argument("--features", required=True)
    p.add_argument("--split", default="test", choices=["train", "val", "test"])
    p.add_argument("--repeats", type=_positive_int, default=3)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_importance)
    _add_common(p)

    p = sub.add_parser("report", help="recompute metrics from persisted verdicts")
    p.add_argument("--verdicts", required=True)
    p.add_argument("--labels", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_report)
    _add_common(p)

    return parser


def run_cli(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else 0
    try:
        return args.func(args)
    except (InputError, FileNotFoundError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 3
    except TriageError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 4
    except Exception as exc:  # noqa: BLE001 - contract: no bare stack traces
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 4


def main() -> int:
    return run_cli(sys.argv[1:])


if __name__ == "__main__":
    sys.exit(main())
