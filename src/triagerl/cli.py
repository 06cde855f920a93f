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
from .env import RewardSpec
from .errors import InputError, NonFiniteScores
from .features import extract_features, manifest_export, normalize, validate_vector
from .fuzz import ExternalBackend, RecordedBackend, SimOracleConfig, SimulatedBackend, load_templates
from .trainer import TrainConfig, load_checkpoint, run_episodes, save_checkpoint, train
from .warnings import Dataset, Split, check_fields

BACKENDS = ("simulated", "recorded", "external")


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

    INTERVALS = {"seed": "[0,inf)", "cluster_radius": "[0,inf)", "fuzz_budget": "[30,60]",
                 "jobs": f"(-inf,{fuzz_mod.MAX_JOBS}]"}

    def __post_init__(self):
        check_fields(self, self.INTERVALS)
        if self.backend not in BACKENDS:
            raise ValueError(f"unknown backend {self.backend!r} ({'/'.join(BACKENDS)})")


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

    A line that is not `key = value`, an unknown key, a mistyped value or a
    key restated with another value raises InputError naming `source` and the line.
    """
    out = warn_mod.Table(source, "config key")
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
            typed = CONFIG_KEYS[key](value)
        except ValueError:
            raise InputError(f"{source} line {n}: {key}: expected "
                             f"{CONFIG_KEYS[key].__name__}, got {value!r}") from None
        out.state([(n, key, typed)])
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


def _make_backend(cfg: RunConfig, source: str):
    """The configured fuzz backend for warnings read from `source`."""
    if cfg.backend == "simulated":
        return SimulatedBackend(cfg.sim)
    if cfg.backend == "recorded":
        if not cfg.recorded_path:
            raise InputError("backend 'recorded' needs recorded_path (or --recorded)")
        outcomes = _load(fuzz_mod.read_recorded_outcomes, cfg.recorded_path)
        outcomes.name = f"recorded outcome for {source}'s warning"  # a miss names both files
        return RecordedBackend(outcomes)
    try:  # the external backend
        command = shlex.split(cfg.external_command)
    except ValueError as exc:  # an unbalanced quote
        raise InputError(f"external_command cannot be split: {exc}") from None
    if not command:
        raise InputError("external_command is empty")
    if "\0" in cfg.external_command:  # which no process argument can hold
        raise InputError("external_command holds a NUL byte")
    templates = load_templates(Path(cfg.templates_dir or fuzz_mod.DEFAULT_TEMPLATE_DIR))
    return ExternalBackend(command, templates=templates, budget=cfg.fuzz_budget)


def _labeled_store(args) -> list[warn_mod.WarningRecord]:
    records = _load(warn_mod.read_warning_store, args.warnings)
    warn_mod.apply_labels(records, _load(warn_mod.read_label_sidecar, args.labels))
    return records


def _load_dataset(args) -> tuple[Dataset, features_mod.FeatureTable]:
    dataset = Dataset(_labeled_store(args), _load(warn_mod.read_split_file, args.splits),
                      args.labels)
    return dataset, _load(features_mod.read_feature_sidecar, args.features)


def _scored_split(args) -> tuple:
    """The checkpoint, the records of `--split` and the feature table, each
    input read before the split is checked for records."""
    checkpoint = _load(load_checkpoint, args.checkpoint)
    dataset, table = _load_dataset(args)
    return checkpoint, dataset.split_records(Split(args.split)), table


def _report_rows(args, cfg: RunConfig, records: list, source: str) -> np.ndarray:
    """Raw feature rows of `records`, read from `source`, with `--meta`'s metadata if given."""
    metadata = _load(features_mod.read_package_metadata, args.meta) if args.meta else {}
    return extract_features(records, metadata, warn_mod.cluster_sizes(records, cfg.cluster_radius),
                            source)


# ---------------------------------------------------------------------------
# Subcommands.
# ---------------------------------------------------------------------------


def cmd_ingest(args, cfg: RunConfig) -> None:
    records = _load(warn_mod.parse_report, args.report)
    _write(args.out, warn_mod.write_warning_store(records))
    print(f"ingested {len(records)} warnings")


def cmd_split(args, cfg: RunConfig) -> None:
    labeled = [r for r in _labeled_store(args) if r.label is not None]
    assignment = warn_mod.stratified_split(labeled, args.ratios, cfg.seed)
    _write(args.out, warn_mod.write_split_file(assignment, cfg.seed, args.ratios))


def cmd_featurize(args, cfg: RunConfig) -> None:
    records = _load(warn_mod.read_warning_store, args.warnings)
    ids = [r.id for r in records]
    if args.sidecar:
        table = _load(features_mod.read_feature_sidecar, args.sidecar)
    else:
        # Rows worked out here are valid by construction; a row's id names it.
        table = features_mod.FeatureTable(ids, _report_rows(args, cfg, records, args.warnings),
                                          args.warnings, lambda i: args.warnings)
    _write(args.out, features_mod.write_feature_sidecar(ids, table.rows_of(records)))
    if args.export_manifest:
        _write(args.export_manifest, manifest_export())


def cmd_train(args, cfg: RunConfig) -> None:
    dataset, table = _load_dataset(args)
    backend = _make_backend(cfg, args.warnings)
    log_lines: list[str] = []
    checkpoint = train(dataset, table, cfg.train, backend, cfg.reward, log_lines=log_lines)
    _write(args.out, save_checkpoint(checkpoint))
    if args.log:
        _write(args.log, warn_mod.text_file(log_lines))
    best = max((h["val_f1"] for h in checkpoint.history), default=0.0)
    print(f"trained {len(checkpoint.history)} epochs, best val F1 {best:.4f}")


def cmd_evaluate(args, cfg: RunConfig) -> None:
    checkpoint, records, table = _scored_split(args)
    backend = None if args.mask_fuzz else _make_backend(cfg, args.warnings)
    report, predictions = _play(args.checkpoint, evaluate_mod.evaluate_checkpoint, checkpoint,
                                records, table, backend, jobs=cfg.jobs)
    _write(args.out, metrics_mod.write_report(report))
    if args.verdicts:
        _write(args.verdicts, metrics_mod.write_verdicts(predictions))


def cmd_triage(args, cfg: RunConfig) -> None:
    records = _load(warn_mod.parse_report, args.report)
    checkpoint = _load(load_checkpoint, args.checkpoint)
    raw = _report_rows(args, cfg, records, args.report)
    backend = None if args.mask_fuzz else _make_backend(cfg, args.report)
    feats = normalize(validate_vector(raw, lambda i: f"warning {records[i].id}"),
                      checkpoint.normalizer)
    played = _play(args.checkpoint, run_episodes, checkpoint.params, feats, records, backend,
                   jobs=cfg.jobs)
    _write(args.out, metrics_mod.verdict_file([r.id for r in records], played.called,
                                              played.score, played.outcome))


def cmd_fuzz_validate(args, cfg: RunConfig) -> None:
    records = _load(warn_mod.read_warning_store, args.warnings)
    warn_mod.apply_labels(records, _load(warn_mod.read_label_sidecar, args.labels)
                          if args.labels else {})
    by_id = warn_mod.Table(args.warnings, "warning")
    by_id.update((r.id, r) for r in records)
    ids = list(dict.fromkeys(args.ids.split(",") if args.ids else by_id))  # each id once
    listed = [by_id[w] for w in ids]
    results = fuzz_mod.run_many(_make_backend(cfg, args.warnings), listed, cfg.jobs)
    _write(args.out, fuzz_mod.write_recorded_outcomes(dict(zip(ids, results))))


def cmd_importance(args, cfg: RunConfig) -> None:
    checkpoint, records, table = _scored_split(args)
    results = _play(args.checkpoint, evaluate_mod.permutation_importance, checkpoint, records,
                    table, repeats=args.repeats, seed=cfg.seed)
    _write(args.out, evaluate_mod.write_importance(results))


def cmd_report(args, cfg: RunConfig) -> None:
    predictions = _load(metrics_mod.read_verdicts, args.verdicts)
    labels = _load(warn_mod.read_label_sidecar, args.labels)
    report = metrics_mod.compute_metrics(predictions, labels)
    _write(args.out, metrics_mod.write_report(report))


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


# Each flag a subcommand may share with others; a flag's dest is the config key it overrides.
_SHARED_FLAGS = {
    "--config": {"help": "flat key=value config file"},
    "--seed": {"type": int, "help": "overrides config seed"},
    "--backend": {"choices": BACKENDS},
    "--recorded": {"dest": "recorded_path", "help": "outcomes file for the recorded backend"},
    "--templates": {"dest": "templates_dir", "help": "harness template directory"},
    "--jobs": {"type": int, "help": "cap on concurrent fuzz-backend calls"},
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="triagerl",
        description="Learned triage of static memory-safety warnings with budgeted fuzzing.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name: str, func, summary: str, shares: tuple, *required: str):
        # Its `required` flags and --out, then --config and the shared flags it reads
        # (`shares`): a subcommand accepts no shared flag it does not read.
        p = sub.add_parser(name, help=summary)
        p.set_defaults(func=func)
        for flag in (*required, "--out"):
            p.add_argument(flag, required=True)
        for flag in ("--config", *shares):
            p.add_argument(flag, **_SHARED_FLAGS[flag])
        return p

    fuzzing = ("--seed", "--backend", "--recorded", "--templates")
    fanned = (*fuzzing, "--jobs")
    dataset = ("--warnings", "--labels", "--splits", "--features")
    command("ingest", cmd_ingest, "parse a report file into the warning store", (), "--report")

    p = command("split", cmd_split, "stratified train/val/test assignment", ("--seed",),
                "--warnings", "--labels")
    p.add_argument("--ratios", type=_ratios, default="0.70,0.15,0.15")

    p = command("featurize", cmd_featurize, "compute or check feature vectors", (), "--warnings")
    source = p.add_mutually_exclusive_group()
    source.add_argument("--meta", help="package metadata JSON, for computed vectors")
    source.add_argument("--sidecar", help="feature sidecar whose vectors are taken as they are")
    p.add_argument("--export-manifest", help="also write the manifest audit listing")

    p = command("train", cmd_train, "train a policy checkpoint", fuzzing, *dataset)
    p.add_argument("--log", help="training log file (one line per epoch)")

    p = command("evaluate", cmd_evaluate, "score a checkpoint on a split", fanned,
                "--checkpoint", *dataset)
    p.add_argument("--split", default="test", choices=[s.value for s in Split])
    p.add_argument("--mask-fuzz", action="store_true")
    p.add_argument("--verdicts", help="also persist per-warning verdicts")

    p = command("triage", cmd_triage, "classify a raw report with a checkpoint", fanned,
                "--report", "--checkpoint")
    p.add_argument("--meta", help="package metadata JSON")
    p.add_argument("--mask-fuzz", action="store_true")

    p = command("fuzz-validate", cmd_fuzz_validate, "run the fuzz backend on listed warnings",
                fanned, "--warnings")
    p.add_argument("--ids", help="comma-separated warning ids (default: all)")
    p.add_argument("--labels", help="label sidecar (needed by the simulated backend)")

    p = command("importance", cmd_importance, "permutation feature importance", ("--seed",),
                "--checkpoint", *dataset)
    p.add_argument("--split", default="test", choices=[s.value for s in Split])
    p.add_argument("--repeats", type=_positive_int, default=3)

    command("report", cmd_report, "recompute metrics from persisted verdicts", (), "--verdicts",
            "--labels")
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
        args.func(args, _load_config(args))
        return 0
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
