#!/usr/bin/env python3
"""Measure when the trained policy invokes fuzzing and what it buys.

Trains on a corpus with a decisively-featured subclass and an ambiguous one
(no static signal), then compares fuzz-invocation rates per subclass and the
test F1 with fuzzing enabled versus masked on the same checkpoint.
"""

import argparse

from triagerl.evaluate import evaluate_checkpoint
from triagerl.fuzz import SimOracleConfig, SimulatedBackend
from triagerl.synthetic import ambiguity_task
from triagerl.trainer import TrainConfig, train
from triagerl.warnings import Split


def shown(value, spec):
    """`value` formatted by `spec`, or "undefined" for None (an F1 with no TP
    call, the fuzz rate of an empty subclass), as the report file writes it."""
    return "undefined" if value is None else format(value, spec)


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n", type=int, default=600)
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--epochs", type=int, default=120)
    parser.add_argument("--p-crash-tp", type=float, default=0.9)
    parser.add_argument("--p-crash-fp", type=float, default=0.02)
    parser.add_argument("--p-inconclusive", type=float, default=0.8)
    args = parser.parse_args()

    dataset, vectors, ambiguous_ids = ambiguity_task(n=args.n, seed=args.seed)
    backend = SimulatedBackend(
        SimOracleConfig(args.p_crash_tp, args.p_crash_fp, args.p_inconclusive, seed=13)
    )
    config = TrainConfig(
        epochs_max=args.epochs, patience=args.epochs, seed=args.seed, learning_rate=1e-3
    )
    checkpoint = train(dataset, vectors, config, backend)

    records = dataset.split_records(Split.TEST)
    report_fuzz, preds = evaluate_checkpoint(checkpoint, records, vectors, backend)
    report_masked, _ = evaluate_checkpoint(
        checkpoint, records, vectors, backend, mask_fuzz=True
    )

    ambiguous = [p for p in preds if p.warning_id in ambiguous_ids]
    clear = [p for p in preds if p.warning_id not in ambiguous_ids]
    rate_ambiguous = sum(p.fuzz_used for p in ambiguous) / len(ambiguous) if ambiguous else None
    rate_clear = sum(p.fuzz_used for p in clear) / len(clear) if clear else None
    gain = (None if None in (report_fuzz.f1, report_masked.f1)
            else 100 * (report_fuzz.f1 - report_masked.f1))
    print(f"test warnings: {len(records)} ({len(ambiguous)} ambiguous, {len(clear)} clear)")
    print(f"fuzz rate ambiguous: {shown(rate_ambiguous, '.3f')}")
    print(f"fuzz rate clear:     {shown(rate_clear, '.3f')}")
    print(f"fuzz rate overall:   {report_fuzz.fuzz_invocation_rate:.3f}")
    print(f"F1 with fuzzing:     {shown(report_fuzz.f1, '.4f')}")
    print(f"F1 fuzz masked:      {shown(report_masked.f1, '.4f')}")
    print("F1 gain from fuzzing: " + ("undefined" if gain is None else f"{gain:.1f} points"))


if __name__ == "__main__":
    main()
