#!/bin/sh
# Stand-in for an external fuzzer, for the triage_external_fuzz workload.
#
# Usage: fake_fuzz.sh <wait-seconds> <harness-path> --budget <seconds>
#
# Waits a fixed time, using almost no CPU, then reports an outcome chosen
# from the last hex digit of the warning id in the harness file name
# (harness_<id>.rs). gen.fake_fuzz_outcome mirrors this table.
wait_s="$1"
name="${2##*/}"
sleep "$wait_s"
case "$name" in
    *[0-3].rs)
        echo "thread 'main' panicked at src/lib.rs:17:5: index out of bounds"
        exit 101 ;;
    *[4-5].rs)
        echo "==4242==ERROR: AddressSanitizer: heap-use-after-free on address 0x602000000010" >&2
        exit 1 ;;
    *[6-9].rs|*[ab].rs)
        echo "Done 100000 runs in $wait_s second(s)"
        exit 0 ;;
    *[cd].rs)
        # Nonzero exit without any marker.
        exit 3 ;;
    *)
        echo "error[E0425]: cannot find function in this scope" >&2
        echo "error: could not compile harness" >&2
        exit 101 ;;
esac
