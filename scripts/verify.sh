#!/usr/bin/env bash
# Tier-1 verification gate.
#
#   build + tests      — the seed acceptance bar (must stay green)
#   clippy strictness  — `unwrap_used` / `panic` are denied workspace-wide
#                        in shipped code. Test modules are exempt (the
#                        default clippy targets do not lint `#[cfg(test)]`
#                        code, which is where the historical unwrap/assert
#                        sites live). The new crates additionally build
#                        warning-free.
#   determinism        — `repro` stdout must be byte-identical on 1 worker
#                        vs many; the timed comparison also shows the
#                        parallel plan finishing no slower than serial.
#   guard smoke        — a fast 16-seed fault-injection sweep across all
#                        five execution engines; exits nonzero if any run
#                        panics instead of returning a typed outcome.
#   chaos smoke        — 8 seeds of the full plan with faults injected
#                        into the interpreters AND the pool (stalls,
#                        artifact drops, worker panics); every seed must
#                        complete with job-count-invariant degradation
#                        markers.
#   conform smoke      — 32 seeded programs over the shared semantic IR,
#                        each lowered to all five interpreters; exits
#                        nonzero on any cross-interpreter console
#                        divergence (with a shrunk minimal reproducer).
#                        Runs twice: the classic naive sweep, then
#                        --dispatch all, which adds every supported
#                        fast-dispatch tier (threaded, superinstr,
#                        inline-cache, tiered) as extra witness columns.
#   crash-resume       — a journaled run is deliberately crashed mid-plan
#                        (exit 86 after 5 durable appends); the rerun with
#                        --resume must reuse the journal and print stdout
#                        byte-identical to the cold run.
#   two-process cache  — two concurrent `repro all` processes sharing one
#                        --cache-dir must both exit 0, execute each run
#                        exactly once between them, and leave a journal
#                        byte-identical to a serial cold run's; a compact
#                        pass over it is a no-op and status reports full
#                        coverage.
#   serve smoke        — a `repro serve` daemon answers two concurrent
#                        `repro submit`/`repro wait` clients over one
#                        cache: both response bodies byte-identical to
#                        the serial cold `repro all`, execution split
#                        exactly-once; then a second daemon is SIGKILLed
#                        mid-request and a restarted daemon recovers the
#                        orphaned claim, again byte-identical. One more
#                        `all` request against the warm cache must come
#                        back byte-identical while the journal's bytes,
#                        inode and mtime stay unchanged, and the outbox
#                        must hold responses only (no progress files).
#   fleet smoke        — two `repro serve` daemons join one cache as a
#                        failover fleet; one is SIGKILLed mid-burst and
#                        the survivor adopts its claimed work: every
#                        response byte-identical to the serial cold run
#                        with balanced exactly-once accounting, and one
#                        `--stop` drains the fleet clean.
#   journal-chaos      — 32 seeds = two full rotations of the sixteen
#                        lanes: six corruption lanes (torn tail, bit
#                        flip, mid-truncation, duplicate key, stale
#                        epoch, bad version) each detected, classified,
#                        and healed; three multi-writer lanes
#                        (interleaved writers, stale-lock takeover,
#                        compaction raced against an appender) each
#                        exactly-once and clean; six serve lanes
#                        (torn client request, daemon killed between
#                        claim and commit, clients racing a daemon and a
#                        batch run, a wedged fleet member swept by its
#                        peer, a dead member's work adopted exactly-once
#                        by two racing daemons, a storm of expired
#                        deadlines) each typed-rejected or recovered;
#                        and the tiered guard-trip lane (spurious trace
#                        guard failure mid-run) aborted, blacklisted,
#                        and byte-identical to a never-tiered run.
#   golden snapshots   — every renderer's test-scale output must be
#                        byte-identical to the committed goldens.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== build (release) =="
cargo build --release

echo "== tests =="
cargo test -q

echo "== clippy gate (no unwrap, no panic in shipped code) =="
cargo clippy --workspace -q -- \
  -D clippy::unwrap_used -D clippy::panic
cargo clippy -p interp-guard -q -- \
  -D warnings -D clippy::unwrap_used -D clippy::panic
# The supervision, harness, and conformance layers — including the
# journal/persistence module in interp-runplan — are held to the same
# no-unwrap/no-panic bar explicitly (their host-crate dependencies keep
# -D warnings off here).
cargo clippy -p interp-runplan -p interp-harness -p interp-conformance -q -- \
  -D clippy::unwrap_used -D clippy::panic

echo "== repro determinism (1 worker vs many, test scale) =="
cargo build --release -p interp-harness --bins
REPRO=./target/release/repro
t0=$(date +%s.%N)
"$REPRO" all --scale test --jobs 1 >/tmp/repro_serial.txt 2>/dev/null
t1=$(date +%s.%N)
"$REPRO" all --scale test >/tmp/repro_parallel.txt 2>/tmp/repro_timings.txt
t2=$(date +%s.%N)
cmp /tmp/repro_serial.txt /tmp/repro_parallel.txt \
  || { echo "repro output differs between --jobs 1 and parallel"; exit 1; }
serial=$(echo "$t1 $t0" | awk '{printf "%.2f", $1-$2}')
parallel=$(echo "$t2 $t1" | awk '{printf "%.2f", $1-$2}')
echo "repro all (test scale): serial ${serial}s, parallel ${parallel}s"
grep "run plan:" /tmp/repro_timings.txt

echo "== guard smoke sweep (16 seeds, test scale) =="
"$REPRO" guard --seeds 16 --scale test

echo "== chaos smoke (8 seeds, guest+pool fault injection) =="
"$REPRO" chaos --seeds 8 --scale test

echo "== conformance smoke (32 seeds, 5 interpreters, zero divergence) =="
"$REPRO" conform --seeds 32 \
  || { echo "cross-interpreter divergence detected; see the shrunk reproducer above"; exit 1; }

echo "== conformance smoke, all dispatch tiers (32 seeds, 12 engine witnesses) =="
"$REPRO" conform --seeds 32 --dispatch all \
  || { echo "fast-dispatch tier diverged from naive; see the shrunk reproducer above"; exit 1; }

echo "== tiered conformance smoke (16 seeds, trace-recording tier vs naive) =="
"$REPRO" conform --seeds 16 --dispatch naive,tiered \
  || { echo "tiered trace execution diverged from naive; see the shrunk reproducer above"; exit 1; }

echo "== crash-resume (deliberate mid-plan crash, then --resume, byte-diff vs cold) =="
CACHE=/tmp/repro_resume_cache
rm -rf "$CACHE"
set +e
"$REPRO" all --scale test --cache-dir "$CACHE" --crash-after 5 >/dev/null 2>&1
status=$?
set -e
[ "$status" -eq 86 ] \
  || { echo "crash harness exited $status, expected 86"; exit 1; }
"$REPRO" all --scale test --cache-dir "$CACHE" --resume \
  >/tmp/repro_resumed.txt 2>/tmp/repro_resume_report.txt
cmp /tmp/repro_parallel.txt /tmp/repro_resumed.txt \
  || { echo "resumed output differs from the cold run"; exit 1; }
grep "^journal " /tmp/repro_resume_report.txt
rm -rf "$CACHE"

echo "== two-process shared cache (exactly-once split, byte-diff vs cold) =="
COLD=/tmp/repro_coord_cold
SHARED=/tmp/repro_coord_shared
rm -rf "$COLD" "$SHARED"
"$REPRO" all --scale test --jobs 4 --cache-dir "$COLD" \
  >/tmp/repro_coord_cold.txt 2>/dev/null
"$REPRO" all --scale test --jobs 4 --cache-dir "$SHARED" \
  >/tmp/repro_coord_a.txt 2>/tmp/repro_coord_a.err &
pid_a=$!
"$REPRO" all --scale test --jobs 4 --cache-dir "$SHARED" \
  >/tmp/repro_coord_b.txt 2>/tmp/repro_coord_b.err &
pid_b=$!
wait "$pid_a" || { echo "first concurrent process failed"; cat /tmp/repro_coord_a.err; exit 1; }
wait "$pid_b" || { echo "second concurrent process failed"; cat /tmp/repro_coord_b.err; exit 1; }
cmp /tmp/repro_coord_cold.txt /tmp/repro_coord_a.txt \
  || { echo "first concurrent stdout differs from cold"; exit 1; }
cmp /tmp/repro_coord_cold.txt /tmp/repro_coord_b.txt \
  || { echo "second concurrent stdout differs from cold"; exit 1; }
cmp "$COLD/artifacts.journal" "$SHARED/artifacts.journal" \
  || { echo "shared-cache journal differs from the serial cold journal"; exit 1; }
planned=$(grep "^journal " /tmp/repro_coord_a.err | sed 's/.* of \([0-9]*\) planned.*/\1/')
executed=$(cat /tmp/repro_coord_a.err /tmp/repro_coord_b.err \
  | grep "^journal " | sed 's/.*executed \([0-9]*\),.*/\1/' | awk '{s+=$1} END {print s}')
[ "$executed" = "$planned" ] \
  || { echo "exactly-once violated: $executed executed across the pair, $planned planned"; exit 1; }
echo "two processes split $planned runs exactly-once ($executed executed total)"
"$REPRO" compact --cache-dir "$SHARED" | grep "already clean" \
  || { echo "cooperatively-filled journal was not canonical"; exit 1; }
"$REPRO" status --cache-dir "$SHARED" | grep "100% reuse" \
  || { echo "status does not report full coverage"; exit 1; }
rm -rf "$COLD" "$SHARED"

echo "== serve smoke (daemon + 2 concurrent clients, exactly-once, byte-diff vs cold) =="
SERVE=/tmp/repro_serve_cache
rm -rf "$SERVE"
"$REPRO" serve --cache-dir "$SERVE" --poll-ms 10 --max-requests 2 --jobs 4 \
  2>/tmp/repro_serve_daemon.err &
serve_pid=$!
"$REPRO" submit all --id smoke-a --cache-dir "$SERVE" >/dev/null 2>&1
"$REPRO" submit all --id smoke-b --cache-dir "$SERVE" >/dev/null 2>&1
"$REPRO" wait smoke-a --cache-dir "$SERVE" --poll-ms 10 \
  >/tmp/repro_serve_a.txt 2>/tmp/repro_serve_a.err &
wait_a=$!
"$REPRO" wait smoke-b --cache-dir "$SERVE" --poll-ms 10 \
  >/tmp/repro_serve_b.txt 2>/tmp/repro_serve_b.err &
wait_b=$!
wait "$wait_a" || { echo "wait smoke-a failed"; cat /tmp/repro_serve_a.err; exit 1; }
wait "$wait_b" || { echo "wait smoke-b failed"; cat /tmp/repro_serve_b.err; exit 1; }
wait "$serve_pid" || { echo "serve daemon failed"; cat /tmp/repro_serve_daemon.err; exit 1; }
cmp /tmp/repro_serial.txt /tmp/repro_serve_a.txt \
  || { echo "serve response smoke-a differs from the serial cold run"; exit 1; }
cmp /tmp/repro_serial.txt /tmp/repro_serve_b.txt \
  || { echo "serve response smoke-b differs from the serial cold run"; exit 1; }
planned=$(sed 's/.* of \([0-9]*\) planned.*/\1/' /tmp/repro_serve_a.err)
served_exec=$(cat /tmp/repro_serve_a.err /tmp/repro_serve_b.err \
  | grep "^serve " | sed 's/.*executed \([0-9]*\),.*/\1/' | awk '{s+=$1} END {print s}')
[ "$served_exec" = "$planned" ] \
  || { echo "serve exactly-once violated: $served_exec executed across 2 responses, $planned planned"; exit 1; }
echo "serve answered 2 clients over $planned runs exactly-once ($served_exec executed total)"

echo "== serve warm request (answered from the warm cache, journal untouched, byte-diff vs cold) =="
cp "$SERVE/artifacts.journal" /tmp/repro_serve_journal.copy
journal_id=$(stat -c '%i %Y' "$SERVE/artifacts.journal")
"$REPRO" serve --cache-dir "$SERVE" --poll-ms 10 --max-requests 1 --jobs 4 \
  2>/tmp/repro_serve_warm_daemon.err &
serve_pid=$!
"$REPRO" submit all --id smoke-w --cache-dir "$SERVE" >/dev/null 2>&1
"$REPRO" wait smoke-w --cache-dir "$SERVE" --poll-ms 10 \
  >/tmp/repro_serve_w.txt 2>/tmp/repro_serve_w.err \
  || { echo "wait smoke-w failed"; cat /tmp/repro_serve_w.err; exit 1; }
wait "$serve_pid" || { echo "warm serve daemon failed"; cat /tmp/repro_serve_warm_daemon.err; exit 1; }
cmp /tmp/repro_serial.txt /tmp/repro_serve_w.txt \
  || { echo "warm serve response differs from the serial cold run"; exit 1; }
cmp /tmp/repro_serve_journal.copy "$SERVE/artifacts.journal" \
  || { echo "a warm serve request rewrote the journal"; exit 1; }
[ "$(stat -c '%i %Y' "$SERVE/artifacts.journal")" = "$journal_id" ] \
  || { echo "a warm serve request replaced the journal file (inode or mtime moved)"; exit 1; }
grep -q "executed 0," /tmp/repro_serve_w.err \
  || { echo "a warm serve request executed runs"; cat /tmp/repro_serve_w.err; exit 1; }
if compgen -G "$SERVE/serve/outbox/*.progress" >/dev/null; then
  echo "serve left per-request progress files in the outbox"; ls "$SERVE/serve/outbox"; exit 1
fi
rm -f /tmp/repro_serve_journal.copy
echo "warm serve request answered byte-identically without touching the journal"

echo "== serve SIGKILL recovery (kill mid-request, restart, byte-diff vs cold) =="
KILLCACHE=/tmp/repro_serve_kill
rm -rf "$KILLCACHE"
"$REPRO" submit all --id smoke-r --cache-dir "$KILLCACHE" >/dev/null 2>&1
"$REPRO" serve --cache-dir "$KILLCACHE" --poll-ms 10 --max-requests 1 --jobs 4 \
  >/dev/null 2>&1 &
kill_pid=$!
for _ in $(seq 1 1200); do
  [ -s "$KILLCACHE/artifacts.journal" ] && break
  sleep 0.05
done
[ -s "$KILLCACHE/artifacts.journal" ] \
  || { echo "serve daemon never started journaling the request"; exit 1; }
kill -9 "$kill_pid" 2>/dev/null || true
wait "$kill_pid" 2>/dev/null || true
# Unless the daemon finished in the instant before the kill landed, the
# request is an orphaned claim now — a restarted daemon must recover it.
if [ ! -f "$KILLCACHE/serve/outbox/smoke-r.resp" ]; then
  "$REPRO" serve --cache-dir "$KILLCACHE" --poll-ms 10 --max-requests 1 --jobs 4 \
    2>/tmp/repro_serve_restart.err \
    || { echo "restarted serve daemon failed"; cat /tmp/repro_serve_restart.err; exit 1; }
fi
"$REPRO" wait smoke-r --cache-dir "$KILLCACHE" --poll-ms 10 \
  >/tmp/repro_serve_r.txt 2>/tmp/repro_serve_r.err \
  || { echo "wait smoke-r failed after recovery"; cat /tmp/repro_serve_r.err; exit 1; }
cmp /tmp/repro_serial.txt /tmp/repro_serve_r.txt \
  || { echo "recovered serve response differs from the serial cold run"; exit 1; }
grep "^serve smoke-r:" /tmp/repro_serve_r.err
rm -rf "$SERVE" "$KILLCACHE"

echo "== fleet smoke (2 daemons, SIGKILL one mid-burst, survivor adopts, drain) =="
FLEET=/tmp/repro_fleet_cache
rm -rf "$FLEET"
"$REPRO" serve --cache-dir "$FLEET" --poll-ms 10 --serve-jobs 2 --jobs 4 \
  2>/tmp/repro_fleet_a.err &
fleet_a=$!
"$REPRO" serve --cache-dir "$FLEET" --poll-ms 10 --serve-jobs 2 --jobs 4 \
  2>/tmp/repro_fleet_b.err &
fleet_b=$!
for _ in $(seq 1 1200); do
  members=$(find "$FLEET/serve/fleet" -maxdepth 1 -type f ! -name '.*' ! -name '*.hb' 2>/dev/null | wc -l)
  [ "$members" -eq 2 ] && break
  sleep 0.05
done
[ "$members" -eq 2 ] || { echo "fleet never reached 2 members"; exit 1; }
"$REPRO" submit all --id fleet-0 --cache-dir "$FLEET" >/dev/null 2>&1
"$REPRO" submit all --id fleet-1 --cache-dir "$FLEET" >/dev/null 2>&1
"$REPRO" submit all --id fleet-2 --cache-dir "$FLEET" >/dev/null 2>&1
for _ in $(seq 1 1200); do
  [ -s "$FLEET/artifacts.journal" ] && break
  sleep 0.05
done
[ -s "$FLEET/artifacts.journal" ] \
  || { echo "no fleet member ever started journaling the burst"; exit 1; }
kill -9 "$fleet_a" 2>/dev/null || true
wait "$fleet_a" 2>/dev/null || true
for id in fleet-0 fleet-1 fleet-2; do
  "$REPRO" wait "$id" --cache-dir "$FLEET" --poll-ms 10 \
    >"/tmp/repro_fleet_$id.txt" 2>"/tmp/repro_fleet_$id.err" \
    || { echo "wait $id failed after the kill"; cat "/tmp/repro_fleet_$id.err"; exit 1; }
  cmp /tmp/repro_serial.txt "/tmp/repro_fleet_$id.txt" \
    || { echo "fleet response $id differs from the serial cold run"; exit 1; }
  reused=$(sed -n 's/^serve [^:]*: reused \([0-9]*\) of.*/\1/p' "/tmp/repro_fleet_$id.err")
  planned=$(sed -n 's/.* of \([0-9]*\) planned.*/\1/p' "/tmp/repro_fleet_$id.err")
  executed=$(sed -n 's/.*executed \([0-9]*\),.*/\1/p' "/tmp/repro_fleet_$id.err")
  live=$(sed -n 's/.*reused-live \([0-9]*\).*/\1/p' "/tmp/repro_fleet_$id.err")
  [ "$((reused + executed + live))" -eq "$planned" ] \
    || { echo "fleet accounting for $id does not balance: $reused + $executed + $live != $planned"; exit 1; }
done
"$REPRO" serve --stop --cache-dir "$FLEET" --poll-ms 10 >/dev/null \
  || { echo "fleet stop failed"; exit 1; }
wait "$fleet_b" || { echo "surviving fleet member failed"; cat /tmp/repro_fleet_b.err; exit 1; }
leftover=$(find "$FLEET/serve/fleet" -maxdepth 1 -type f 2>/dev/null | wc -l)
[ "$leftover" -eq 0 ] || { echo "drained fleet left $leftover member file(s)"; exit 1; }
echo "fleet survived a SIGKILL mid-burst: 3 byte-identical responses, clean drain"
rm -rf "$FLEET"

echo "== bench trajectory (JSON artifact + dispatch-tier gate) =="
"$REPRO" bench --scale test --jobs 4 --out /tmp/repro_bench.json >/tmp/repro_bench_summary.txt \
  || { echo "bench failed (a fast dispatch tier regressed vs naive?)"; \
       cat /tmp/repro_bench_summary.txt; exit 1; }
grep -q '"schema": "bench-trajectory/6"' /tmp/repro_bench.json \
  || { echo "bench trajectory missing schema marker"; exit 1; }
grep -q '"dispatch"' /tmp/repro_bench.json \
  || { echo "bench trajectory missing dispatch-tier section"; exit 1; }
grep -q "bench: dispatch tiers ok" /tmp/repro_bench_summary.txt \
  || { echo "bench summary missing the dispatch-tier gate marker"; \
       cat /tmp/repro_bench_summary.txt; exit 1; }
rm -f /tmp/repro_bench.json /tmp/repro_bench_summary.txt

echo "== journal-chaos (corruption + multi-writer + serve + fleet + tiered lanes, 2 full rotations) =="
"$REPRO" journal-chaos --seeds 32

echo "== golden snapshots (byte-diff vs committed renders) =="
cargo test -q -p interp-harness --test goldens \
  || { echo "golden snapshots drifted; if intentional, regenerate with:"; \
       echo "  UPDATE_GOLDENS=1 cargo test -p interp-harness --test goldens"; exit 1; }

echo "verify: OK"
