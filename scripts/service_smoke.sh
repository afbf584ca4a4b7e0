#!/usr/bin/env bash
# Serving-mode smoke: boots ctserved on a Unix socket, runs the same
# analysis remotely (twice) and locally, and holds these user-visible
# contracts:
#
#   1. `ctctl --connect` stdout is byte-identical to local execution;
#   2. the second identical request is answered entirely from the shared
#      result cache (the whole point of serving mode);
#   3. that cache-warm answer runs no realization: the server's
#      `surge.node_steps` counter reads the same after it as before
#      (a count, not a timing);
#   4. served downtime after a served analyze of the same session runs no
#      storm: it folds over the session's memoized mask table
#      (`surge.node_steps` unchanged) and matches local execution;
#   5. the storm-stage memo: a session on the server's shared storm stage
#      keeps its storms' shoreline records from its first realization (the
#      server's `memo.stores` reads 200 after the cold offset-0 analyze),
#      so every new sea-level offset, the first one included, runs no
#      storm stage (`surge.node_steps` unchanged), and every offset's
#      answer matches local execution;
#   6. served siting (a new session's mask sweep, one fold per candidate)
#      at a fourth offset matches local execution and also runs no storm
#      stage; and the sessions at the four offsets, which share one storm
#      side, built one storm stage (mesh, envelope precompute, harbor rays)
#      between them: the server's `surge.stage_builds` counter reads 1;
#   7. SIGTERM drains gracefully (exit 0 after finishing admitted work);
#   8. a local checkpointed sweep survives a real process death, for
#      analyze and for downtime: CT_CRASH tears its third durable write
#      (exit 86), and `--resume` restores the 32 realizations journaled
#      before it and prints, after its checkpoint line and a blank line,
#      the uninterrupted report byte for byte;
#   9. one cached table serves every command of a new process: after a
#      local default analyze, new local processes over the same
#      CT_CACHE_DIR run `analyze --backup kahe_cc`, `downtime` and `siting`,
#      each reads the mask table from disk (`1 from disk` on its stderr
#      cache line) and prints what a `--no-cache` run prints.
#
# Usage errors exit 2: a garbage number (`--slr abc`), a worker count
# above the jobs cap (`--jobs 257`) and `--realizations 0`, locally and
# with `--connect`.
#
# Usage: scripts/service_smoke.sh [build-dir]   (default: build)
set -euo pipefail

build=${1:-build}
ctctl="$build/examples/ctctl"
ctserved="$build/examples/ctserved"
work=$(mktemp -d /tmp/ct_service_smoke.XXXXXX)
sock="$work/ct.sock"
server_pid=

cleanup() {
  [[ -n "$server_pid" ]] && kill -9 "$server_pid" 2>/dev/null || true
  rm -rf "$work"
}
trap cleanup EXIT

# Separate cache roots: the local reference run must not be able to warm
# the server (or vice versa), or the cache-warm assertion proves nothing.
mkdir -p "$work/server-cache" "$work/local-cache"

# CT_OBS=1: the realization-count check reads the server's metrics registry.
CT_OBS=1 CT_CACHE_DIR="$work/server-cache" "$ctserved" --listen "unix:$sock" \
    > "$work/server.log" 2>&1 &
server_pid=$!
for _ in $(seq 1 100); do
  [[ -S "$sock" ]] && break
  kill -0 "$server_pid" 2>/dev/null || {
    echo "FAIL: ctserved died on startup"; cat "$work/server.log"; exit 1; }
  sleep 0.1
done
[[ -S "$sock" ]] || { echo "FAIL: socket never appeared"; exit 1; }

run_flags=(--realizations 200)

# A counter of the server's metrics registry, e.g. surge.node_steps (the
# envelope node-steps run so far, over all realizations).
server_counter() {
  "$ctctl" stats --metrics --json --connect "unix:$sock" \
      | sed -n "s/^ *\"${1//./\\.}\": *\([0-9][0-9]*\).*/\1/p"
}
node_steps() { server_counter surge.node_steps; }

echo "== remote analyze (cold)"
"$ctctl" analyze --connect "unix:$sock" "${run_flags[@]}" \
    > "$work/remote-cold.txt" 2> "$work/remote-cold.err"
if grep -q "served entirely" "$work/remote-cold.err"; then
  echo "FAIL: cold request claimed to be cache-served"; exit 1
fi
steps_cold=$(node_steps)
[[ -n "$steps_cold" && "$steps_cold" -gt 0 ]] \
    || { echo "FAIL: no surge.node_steps after the cold request"; exit 1; }
memo_stores=$(server_counter memo.stores)
echo "memo.stores: $memo_stores after the cold request"
[[ "$memo_stores" == 200 ]] \
    || { echo "FAIL: the cold request kept ${memo_stores:-no} storm records, not 200"; exit 1; }

echo "== remote analyze (must be cache-warm)"
"$ctctl" analyze --connect "unix:$sock" "${run_flags[@]}" \
    > "$work/remote-warm.txt" 2> "$work/remote-warm.err"
grep -q "served entirely from the server's result cache" \
    "$work/remote-warm.err" \
    || { echo "FAIL: second identical request was not cache-warm"; exit 1; }
steps_warm=$(node_steps)
echo "surge.node_steps: $steps_cold after cold, $steps_warm after warm"
[[ "$steps_warm" == "$steps_cold" ]] \
    || { echo "FAIL: the cache-warm request ran realizations"; exit 1; }

echo "== local reference run"
CT_CACHE_DIR="$work/local-cache" "$ctctl" analyze "${run_flags[@]}" \
    > "$work/local.txt" 2>/dev/null

echo "== a garbage number or too many workers is a usage error (exit 2)"
rc=0
"$ctctl" analyze --slr abc > /dev/null 2>&1 || rc=$?
[[ "$rc" -eq 2 ]] || { echo "FAIL: --slr abc exited $rc, not 2"; exit 1; }
rc=0
"$ctctl" analyze --jobs 257 --realizations 1 > /dev/null 2>&1 || rc=$?
[[ "$rc" -eq 2 ]] || { echo "FAIL: --jobs 257 exited $rc, not 2"; exit 1; }
rc=0
"$ctctl" analyze --realizations 0 --no-cache > /dev/null 2>&1 || rc=$?
[[ "$rc" -eq 2 ]] \
    || { echo "FAIL: --realizations 0 exited $rc, not 2"; exit 1; }
rc=0
"$ctctl" analyze --realizations 0 --connect "unix:$sock" > /dev/null 2>&1 \
    || rc=$?
[[ "$rc" -eq 2 ]] \
    || { echo "FAIL: served --realizations 0 exited $rc, not 2"; exit 1; }

echo "== byte-identity: remote(cold) vs local"
diff -u "$work/local.txt" "$work/remote-cold.txt"
echo "== byte-identity: remote(warm) vs local"
diff -u "$work/local.txt" "$work/remote-warm.txt"

echo "== downtime over the same socket: the session's masks, no storm"
steps_before=$(node_steps)
"$ctctl" downtime --connect "unix:$sock" "${run_flags[@]}" \
    > "$work/remote-downtime.txt" 2>/dev/null
steps_after=$(node_steps)
echo "surge.node_steps: $steps_before before downtime, $steps_after after"
[[ "$steps_after" == "$steps_before" ]] \
    || { echo "FAIL: served downtime ran storms"; exit 1; }
CT_CACHE_DIR="$work/local-cache" "$ctctl" downtime "${run_flags[@]}" \
    > "$work/local-downtime.txt" 2>/dev/null
diff -u "$work/local-downtime.txt" "$work/remote-downtime.txt"

echo "== server counters"
"$ctctl" stats --connect "unix:$sock" | tee "$work/stats.txt"
grep -Eq "completed[| ]+\|? *3" "$work/stats.txt" \
    || { echo "FAIL: expected 3 completed requests in stats"; exit 1; }

echo "== storm-stage memo: a new sea-level offset runs no storm"
# The cold offset-0 analyze kept the 200 storms' shoreline records, so
# offsets 0.1 and 0.2 only bind them.
for slr in 0.1 0.2; do
  steps_before=$(node_steps)
  "$ctctl" analyze --connect "unix:$sock" "${run_flags[@]}" --slr "$slr" \
      > "$work/remote-slr-$slr.txt" 2>/dev/null
  steps_after=$(node_steps)
  echo "surge.node_steps: $steps_before before --slr $slr, $steps_after after"
  [[ "$steps_after" == "$steps_before" ]] \
      || { echo "FAIL: offset $slr ran storm stages"; exit 1; }
  CT_CACHE_DIR="$work/local-cache" "$ctctl" analyze "${run_flags[@]}" \
      --slr "$slr" > "$work/local-slr-$slr.txt" 2>/dev/null
  diff -u "$work/local-slr-$slr.txt" "$work/remote-slr-$slr.txt"
done

echo "== served siting: a new session's mask sweep, storms from the memo"
# A new session at offset 0.3 over the same 200 storms: every shoreline
# record is already in the memo, so ranking the candidates runs no storm.
steps_before=$(node_steps)
"$ctctl" siting --connect "unix:$sock" "${run_flags[@]}" --slr 0.3 \
    > "$work/remote-siting.txt" 2>/dev/null
steps_after=$(node_steps)
echo "surge.node_steps: $steps_before before siting, $steps_after after"
[[ "$steps_after" == "$steps_before" ]] \
    || { echo "FAIL: served siting ran storm stages"; exit 1; }
CT_CACHE_DIR="$work/local-cache" "$ctctl" siting "${run_flags[@]}" \
    --slr 0.3 > "$work/local-siting.txt" 2>/dev/null
diff -u "$work/local-siting.txt" "$work/remote-siting.txt"

echo "== the four offsets' sessions share one storm stage"
stage_builds=$(server_counter surge.stage_builds)
echo "surge.stage_builds: $stage_builds"
[[ "$stage_builds" == 1 ]] \
    || { echo "FAIL: $stage_builds storm stage builds, not 1"; exit 1; }

echo "== graceful drain on SIGTERM"
kill -TERM "$server_pid"
rc=0
wait "$server_pid" || rc=$?
server_pid=
[[ "$rc" -eq 0 ]] || { echo "FAIL: drain exited $rc"; cat "$work/server.log"; exit 1; }
grep -q "stopped" "$work/server.log" \
    || { echo "FAIL: no clean-shutdown marker in server log"; exit 1; }

for command in analyze downtime; do
  echo "== local crash and resume of $command: a torn journal write, then --resume"
  crash_run=("$command" "${run_flags[@]}" --no-cache
             --checkpoint-dir "$work/checkpoint-$command"
             --checkpoint-interval 32)
  rc=0
  CT_CACHE_DIR="$work/local-cache" CT_CRASH=torn:at=3 "$ctctl" \
      "${crash_run[@]}" > /dev/null 2>&1 || rc=$?
  [[ "$rc" -eq 86 ]] \
      || { echo "FAIL: injected $command crash exited $rc, not 86"; exit 1; }
  CT_CACHE_DIR="$work/local-cache" "$ctctl" "${crash_run[@]}" --resume \
      > "$work/resumed-$command.txt" 2>/dev/null
  head -n 1 "$work/resumed-$command.txt"
  head -n 1 "$work/resumed-$command.txt" | grep -q "restored 32 and" \
      || { echo "FAIL: the $command resume did not restore 32 realizations"; exit 1; }
  CT_CACHE_DIR="$work/local-cache" "$ctctl" "$command" "${run_flags[@]}" \
      --no-cache > "$work/uninterrupted-$command.txt" 2>/dev/null
  tail -n +3 "$work/resumed-$command.txt" \
      | diff -u "$work/uninterrupted-$command.txt" -
done

echo "== one cached table serves every command of a new process"
CT_CACHE_DIR="$work/table-cache" "$ctctl" analyze "${run_flags[@]}" \
    > /dev/null 2>&1
for query in "analyze --backup kahe_cc" downtime siting; do
  name=${query// /_}
  # shellcheck disable=SC2086  # $query is a command and its flags
  CT_CACHE_DIR="$work/table-cache" "$ctctl" $query "${run_flags[@]}" \
      > "$work/table-$name.txt" 2> "$work/table-$name.err"
  grep "result cache:" "$work/table-$name.err"
  grep -q "), 1 from disk" "$work/table-$name.err" \
      || { echo "FAIL: $query did not read the table from disk"; exit 1; }
  # shellcheck disable=SC2086
  "$ctctl" $query "${run_flags[@]}" --no-cache > "$work/table-$name.ref" \
      2>/dev/null
  diff -u "$work/table-$name.ref" "$work/table-$name.txt"
done

echo "service smoke OK"
