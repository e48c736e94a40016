#!/bin/sh
# Gate-baseline checks for the bench harness, run on a copy of the
# committed BENCH_baseline.jsonl in the current directory:
#   - gated perf runs only read the baseline: two leave it byte-identical;
#   - a record cut to 85% of the measured apply steps fails the gate;
#   - a malformed line or a duplicate key is a BENCH_baseline.jsonl:N:
#     diagnostic and exit 2;
#   - a key with no record fails the gate and names the -bless command,
#     and -bless records exactly what the run measured;
#   - -hostile-gate under a wall-clock deadline is a usage error.
# c17's static@1 sweep allocates ~41 minor words per apply step (engine
# set-up dominates its 858 steps), so its perf gate already fails on the
# kernel-allocation bound; the checks key on the baseline messages, not
# on the exit status alone.
#
# Usage: sh baseline_test.sh MAIN_EXE COMMITTED_BASELINE
set -eu
case $1 in /*) bench=$1 ;; *) bench=$PWD/$1 ;; esac
cp "$2" committed.jsonl
chmod u+w committed.jsonl

fail() {
  echo "baseline_test: $*" >&2
  exit 1
}

# run OUT ARGS...: one bench invocation; prints its exit status.
run() {
  out=$1
  shift
  status=0
  "$bench" "$@" > "$out" 2>&1 || status=$?
  echo "$status"
}

c17_gate() { run "$@" -perf-circuits c17 -perf-domains 1 -perf-out dp.json -perf-gate perf; }

baseline_messages='regression\|no baseline record'

# The committed record passes.
cp committed.jsonl BENCH_baseline.jsonl
c17_gate committed.out > /dev/null
if grep -q "$baseline_messages" committed.out; then
  fail "the committed baseline trips a baseline gate: $(cat committed.out)"
fi

# Gates only read the baseline.  c17's record is moved off the measured
# counters (to ten times them, still within bound), so a gated run that
# wrote back what it measured would show.
sed '/"circuit":"c17",/s/"apply_steps":\([0-9]*\)/"apply_steps":\10/' \
  committed.jsonl > nudged.jsonl
cp nudged.jsonl BENCH_baseline.jsonl
c17_gate run1.out > /dev/null
c17_gate run2.out > /dev/null
cmp -s nudged.jsonl BENCH_baseline.jsonl \
  || fail "a gated perf run rewrote BENCH_baseline.jsonl"
if grep -q "$baseline_messages" run1.out; then
  fail "a record above the measured counters trips a gate: $(cat run1.out)"
fi

# A record cut past the +10% bound fails the gate.
static_run() {
  sed -n "s/.*\"scheduler\": \"static\".*\"$1\": \\([0-9]*\\).*/\\1/p" dp.json
}
steps=$(static_run apply_steps)
peak=$(static_run scratch_peak_nodes)
[ -n "$steps" ] && [ -n "$peak" ] || fail "no static@1 counters in dp.json"
for cut in "apply_steps $steps apply_steps" "scratch_peak_nodes $peak scratch-peak"; do
  set -- $cut
  sed "/\"circuit\":\"c17\",/s/\"$1\":[0-9]*/\"$1\":$(($2 * 85 / 100))/" \
    committed.jsonl > BENCH_baseline.jsonl
  [ "$(c17_gate cut.out)" = 1 ] || fail "85% $1 record: gate did not exit 1"
  grep -q "c17: $3 regression" cut.out \
    || fail "85% $1 record: no regression message: $(cat cut.out)"
done

# -bless replaces exactly that record with the measured counters.
[ "$(run bless.out -perf-circuits c17 -perf-domains 1 -perf-out dp.json -bless perf)" = 0 ] \
  || fail "-bless perf failed: $(cat bless.out)"
grep "\"circuit\":\"c17\"" BENCH_baseline.jsonl | grep -q "\"apply_steps\":$steps," \
  || fail "-bless did not record $steps apply steps"
grep -v "\"circuit\":\"c17\"" committed.jsonl > others.expected
grep -v "\"circuit\":\"c17\"" BENCH_baseline.jsonl > others.actual
cmp -s others.expected others.actual || fail "-bless changed other records"
c17_gate reblessed.out > /dev/null
if grep -q "$baseline_messages" reblessed.out; then
  fail "a blessed record trips its own gate: $(cat reblessed.out)"
fi

# Malformed lines and duplicate keys are file:line diagnostics.
for extra in 'garbage' "$(head -n 1 committed.jsonl)" \
  '{"lane":"perf","circuit":"x","faults":1,"apply_steps":1}' \
  '{"lane":"mem","circuit":"x"}'; do
  cp committed.jsonl BENCH_baseline.jsonl
  printf '%s\n' "$extra" >> BENCH_baseline.jsonl
  n=$(($(wc -l < BENCH_baseline.jsonl)))
  [ "$(c17_gate bad.out)" = 2 ] || fail "line '$extra': gate did not exit 2"
  grep -q "^BENCH_baseline.jsonl:$n: " bad.out \
    || fail "line '$extra': no BENCH_baseline.jsonl:$n: diagnostic: $(cat bad.out)"
done

# A key with no record fails and names the bless command.
grep -v "\"circuit\":\"c17\"" committed.jsonl > BENCH_baseline.jsonl
[ "$(c17_gate missing.out)" = 1 ] || fail "missing record: gate did not exit 1"
grep -q "no baseline record perf circuit=c17 .*-bless perf" missing.out \
  || fail "missing record: no -bless hint: $(cat missing.out)"

# A wall-clock-capped degraded count is not comparable.
[ "$(run deadline.out -hostile-circuits c17 -hostile-deadline-ms 50 -hostile-gate hostile)" = 2 ] \
  || fail "-hostile-gate with a deadline did not exit 2"
