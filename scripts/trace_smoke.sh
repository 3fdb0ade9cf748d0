#!/bin/sh
# Trace smoke: boot a real 2-process sdsnode world in -serve mode with
# span tracing and telemetry on, assert /debug/spans serves a
# well-formed span tree mid-soak, then validate the read side end to
# end on the written traces: the clock-aligned chrome export and the
# report — the summary of the span tree and its critical path. This is the curl-level twin of the trace
# package's Go tests; CI runs it from the observability-smoke lane,
# `make trace-smoke` runs it locally. The hot-path cost of the tracing
# hooks themselves is not measured here: read trace.overhead_frac from
# `bash bench/run.sh --trace 1`.
set -eu

dir=$(mktemp -d)
p0=""; p1=""
cleanup() {
	[ -n "$p0" ] && kill "$p0" 2>/dev/null || true
	[ -n "$p1" ] && kill "$p1" 2>/dev/null || true
	rm -rf "$dir"
}
trap cleanup EXIT INT TERM

echo "== build"
go build -o "$dir/sdsnode" ./cmd/sdsnode
go build -o "$dir/sdstrace" ./cmd/sdstrace
go build -o "$dir/tracecheck" ./scripts/tracecheck

ports=$(go run ./scripts/freeport 2)
reg=$(echo "$ports" | sed -n 1p)
tel=$(echo "$ports" | sed -n 2p)

# A stream of jobs long enough that the /debug/spans curls below land
# mid-soak with at least one completed sort in the ring.
: >"$dir/jobs.jsonl"
i=0
while [ $i -lt 10 ]; do
	printf '{"name": "trace%d", "workload": "zipf", "n": 200000, "seed": %d, "out": "%s"}\n' \
		"$i" "$((i + 1))" "$dir/trace$i.{rank}.f64" >>"$dir/jobs.jsonl"
	i=$((i + 1))
done

echo "== serve on registry $reg, telemetry $tel, traces in $dir"
"$dir/sdsnode" -rank 0 -size 2 -registry "$reg" -serve -jobs "$dir/jobs.jsonl" \
	-telemetry-addr "$tel" -trace "$dir/rank0.trace" >"$dir/rank0.log" 2>&1 &
p0=$!
"$dir/sdsnode" -rank 1 -size 2 -registry "$reg" -serve -jobs "$dir/jobs.jsonl" \
	-trace "$dir/rank1.trace" >"$dir/rank1.log" 2>&1 &
p1=$!

# Wait for the telemetry plane, then for the first completed sort span
# to reach the ring — /debug/spans must parse as a span array holding
# at least one closed "sort" root the whole time.
echo "== /debug/spans mid-soak"
ok=""
i=0
while [ $i -lt 200 ]; do
	if curl -fsS "http://$tel/debug/spans" >"$dir/spans.json" 2>/dev/null &&
		"$dir/tracecheck" -mode spans -want sort "$dir/spans.json" >/dev/null 2>&1; then
		ok=1
		break
	fi
	sleep 0.1
	i=$((i + 1))
done
[ -n "$ok" ] || {
	echo "FAIL: /debug/spans never served a closed sort span"
	"$dir/tracecheck" -mode spans -want sort "$dir/spans.json" || true
	cat "$dir/rank0.log"
	exit 1
}
"$dir/tracecheck" -mode spans -want sort "$dir/spans.json"

echo "== drain"
wait "$p0" || { echo "FAIL: rank 0 exited non-zero"; cat "$dir/rank0.log"; exit 1; }
p0=""
wait "$p1" || { echo "FAIL: rank 1 exited non-zero"; cat "$dir/rank1.log"; exit 1; }
p1=""

# Both per-process traces must carry the clock.offset anchor the
# cross-process alignment rests on.
echo "== clock sync recorded"
for f in "$dir/rank0.trace" "$dir/rank1.trace"; do
	grep -q '"kind":"clock.offset"' "$f" || {
		echo "FAIL: $f has no clock.offset event"
		exit 1
	}
done

echo "== chrome export (clock-aligned merge of both ranks)"
"$dir/sdstrace" -format chrome "$dir/rank0.trace" "$dir/rank1.trace" >"$dir/timeline.json"
"$dir/tracecheck" -mode chrome -want sort "$dir/timeline.json"

echo "== report (summary and critical path)"
"$dir/sdstrace" "$dir/rank0.trace" "$dir/rank1.trace" | tee "$dir/report.txt"
grep -q '^critical path: sort over 2 rank(s)' "$dir/report.txt" || {
	echo "FAIL: critical path did not attribute a 2-rank sort"
	exit 1
}
# 10 jobs x 2 ranks, every sort root closed with a non-error reason.
grep -q '^sorts: 20 started, 20 completed$' "$dir/report.txt" || {
	echo "FAIL: want 20 sorts started and completed"
	exit 1
}
if grep -q 'UNTERMINATED' "$dir/report.txt"; then
	echo "FAIL: a rank left a sort unterminated"
	exit 1
fi

echo "PASS: trace smoke"
