#!/bin/sh
# Telemetry smoke: boot a real 2-process sdsnode world in -serve mode,
# each rank serving its own telemetry, curl both ranks' /healthz and
# /metrics mid-soak, and require each rank's series, a scraper-side sum
# of jobs done over the two scrapes and a clean exit. The stream cannot
# drain under the curls: its last job writes each rank's shard into a
# FIFO the script reads only after its assertions. This is the
# curl-level twin of cmd/sdsnode's TestServeTelemetryPlane; CI runs it
# from the observability-smoke lane, `make telemetry-smoke` runs it
# locally.
set -eu

dir=$(mktemp -d)
p0=""; p1=""; drains=""
cleanup() {
	[ -n "$p0" ] && kill "$p0" 2>/dev/null || true
	[ -n "$p1" ] && kill "$p1" 2>/dev/null || true
	[ -n "$drains" ] && kill $drains 2>/dev/null || true
	rm -rf "$dir"
}
trap cleanup EXIT INT TERM

echo "== build"
go build -o "$dir/sdsnode" ./cmd/sdsnode

ports=$(go run ./scripts/freeport 3)
reg=$(echo "$ports" | sed -n 1p)
tel0=$(echo "$ports" | sed -n 2p)
tel1=$(echo "$ports" | sed -n 3p)

# A few jobs, then the hold: its shard (200 000 records, far past a
# pipe's capacity) blocks in the write to hold.<rank> until the drain.
: >"$dir/jobs.jsonl"
i=0
while [ $i -lt 4 ]; do
	printf '{"name": "smoke%d", "workload": "zipf", "n": 200000, "seed": %d, "out": "%s"}\n' \
		"$i" "$((i + 1))" "$dir/smoke$i.{rank}.f64" >>"$dir/jobs.jsonl"
	i=$((i + 1))
done
printf '{"name": "hold", "workload": "zipf", "n": 200000, "seed": 99, "out": "%s"}\n' \
	"$dir/hold.{rank}" >>"$dir/jobs.jsonl"
mkfifo "$dir/hold.0" "$dir/hold.1"

echo "== serve on registry $reg, telemetry $tel0 (rank 0) and $tel1 (rank 1)"
"$dir/sdsnode" -rank 0 -size 2 -registry "$reg" -serve -jobs "$dir/jobs.jsonl" \
	-mem $((256 * 1024 * 1024)) -telemetry-addr "$tel0" >"$dir/rank0.log" 2>&1 &
p0=$!
"$dir/sdsnode" -rank 1 -size 2 -registry "$reg" -serve -jobs "$dir/jobs.jsonl" \
	-mem $((256 * 1024 * 1024)) -telemetry-addr "$tel1" >"$dir/rank1.log" 2>&1 &
p1=$!

# check_rank r addr: wait for rank r's plane and its first finished
# job, then assert on its own /healthz and /metrics (left in
# scrape.<r>).
check_rank() {
	r=$1; tel=$2
	scrape="$dir/scrape.$r"
	ok=""
	i=0
	while [ $i -lt 300 ]; do
		if curl -fsS "http://$tel/metrics" >"$scrape" 2>/dev/null &&
			awk '$1 == "sds_node_jobs_done_total" && $2 >= 1 { f = 1 } END { exit !f }' "$scrape"; then
			ok=1
			break
		fi
		sleep 0.1
		i=$((i + 1))
	done
	[ -n "$ok" ] || { echo "FAIL: rank $r never finished a job"; cat "$dir/rank$r.log"; exit 1; }

	echo "== rank $r /healthz mid-soak"
	curl -fsS "http://$tel/healthz" >"$dir/healthz.$r.json"
	cat "$dir/healthz.$r.json"
	grep -q '"status": "ok"' "$dir/healthz.$r.json" || { echo "FAIL: rank $r not ok"; exit 1; }
	grep -q "\"rank\": $r," "$dir/healthz.$r.json" || { echo "FAIL: rank $r /healthz names another rank"; exit 1; }

	echo "== rank $r /metrics mid-soak"
	for series in sds_node_info sds_tcp_frames_sent_total sds_mem_budget_bytes \
		sds_mem_used_bytes sds_node_jobs_done_total sds_exchange_window_bytes; do
		grep -q "^# TYPE $series " "$scrape" || {
			echo "FAIL: rank $r scrape missing $series"
			exit 1
		}
	done
	grep -q "^sds_node_info{.*rank=\"$r\"" "$scrape" || { echo "FAIL: rank $r node info"; exit 1; }
	grep -q "^sds_mem_budget_bytes 2.68435456e+08$" "$scrape" || {
		echo "FAIL: rank $r -mem budget not exported"
		grep sds_mem_budget_bytes "$scrape" || true
		exit 1
	}
	if grep -q '_fabric_' "$scrape"; then
		echo "FAIL: rank $r serves fabric-wide series"
		exit 1
	fi
	curl -fsS "http://$tel/debug/pprof/" >/dev/null || { echo "FAIL: rank $r pprof"; exit 1; }
}
check_rank 0 "$tel0"
check_rank 1 "$tel1"

# The fabric-wide figure is the scraper's sum over the ranks.
echo "== summed over both scrapes"
done_sum=$(awk '$1 == "sds_node_jobs_done_total" { s += $2 } END { print s + 0 }' "$dir/scrape.0" "$dir/scrape.1")
echo "sds_node_jobs_done_total $done_sum"
[ "$done_sum" -ge 2 ] || { echo "FAIL: jobs done summed over the ranks = $done_sum, want >= 2"; exit 1; }

echo "== drain"
cat "$dir/hold.0" >/dev/null &
drains=$!
cat "$dir/hold.1" >/dev/null &
drains="$drains $!"
wait "$p0" || { echo "FAIL: rank 0 exited non-zero"; cat "$dir/rank0.log"; exit 1; }
p0=""
wait "$p1" || { echo "FAIL: rank 1 exited non-zero"; cat "$dir/rank1.log"; exit 1; }
p1=""
wait $drains
drains=""

# After a fully drained stream the admission gauge must have read zero
# between jobs; the run would have exited non-zero on a leak (sdsnode
# logs it), so reaching here with exit 0 plus the live scrapes above is
# the smoke-level contract.
echo "PASS: telemetry smoke"
