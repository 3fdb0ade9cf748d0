#!/bin/sh
# Telemetry smoke: boot a real 2-process sdsnode world in -serve mode,
# curl /healthz and /metrics mid-soak, and require the local series,
# the fabric-wide aggregated totals and a clean exit. This is the
# curl-level twin of cmd/sdsnode's TestServeTelemetryPlane; CI runs it
# from the observability-smoke lane, `make telemetry-smoke` runs it locally.
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

ports=$(go run ./scripts/freeport 2)
reg=$(echo "$ports" | sed -n 1p)
tel=$(echo "$ports" | sed -n 2p)

# A stream of jobs long enough that the curls below land mid-soak.
: >"$dir/jobs.jsonl"
i=0
while [ $i -lt 12 ]; do
	printf '{"name": "smoke%d", "workload": "zipf", "n": 200000, "seed": %d, "out": "%s"}\n' \
		"$i" "$((i + 1))" "$dir/smoke$i.{rank}.f64" >>"$dir/jobs.jsonl"
	i=$((i + 1))
done

echo "== serve on registry $reg, telemetry $tel"
"$dir/sdsnode" -rank 0 -size 2 -registry "$reg" -serve -jobs "$dir/jobs.jsonl" \
	-mem $((256 * 1024 * 1024)) -telemetry-addr "$tel" >"$dir/rank0.log" 2>&1 &
p0=$!
"$dir/sdsnode" -rank 1 -size 2 -registry "$reg" -serve -jobs "$dir/jobs.jsonl" \
	-mem $((256 * 1024 * 1024)) >"$dir/rank1.log" 2>&1 &
p1=$!

# Wait for the plane to come up.
ok=""
i=0
while [ $i -lt 100 ]; do
	if curl -fsS "http://$tel/healthz" >"$dir/healthz.json" 2>/dev/null; then
		ok=1
		break
	fi
	sleep 0.1
	i=$((i + 1))
done
[ -n "$ok" ] || { echo "FAIL: /healthz never came up"; cat "$dir/rank0.log"; exit 1; }

echo "== /healthz mid-soak"
cat "$dir/healthz.json"
grep -q '"status": "ok"' "$dir/healthz.json" || { echo "FAIL: not ok"; exit 1; }

echo "== /metrics mid-soak"
curl -fsS "http://$tel/metrics" >"$dir/scrape1.txt"
for series in sds_node_info sds_tcp_frames_sent_total sds_mem_budget_bytes \
	sds_mem_used_bytes sds_node_jobs_done_total sds_exchange_window_bytes; do
	grep -q "^# TYPE $series " "$dir/scrape1.txt" || {
		echo "FAIL: scrape missing $series"
		exit 1
	}
done
grep -q "^sds_mem_budget_bytes 2.68435456e+08$" "$dir/scrape1.txt" || {
	echo "FAIL: -mem budget not exported"
	grep sds_mem_budget_bytes "$dir/scrape1.txt" || true
	exit 1
}

# The first scrape kicked a background fabric gather; shortly after,
# scrapes carry cluster-wide totals summed from both ranks.
echo "== fabric totals"
fab=""
i=0
while [ $i -lt 100 ]; do
	curl -fsS "http://$tel/metrics" >"$dir/scrape2.txt" 2>/dev/null || true
	if grep -q "^sds_fabric_ranks 2$" "$dir/scrape2.txt" &&
		grep -q "^sds_fabric_tcp_frames_sent_total " "$dir/scrape2.txt"; then
		fab=1
		break
	fi
	sleep 0.1
	i=$((i + 1))
done
[ -n "$fab" ] || { echo "FAIL: fabric totals never appeared"; cat "$dir/scrape2.txt"; exit 1; }
grep "^sds_fabric_tcp_frames_sent_total \|^sds_fabric_node_jobs_done_total \|^sds_fabric_ranks " "$dir/scrape2.txt"

echo "== pprof mounted"
curl -fsS "http://$tel/debug/pprof/" >/dev/null || { echo "FAIL: pprof"; exit 1; }

echo "== drain"
wait "$p0" || { echo "FAIL: rank 0 exited non-zero"; cat "$dir/rank0.log"; exit 1; }
p0=""
wait "$p1" || { echo "FAIL: rank 1 exited non-zero"; cat "$dir/rank1.log"; exit 1; }
p1=""

# After a fully drained stream the admission gauge must have read zero
# between jobs; the run would have exited non-zero on a leak (sdsnode
# logs it), so reaching here with exit 0 plus the live scrape above is
# the smoke-level contract.
echo "PASS: telemetry smoke"
