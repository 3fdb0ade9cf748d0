package metrics

import "sdssort/internal/telemetry"

// Register exposes the staged-exchange counters, including the live
// staging-window occupancy gauge.
func (s *ExchangeStats) Register(r *telemetry.Registry) {
	r.CounterFunc("sds_exchange_bytes_staged_total", "Payload bytes that passed through staging buffers.", telemetry.FInt(s.BytesStaged.Load))
	r.CounterFunc("sds_exchange_chunks_total", "Stage chunks the staged bytes were cut into.", telemetry.FInt(s.StageChunks.Load))
	r.GaugeFunc("sds_exchange_window_bytes", "Live staging-window occupancy: chunk bytes currently held by in-flight exchanges.", telemetry.FInt(s.WindowBytes.Load))
	r.GaugeFunc("sds_exchange_peak_staging_bytes", "Largest staging-window reservation any exchange made.", telemetry.FInt(s.PeakStagingReserved.Load))
	r.CounterFunc("sds_exchange_pool_hits_total", "Encode-buffer pool lookups served from the free list.", telemetry.FInt(s.PoolHits.Load))
	r.CounterFunc("sds_exchange_pool_misses_total", "Encode-buffer pool lookups that allocated.", telemetry.FInt(s.PoolMisses.Load))
	r.CounterFunc("sds_exchange_zero_copy_bytes_total", "Exchange payload moved by the zero-copy path (no encode/decode staging copies).", telemetry.FInt(s.ZeroCopyBytes.Load))
	r.CounterFunc("sds_exchange_zero_copy_chunks_total", "Chunks moved by the zero-copy path.", telemetry.FInt(s.ZeroCopyChunks.Load))
}

// Register exposes the out-of-core spill-tier counters.
func (s *SpillStats) Register(r *telemetry.Registry) {
	r.CounterFunc("sds_spill_runs_total", "Sorted run files written to the spill tier.", telemetry.FInt(s.RunsSpilled.Load))
	r.CounterFunc("sds_spill_bytes_total", "Record payload bytes written to spill run files.", telemetry.FInt(s.BytesSpilled.Load))
	r.CounterFunc("sds_spill_merge_passes_total", "K-way merge passes streamed over spill runs.", telemetry.FInt(s.MergePasses.Load))
	r.GaugeFunc("sds_spill_max_fan_in", "Widest single merge pass over spill runs.", telemetry.FInt(s.MaxFanIn.Load))
	r.CounterFunc("sds_spill_sorts_total", "Sort calls that entered the out-of-core spill regime.", telemetry.FInt(s.SpilledSorts.Load))
}
