package tcpcomm

import "sdssort/internal/telemetry"

// Register exposes the transport's wire counters on r. It lives here
// (subsystem -> telemetry) so the telemetry package stays a leaf the
// low-level packages can depend on without cycles.
func (st *Stats) Register(r *telemetry.Registry) {
	r.CounterFunc("sds_tcp_frames_sent_total", "Frames written to the wire (self-sends excluded).", telemetry.FInt(st.FramesSent.Load))
	r.CounterFunc("sds_tcp_bytes_sent_total", "Bytes written to the wire, headers included.", telemetry.FInt(st.BytesSent.Load))
	r.CounterFunc("sds_tcp_frames_received_total", "Frames read off accepted connections, duplicates included.", telemetry.FInt(st.FramesReceived.Load))
	r.CounterFunc("sds_tcp_bytes_received_total", "Bytes read off accepted connections, headers included.", telemetry.FInt(st.BytesReceived.Load))
	r.CounterFunc("sds_tcp_frames_in_place_total", "Received frames whose body was read straight into a posted receive region.", telemetry.FInt(st.FramesInPlace.Load))
	r.CounterFunc("sds_tcp_send_retries_total", "Send attempts retried after a failed dial or write.", telemetry.FInt(st.SendRetries.Load))
	r.CounterFunc("sds_tcp_connects_total", "First successful dials, one per destination.", telemetry.FInt(st.Connects.Load))
	r.CounterFunc("sds_tcp_reconnects_total", "Successful redials after a dropped connection.", telemetry.FInt(st.Reconnects.Load))
	r.CounterFunc("sds_tcp_dedup_dropped_total", "Received frames dropped as retransmitted duplicates.", telemetry.FInt(st.DedupDropped.Load))
	r.CounterFunc("sds_tcp_send_errors_total", "Sends that exhausted the retry budget (peer declared lost).", telemetry.FInt(st.SendErrors.Load))
	r.CounterFunc("sds_tcp_peers_lost_total", "Sources declared lost by the sequence-gap timer.", telemetry.FInt(st.PeersLost.Load))
	r.GaugeFunc("sds_tcp_inflight_sends", "Wire sends currently inside Send.", telemetry.FInt(st.InflightSends.Load))
}
