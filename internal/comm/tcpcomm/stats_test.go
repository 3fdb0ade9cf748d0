package tcpcomm

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"sdssort/internal/telemetry"
)

// TestStatsWireCounters checks the transport's exported counters track
// real wire activity: frame/byte totals on both ends, the one-time
// connect, and the self-send exclusion.
func TestStatsWireCounters(t *testing.T) {
	t0, t1 := bootPair(t, nil)
	defer t0.Close()
	defer t1.Close()

	// Bootstrap may have exchanged frames; measure deltas from here.
	sent0, bytes0 := t0.Stats().FramesSent.Load(), t0.Stats().BytesSent.Load()
	recv1, bytes1 := t1.Stats().FramesReceived.Load(), t1.Stats().BytesReceived.Load()

	const n = 5
	var payload int64
	err := faultWithin(t, 20*time.Second, func() error {
		for i := 0; i < n; i++ {
			data := make([]byte, 10+i)
			payload += int64(len(data))
			if err := t0.Send(1, 7, 1, data); err != nil {
				return err
			}
		}
		for i := 0; i < n; i++ {
			if _, err := t1.Recv(0, 7, 1); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	if got := t0.Stats().FramesSent.Load() - sent0; got != n {
		t.Errorf("FramesSent delta = %d, want %d", got, n)
	}
	wantBytes := payload + n*frameHeader
	if got := t0.Stats().BytesSent.Load() - bytes0; got != wantBytes {
		t.Errorf("BytesSent delta = %d, want %d", got, wantBytes)
	}
	if got := t1.Stats().FramesReceived.Load() - recv1; got != n {
		t.Errorf("FramesReceived delta = %d, want %d", got, n)
	}
	if got := t1.Stats().BytesReceived.Load() - bytes1; got != wantBytes {
		t.Errorf("BytesReceived delta = %d, want %d", got, wantBytes)
	}
	if got := t0.Stats().Connects.Load(); got < 1 {
		t.Errorf("Connects = %d, want >= 1", got)
	}
	if got := t0.Stats().SendErrors.Load(); got != 0 {
		t.Errorf("SendErrors = %d on a healthy fabric", got)
	}

	// Self-sends take the mailbox shortcut and must not touch the wire
	// counters.
	before := t0.Stats().FramesSent.Load()
	if err := t0.Send(0, 7, 2, []byte("loop")); err != nil {
		t.Fatal(err)
	}
	if _, err := t0.Recv(0, 7, 2); err != nil {
		t.Fatal(err)
	}
	if got := t0.Stats().FramesSent.Load(); got != before {
		t.Errorf("self-send hit the wire counters: %d -> %d", before, got)
	}
	if got := t0.Stats().InflightSends.Load(); got != 0 {
		t.Errorf("InflightSends = %d at rest", got)
	}
}

// TestStatsReconnectCounters drops the cached connection mid-stream and
// checks the retry and reconnect counters record the recovery the
// frames themselves hide.
func TestStatsReconnectCounters(t *testing.T) {
	t0, t1 := bootPair(t, func(r int, cfg *Config) { cfg.Retry = fastRetry() })
	defer t0.Close()
	defer t1.Close()

	const n = 30
	err := faultWithin(t, 30*time.Second, func() error {
		for i := 0; i < n; i++ {
			if err := t0.Send(1, 7, 1, []byte{byte(i)}); err != nil {
				return fmt.Errorf("send %d: %w", i, err)
			}
			if i%10 == 9 {
				if !t0.dropConn(1) {
					return fmt.Errorf("no live connection to drop at frame %d", i)
				}
			}
		}
		for i := 0; i < n; i++ {
			data, err := t1.Recv(0, 7, 1)
			if err != nil {
				return fmt.Errorf("recv %d: %w", i, err)
			}
			if len(data) != 1 || data[0] != byte(i) {
				return fmt.Errorf("frame %d arrived as %v", i, data)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	st := t0.Stats()
	if got := st.Reconnects.Load(); got < 1 {
		t.Errorf("Reconnects = %d after dropped connections, want >= 1", got)
	}
	// (SendRetries stays 0 here: a dropped cached connection redials on
	// the next send's first attempt. Retries need a mid-write failure,
	// which the fault-injection suite covers.)
	// Exactly-once delivery means every retransmitted duplicate was
	// dropped, never surfaced: the receiver saw each frame once above,
	// and FramesSent >= n accounts for the retransmissions.
	if got := st.FramesSent.Load(); got < n {
		t.Errorf("FramesSent = %d, want >= %d", got, n)
	}
}

// TestStatsRegister checks the collector exposes every wire counter
// under its documented name.
func TestStatsRegister(t *testing.T) {
	t0, t1 := bootPair(t, nil)
	defer t0.Close()
	defer t1.Close()
	reg := telemetry.NewRegistry()
	t0.Stats().Register(reg)
	var b strings.Builder
	if _, err := reg.WriteTo(&b); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{
		"sds_tcp_frames_sent_total", "sds_tcp_bytes_sent_total",
		"sds_tcp_frames_received_total", "sds_tcp_bytes_received_total",
		"sds_tcp_frames_in_place_total",
		"sds_tcp_send_retries_total", "sds_tcp_connects_total",
		"sds_tcp_reconnects_total", "sds_tcp_dedup_dropped_total",
		"sds_tcp_send_errors_total", "sds_tcp_peers_lost_total",
		"sds_tcp_inflight_sends",
	} {
		if !strings.Contains(b.String(), "# TYPE "+name+" ") {
			t.Errorf("scrape missing %s", name)
		}
	}
}
