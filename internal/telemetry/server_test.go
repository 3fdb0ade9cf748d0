package telemetry

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

func get(t *testing.T, h http.Handler, path string) (*http.Response, string) {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
	res := rec.Result()
	body, err := io.ReadAll(res.Body)
	if err != nil {
		t.Fatal(err)
	}
	return res, string(body)
}

func TestServerEndpoints(t *testing.T) {
	reg := NewRegistry()
	reg.CounterFunc("sds_test_jobs_total", "Jobs.", func() float64 { return 2 })
	srv, err := NewServer("127.0.0.1:0", reg, ServerOptions{
		Health: func() Health {
			return Health{Status: "ok", Rank: 0, Size: 4, JobsDone: 3}
		},
		Trace: func() []json.RawMessage {
			return []json.RawMessage{
				json.RawMessage(`{"kind":"span.begin"}`),
				json.RawMessage(`{"kind":"span.end"}`),
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	// Over the real listener once, to cover the wiring end to end.
	res, err := http.Get("http://" + srv.Addr() + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(res.Body)
	res.Body.Close()
	if ct := res.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Errorf("Content-Type = %q", ct)
	}
	if !strings.Contains(string(body), "sds_test_jobs_total 2\n") {
		t.Errorf("scrape missing counter:\n%s", body)
	}

	h := srv.Handler()
	// The scrape itself is counted.
	if _, body := get(t, h, "/metrics"); !strings.Contains(body, "sds_telemetry_scrapes_total 2\n") {
		t.Errorf("second scrape should report 2 scrapes:\n%s", body)
	}

	res2, body2 := get(t, h, "/healthz")
	if res2.StatusCode != http.StatusOK {
		t.Errorf("/healthz = %d", res2.StatusCode)
	}
	var hlt Health
	if err := json.Unmarshal([]byte(body2), &hlt); err != nil {
		t.Fatalf("healthz not JSON: %v\n%s", err, body2)
	}
	if hlt.Size != 4 || hlt.JobsDone != 3 {
		t.Errorf("healthz payload: %+v", hlt)
	}

	if res3, body3 := get(t, h, "/debug/trace"); res3.StatusCode != http.StatusOK ||
		body3 != "{\"kind\":\"span.begin\"}\n{\"kind\":\"span.end\"}\n" {
		t.Errorf("/debug/trace = %d:\n%q", res3.StatusCode, body3)
	}

	if res4, _ := get(t, h, "/debug/pprof/"); res4.StatusCode != http.StatusOK {
		t.Errorf("/debug/pprof/ = %d", res4.StatusCode)
	}
}

// TestHealthzShrunkenFabricStaysOK: degraded mode is an operating
// state, not an outage — a fabric that shrank but still serves reports
// degraded:true with its current world size under HTTP 200.
func TestHealthzShrunkenFabricStaysOK(t *testing.T) {
	reg := NewRegistry()
	srv, err := NewServer("127.0.0.1:0", reg, ServerOptions{
		Health: func() Health {
			return Health{Status: "ok", Size: 4, Degraded: true, WorldSize: 3}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	res, body := get(t, srv.Handler(), "/healthz")
	if res.StatusCode != http.StatusOK {
		t.Errorf("shrunken-but-serving /healthz = %d, want 200", res.StatusCode)
	}
	var h Health
	if err := json.Unmarshal([]byte(body), &h); err != nil {
		t.Fatalf("healthz not JSON: %v\n%s", err, body)
	}
	if !h.Degraded || h.WorldSize != 3 {
		t.Errorf("healthz payload: %+v, want degraded with world_size 3", h)
	}
}

func TestHealthzDegraded(t *testing.T) {
	reg := NewRegistry()
	srv, err := NewServer("127.0.0.1:0", reg, ServerOptions{
		Health: func() Health { return Health{Status: "degraded", Detail: "rank 2 lost"} },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	res, body := get(t, srv.Handler(), "/healthz")
	if res.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("degraded /healthz = %d, want 503", res.StatusCode)
	}
	if !strings.Contains(body, "rank 2 lost") {
		t.Errorf("detail missing:\n%s", body)
	}
}

func TestTraceNotConfigured(t *testing.T) {
	reg := NewRegistry()
	srv, err := NewServer("127.0.0.1:0", reg, ServerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	if res, _ := get(t, srv.Handler(), "/debug/trace"); res.StatusCode != http.StatusNotFound {
		t.Errorf("/debug/trace without a sink = %d, want 404", res.StatusCode)
	}
}
