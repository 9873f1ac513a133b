package obs

import (
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"
)

func get(t *testing.T, url string) (int, string, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read %s: %v", url, err)
	}
	return resp.StatusCode, resp.Header.Get("Content-Type"), string(body)
}

func TestAdminServer(t *testing.T) {
	reg := goldenRegistry()
	srv, err := NewServer("127.0.0.1:0", reg)
	if err != nil {
		t.Fatalf("NewServer: %v", err)
	}
	defer srv.Close()
	base := "http://" + srv.Addr()

	code, ctype, body := get(t, base+"/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics status = %d", code)
	}
	if !strings.HasPrefix(ctype, "text/plain; version=0.0.4") {
		t.Errorf("/metrics content type = %q", ctype)
	}
	if !strings.Contains(body, "kk_steps_total 10") {
		t.Errorf("/metrics missing counter, body:\n%s", body)
	}
	if strings.Count(body, "# TYPE") < 15+3+5 {
		t.Errorf("/metrics family count too low:\n%s", body)
	}

	code, ctype, body = get(t, base+"/statusz")
	if code != http.StatusOK {
		t.Fatalf("/statusz status = %d", code)
	}
	if !strings.HasPrefix(ctype, "application/json") {
		t.Errorf("/statusz content type = %q", ctype)
	}
	var st Status
	if err := json.Unmarshal([]byte(body), &st); err != nil {
		t.Fatalf("/statusz not JSON: %v\n%s", err, body)
	}
	if st.Superstep != 3 || st.ActiveWalkers != 42 || !st.LightMode {
		t.Errorf("/statusz gauges = %+v", st)
	}
	if st.Counters.Steps != 10 {
		t.Errorf("/statusz counters = %+v", st.Counters)
	}
	if len(st.Histograms) != 5 {
		t.Errorf("/statusz has %d histogram digests, want 5", len(st.Histograms))
	}

	if code, _, _ := get(t, base+"/debug/pprof/"); code != http.StatusOK {
		t.Errorf("/debug/pprof/ status = %d", code)
	}
	if code, _, body := get(t, base+"/"); code != http.StatusOK || !strings.Contains(body, "/metrics") {
		t.Errorf("index status = %d body = %q", code, body)
	}
	if code, _, _ := get(t, base+"/nope"); code != http.StatusNotFound {
		t.Errorf("unknown path status = %d, want 404", code)
	}
}

func TestAdminServerTraceEndpoint(t *testing.T) {
	reg := goldenRegistry()
	srv, err := NewServer("127.0.0.1:0", reg)
	if err != nil {
		t.Fatalf("NewServer: %v", err)
	}
	defer srv.Close()
	base := "http://" + srv.Addr()

	// Without a collector the endpoint 404s with a hint.
	code, _, body := get(t, base+"/trace")
	if code != http.StatusNotFound || !strings.Contains(body, "-trace") {
		t.Fatalf("/trace without collector: status %d body %q", code, body)
	}
}

// TestShutdownDrainsInflightScrape pins graceful close: a scrape in
// flight when Shutdown begins completes with a full response, and the
// listener refuses connections afterwards.
func TestShutdownDrainsInflightScrape(t *testing.T) {
	reg := goldenRegistry()
	srv, err := NewServer("127.0.0.1:0", reg)
	if err != nil {
		t.Fatalf("NewServer: %v", err)
	}
	base := "http://" + srv.Addr()

	// A CPU profile with seconds=1 holds its connection open for a full
	// second — a genuinely in-flight request while Shutdown runs. The
	// /metrics scrape alongside it models the fast path.
	var wg sync.WaitGroup
	var profileCode, metricsCode int
	var metricsBody string
	wg.Add(1)
	go func() {
		defer wg.Done()
		profileCode, _, _ = get(t, base+"/debug/pprof/profile?seconds=1")
	}()
	wg.Add(1)
	go func() {
		defer wg.Done()
		metricsCode, _, metricsBody = get(t, base+"/metrics")
	}()
	time.Sleep(150 * time.Millisecond) // both requests are now in flight or done

	start := time.Now()
	if err := srv.Shutdown(5 * time.Second); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	wg.Wait()
	if profileCode != http.StatusOK {
		t.Errorf("in-flight profile status = %d, want 200", profileCode)
	}
	if metricsCode != http.StatusOK || !strings.Contains(metricsBody, "kk_steps_total") {
		t.Errorf("in-flight scrape: status %d, body %q", metricsCode, metricsBody)
	}
	if waited := time.Since(start); waited < 500*time.Millisecond {
		t.Errorf("Shutdown returned after %v; it should have drained the 1s profile", waited)
	}
	if _, err := http.Get(base + "/metrics"); err == nil {
		t.Error("listener still accepting after Shutdown")
	}
}
