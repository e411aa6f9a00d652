package groundlink

import (
	"bufio"
	"bytes"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"radshield/internal/downlink"
	"radshield/internal/telemetry"
)

// startServer spins up a Server on a loopback listener and returns the
// dial address plus a shutdown func.
func startServer(t *testing.T, st *downlink.Station) (string, *Server, func()) {
	t.Helper()
	srv, err := NewServer(st, nil)
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()
	return ln.Addr().String(), srv, func() {
		if err := srv.Close(); err != nil {
			t.Errorf("close: %v", err)
		}
		if err := <-done; err != nil {
			t.Errorf("serve: %v", err)
		}
	}
}

// TestServerConcurrentLinks streams frames from several simulated
// spacecraft at once — each its own TCP connection — and verifies every
// frame lands exactly once with an ACK flowing back. Run under -race
// this doubles as the station's concurrency test.
func TestServerConcurrentLinks(t *testing.T) {
	st := downlink.NewStation(downlink.DefaultStationConfig())
	addr, _, shutdown := startServer(t, st)
	defer shutdown()

	const links, frames = 5, 40
	var wg sync.WaitGroup
	errs := make(chan error, links)
	for li := 0; li < links; li++ {
		wg.Add(1)
		go func(link uint16) {
			defer wg.Done()
			conn, err := net.Dial("tcp", addr)
			if err != nil {
				errs <- err
				return
			}
			defer conn.Close()
			br := bufio.NewReader(conn)
			for seq := uint32(0); seq < frames; seq++ {
				raw, err := downlink.EncodeFrame(downlink.Frame{
					Type: downlink.FrameData, Link: link, VC: 0,
					Seq: seq, Payload: []byte(fmt.Sprintf("link%d-frame%d", link, seq)),
				})
				if err != nil {
					errs <- err
					return
				}
				if _, err := conn.Write(raw); err != nil {
					errs <- err
					return
				}
				// Wait for the cumulative ACK so the stream stays in
				// lockstep (the test's flow control, not the protocol's).
				ackRaw, err := downlink.ReadFrame(br, nil)
				if err != nil {
					errs <- fmt.Errorf("link %d ack read: %w", link, err)
					return
				}
				f, _, err := downlink.DecodeFrame(ackRaw)
				if err != nil {
					errs <- err
					return
				}
				if next, _ := downlink.AckValue(f); next != seq+1 {
					errs <- fmt.Errorf("link %d: ack %d after frame %d", link, next, seq)
					return
				}
			}
		}(uint16(li + 1))
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	for li := 1; li <= links; li++ {
		if got := st.Delivered(uint16(li), 0); got != frames {
			t.Fatalf("link %d delivered %d, want %d", li, got, frames)
		}
	}
}

// TestServerServesEveryFeed keeps more feeds connected than the host
// has CPUs, and every one must drain: a feed waits for each frame's
// ACK, so a station that left one connected link unread would block
// that spacecraft for good. Each feed sends one frame on every channel,
// and each must be delivered exactly once.
func TestServerServesEveryFeed(t *testing.T) {
	st := downlink.NewStation(downlink.DefaultStationConfig())
	addr, _, shutdown := startServer(t, st)
	defer shutdown()

	links := runtime.GOMAXPROCS(0) + 1
	feeds := make([]*Feed, links)
	for i := range feeds {
		f, err := DialFeed(addr, i+1)
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		feeds[i] = f
	}
	errs := make(chan error, links)
	for i, f := range feeds {
		go func() {
			for vc := uint8(0); vc < downlink.NumVC; vc++ {
				if err := f.Enqueue(vc, fmt.Appendf(nil, "link%d-vc%d", i+1, vc), time.Millisecond); err != nil {
					errs <- err
					return
				}
			}
			_, err := f.Drain(time.Millisecond, time.Second, time.Millisecond)
			errs <- err
		}()
	}
	timeout := time.After(20 * time.Second)
	for range feeds {
		select {
		case err := <-errs:
			if err != nil {
				t.Fatal(err)
			}
		case <-timeout:
			t.Fatalf("with %d feeds connected, a feed never drained: the station left its link unread", links)
		}
	}
	for _, rep := range st.Report() {
		for vc, c := range rep.VC {
			if c.Delivered != 1 || c.Dups != 0 || c.Skipped != 0 {
				t.Errorf("link %d vc %d: %d delivered, %d duplicates, %d skipped; want exactly one delivery",
					rep.Link, vc, c.Delivered, c.Dups, c.Skipped)
			}
		}
	}
	if got := len(st.Report()); got != links {
		t.Fatalf("station saw %d links, want %d", got, links)
	}
}

// DialFeed checks a command-line link id before narrowing it to the
// frame's 16 bits: 65537 would otherwise stream as link 1 and merge
// with another spacecraft at the ground station.
func TestDialFeedLinkID(t *testing.T) {
	st := downlink.NewStation(downlink.DefaultStationConfig())
	addr, _, shutdown := startServer(t, st)
	defer shutdown()
	for _, bad := range []int{-1, 0, 0x10000, 0x10001} {
		if f, err := DialFeed(addr, bad); err == nil || !strings.Contains(err.Error(), "out of range") {
			if f != nil {
				f.Close()
			}
			t.Errorf("link id %d: err = %v, want out of range", bad, err)
		}
	}
	f, err := DialFeed(addr, 0xFFFF)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := f.Enqueue(0, []byte("hello"), time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Drain(time.Millisecond, time.Second, time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if got := st.Delivered(0xFFFF, 0); got != 1 {
		t.Fatalf("link 65535 delivered %d frames, want 1", got)
	}
}

// TestServerResyncsAfterGarbage interleaves line noise with valid
// frames on one stream; ReadFrame must skip the noise and recover every
// real frame.
func TestServerResyncsAfterGarbage(t *testing.T) {
	st := downlink.NewStation(downlink.DefaultStationConfig())
	addr, _, shutdown := startServer(t, st)
	defer shutdown()

	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	br := bufio.NewReader(conn)
	for seq := uint32(0); seq < 3; seq++ {
		conn.Write([]byte(strings.Repeat("\xFF\x00noise", 7)))
		raw, _ := downlink.EncodeFrame(downlink.Frame{Type: downlink.FrameData, Link: 2, VC: 0, Seq: seq, Payload: []byte("real")})
		conn.Write(raw)
		if _, err := downlink.ReadFrame(br, nil); err != nil {
			t.Fatalf("ack %d: %v", seq, err)
		}
	}
	if got := st.Delivered(2, 0); got != 3 {
		t.Fatalf("delivered %d, want 3", got)
	}
}

func TestServerHTTPState(t *testing.T) {
	st := downlink.NewStation(downlink.DefaultStationConfig())
	raw, err := downlink.EncodeFrame(downlink.Frame{Type: downlink.FrameData, Link: 4, Payload: []byte("hello ground")})
	if err != nil {
		t.Fatal(err)
	}
	st.Ingest(raw, time.Second)
	srv, err := NewServer(st, nil)
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(srv.HTTPHandler())
	defer hs.Close()

	resp, err := hs.Client().Get(hs.URL + "/state")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf [4096]byte
	n, _ := resp.Body.Read(buf[:])
	body := string(buf[:n])
	if resp.StatusCode != 200 || !strings.Contains(body, `"link": 4`) {
		t.Fatalf("GET /state: %d %q", resp.StatusCode, body)
	}
	if !strings.Contains(body, "hello ground") {
		t.Fatalf("recent payload missing from state: %q", body)
	}
}

// TestServerHTTPTelemetry checks /telemetry serves the attached
// registry's snapshot byte for byte, and is absent without a registry.
func TestServerHTTPTelemetry(t *testing.T) {
	reg := telemetry.NewRegistry(telemetry.DefaultEventCap)
	cfg := downlink.DefaultStationConfig()
	cfg.Instruments = downlink.NewStationInstruments(reg)
	st := downlink.NewStation(cfg)
	raw, err := downlink.EncodeFrame(downlink.Frame{Type: downlink.FrameData, Link: 3, Payload: []byte("hk")})
	if err != nil {
		t.Fatal(err)
	}
	st.Ingest(raw, time.Second)
	for _, tc := range []struct {
		reg  *telemetry.Registry
		code int
	}{{reg, http.StatusOK}, {nil, http.StatusNotFound}} {
		srv, err := NewServer(st, tc.reg)
		if err != nil {
			t.Fatal(err)
		}
		rec := httptest.NewRecorder()
		srv.HTTPHandler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/telemetry", nil))
		if rec.Code != tc.code {
			t.Fatalf("GET /telemetry with registry %v: status %d, want %d", tc.reg != nil, rec.Code, tc.code)
		}
		if tc.reg == nil {
			continue
		}
		var want bytes.Buffer
		if err := reg.WriteJSON(&want); err != nil {
			t.Fatal(err)
		}
		if got := rec.Body.String(); got != want.String() || !strings.Contains(got, "groundstation_frames_delivered_total") {
			t.Fatalf("GET /telemetry served\n%s\nwant the registry's snapshot\n%s", got, want.String())
		}
	}
}

func TestServerCloseIsIdempotent(t *testing.T) {
	st := downlink.NewStation(downlink.DefaultStationConfig())
	_, srv, shutdown := startServer(t, st)
	shutdown()
	if err := srv.Close(); err != nil {
		t.Fatalf("second close: %v", err)
	}
	if err := srv.Serve(nil); err != nil {
		t.Fatalf("Serve on a closed server should exit cleanly: %v", err)
	}
}

func TestNewServerValidation(t *testing.T) {
	if _, err := NewServer(nil, nil); err == nil {
		t.Fatal("nil station accepted")
	}
}
