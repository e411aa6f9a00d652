package groundlink

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"radshield/internal/downlink"
	"radshield/internal/telemetry"
)

// Server exposes a downlink.Station over TCP: each accepted connection
// is one spacecraft link's frame stream, handled by its own goroutine
// pipeline (read → ingest → ACK write-back) from accept to close. Every
// connected link is served at once: a feed waits for each frame's ACK,
// so a link left unread would block its spacecraft. An HTTP handler
// serves the aggregated mission state and the telemetry snapshot.
type Server struct {
	st  *downlink.Station
	reg *telemetry.Registry

	mu     sync.Mutex
	ln     net.Listener
	conns  map[net.Conn]struct{}
	closed bool
	wg     sync.WaitGroup

	// ingestSeq is the receive-side clock surrogate for real
	// transports: campaigns pass simulated time into Station.Ingest
	// directly, but a TCP server has no simulated clock, so "now" is a
	// monotone ingest counter — deterministic, and still orders
	// last-seen across links.
	ingestSeq atomic.Int64
}

// NewServer wraps st. reg, when non-nil, is served at /telemetry.
func NewServer(st *downlink.Station, reg *telemetry.Registry) (*Server, error) {
	if st == nil {
		return nil, fmt.Errorf("groundlink: nil station")
	}
	return &Server{st: st, reg: reg, conns: make(map[net.Conn]struct{})}, nil
}

// Serve accepts link connections on ln until Close. It blocks; run it
// in a goroutine and call Close to stop.
func (s *Server) Serve(ln net.Listener) error {
	s.mu.Lock()
	if s.closed {
		// Close won the race against the Serve goroutine starting; that
		// is a clean shutdown, not an error.
		s.mu.Unlock()
		if ln != nil {
			ln.Close()
		}
		return nil
	}
	s.ln = ln
	s.mu.Unlock()
	for {
		conn, err := ln.Accept()
		if err != nil {
			if errors.Is(err, net.ErrClosed) {
				return nil
			}
			return err
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			return nil
		}
		s.conns[conn] = struct{}{}
		s.wg.Add(1)
		s.mu.Unlock()
		go func() {
			defer s.wg.Done()
			s.handle(conn)
			s.mu.Lock()
			delete(s.conns, conn)
			s.mu.Unlock()
		}()
	}
}

// Close stops accepting, closes every live link, and waits for the
// pipelines to drain.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	ln := s.ln
	for c := range s.conns {
		c.Close()
	}
	s.mu.Unlock()
	var err error
	if ln != nil {
		err = ln.Close()
	}
	s.wg.Wait()
	return err
}

// handle runs one link pipeline: frames in, ACKs out. The frame and
// ACK buffers belong to the connection and are reused for every frame.
func (s *Server) handle(conn net.Conn) {
	defer conn.Close()
	br := bufio.NewReaderSize(conn, 4*downlink.MaxFrameLen)
	raw := make([]byte, 0, downlink.MaxFrameLen)
	var acks []byte
	for {
		var err error
		if raw, err = downlink.ReadFrame(br, raw); err != nil {
			return // EOF, closed, or an unrecoverable protocol violation
		}
		now := time.Duration(s.ingestSeq.Add(1))
		acks = s.st.AppendAcks(acks[:0], raw, now)
		if len(acks) == 0 {
			continue
		}
		if _, err := conn.Write(acks); err != nil {
			return
		}
	}
}

// HTTPHandler serves the ground segment's operator surface:
//
//	GET /state      aggregated per-link mission state (JSON)
//	GET /telemetry  groundstation_* metrics snapshot (when a registry
//	                was attached)
func (s *Server) HTTPHandler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/state", func(w http.ResponseWriter, _ *http.Request) {
		b, err := s.st.StateJSON()
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		w.Write(b)
	})
	if s.reg != nil {
		mux.Handle("/telemetry", SnapshotHandler(s.reg))
	}
	return mux
}

// SnapshotHandler serves reg's JSON snapshot: the ground station's
// /telemetry and the live endpoint behind radbench's -telemetry-http
// flag. A nil registry serves empty snapshots.
func SnapshotHandler(reg *telemetry.Registry) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		if err := reg.WriteJSON(w); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	})
}
