// Command groundstation runs the ground segment of the downlink
// subsystem: a TCP server concurrently ingesting spacecraft frame
// streams (one pipeline per link through the sched pool), with an HTTP
// surface for the aggregated mission state and groundstation_* metrics.
//
// Flight-side peers are the -downlink flags of ildmon, radbench and
// faultcamp, or any client speaking the frame format in DOWNLINK.md.
// radbench -exp oskernel ships the watchdog_reset / recorder_recovered
// counts that /state tallies per link.
//
// Usage:
//
//	groundstation -listen :7007 -http :7008
//	ildmon -hours 1 -downlink localhost:7007
//	radbench -exp oskernel -downlink localhost:7007
//
// On SIGINT/SIGTERM the server stops accepting, drains the live link
// pipelines, prints the final per-link report and exits 0.
package main

import (
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"

	"radshield/internal/downlink"
	"radshield/internal/telemetry"
)

func main() {
	var (
		listen  = flag.String("listen", ":7007", "TCP address for spacecraft frame streams")
		httpAt  = flag.String("http", "", "HTTP address for /state and /telemetry (empty: no HTTP surface)")
		workers = flag.Int("workers", 0, "concurrent link pipelines; 0 = one per CPU")
		keep    = flag.Int("keep", 64, "priority-0 payloads retained per link for /state")
	)
	flag.Parse()
	log.SetFlags(0)
	log.SetPrefix("groundstation: ")

	reg := telemetry.NewRegistry(telemetry.DefaultEventCap)
	scfg := downlink.DefaultStationConfig()
	scfg.KeepPayloads = *keep
	scfg.Instruments = downlink.NewStationInstruments(reg)
	st := downlink.NewStation(scfg)
	srv, err := downlink.NewServer(st, *workers, reg)
	if err != nil {
		log.Fatal(err)
	}

	ln, err := net.Listen("tcp", *listen)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("listening for spacecraft links on %s\n", ln.Addr())

	if *httpAt != "" {
		hln, err := net.Listen("tcp", *httpAt)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("mission state on http://%s/state, metrics on /telemetry\n", hln.Addr())
		go func() {
			if err := http.Serve(hln, srv.HTTPHandler()); err != nil {
				// The listener dies with the process; surface anything else.
				fmt.Fprintf(os.Stderr, "groundstation: http: %v\n", err)
			}
		}()
	}

	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)
	serveDone := make(chan error, 1)
	go func() { serveDone <- srv.Serve(ln) }()

	select {
	case sig := <-sigs:
		fmt.Printf("\n%v: draining link pipelines\n", sig)
		if err := srv.Close(); err != nil {
			log.Fatal(err)
		}
		if err := <-serveDone; err != nil {
			log.Fatal(err)
		}
	case err := <-serveDone:
		if err != nil {
			log.Fatal(err)
		}
	}

	report := st.Report()
	if len(report) == 0 {
		fmt.Println("no spacecraft links seen")
		return
	}
	for _, rep := range report {
		var del, dup, skip uint64
		for vc := 0; vc < downlink.NumVC; vc++ {
			del += rep.VC[vc].Delivered
			dup += rep.VC[vc].Dups
			skip += rep.VC[vc].Skipped
		}
		fmt.Printf("link %d: %d frames delivered (%d p0), %d duplicates absorbed, %d skipped, %d rejected\n",
			rep.Link, del, rep.VC[0].Delivered, dup, skip, rep.Rejected)
		if rep.WatchdogResets > 0 || rep.RecorderRecoveries > 0 {
			fmt.Printf("link %d: %d watchdog resets, %d recorder recoveries reported\n",
				rep.Link, rep.WatchdogResets, rep.RecorderRecoveries)
		}
		if rep.CurrentPhase != "" || rep.AdaptMode != "" {
			fmt.Printf("link %d: last mission phase %q, adapt mode %q\n",
				rep.Link, rep.CurrentPhase, rep.AdaptMode)
		}
	}
}
