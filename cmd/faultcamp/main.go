// Command faultcamp runs the synthetic fault-injection campaign of the
// paper's Table 7 at configurable scale: N single-event upsets (or
// multi-bit upsets) injected into the image-processing workload under
// each redundancy scheme, classified against a golden run. It exits
// non-zero if any silent corruption escapes a redundancy scheme.
//
// The flight campaigns that inject faults into Radshield itself —
// sensor and replica faults, OS-level failures, adaptive protection —
// run with their verdict gates under radbench -exp guard, oskernel and
// adaptive.
//
// Usage:
//
//	faultcamp -runs 100
//	faultcamp -runs 20 -size 65536 -seed 3
package main

import (
	"errors"
	"flag"
	"fmt"
	"log"
	"time"

	"radshield/internal/downlink"
	"radshield/internal/experiments"
	"radshield/internal/fault"
	"radshield/internal/profiling"
	"radshield/internal/resultcache"
)

// ship streams a campaign verdict to the ground station when -downlink
// is engaged; faultcamp has no mission timeline, so the feed's clock is
// a verdict counter.
var (
	feed  *downlink.Feed
	dlNow time.Duration
)

func ship(vc uint8, msg string) {
	if feed == nil {
		return
	}
	dlNow += time.Millisecond
	err := feed.Enqueue(vc, []byte(msg), dlNow)
	if err == nil {
		dlNow += time.Millisecond
		err = feed.Tick(dlNow)
	}
	if err != nil {
		log.Fatalf("downlink: %v", err)
	}
}

func main() {
	var (
		runs    = flag.Int("runs", 20, "injections per scheme (paper: 20)")
		size    = flag.Int("size", 64<<10, "workload input size in bytes")
		seed    = flag.Int64("seed", 7, "campaign seed")
		workers = flag.Int("workers", 0, "campaign scheduler width; 0 = one worker per CPU (output is identical at any width)")
		dlAddr  = flag.String("downlink", "", "stream campaign verdicts to a groundstation at this TCP address (see cmd/groundstation)")
		rcDir   = flag.String("resultcache", "", "replay unchanged campaign arms from this content-addressed cache directory, created if absent (see RESULTCACHE.md)")
		dlLink  = flag.Int("link-id", 3, "spacecraft link id for -downlink")
		cpuProf = flag.String("cpuprofile", "", "write a pprof CPU profile of the campaign to this file (see PERFORMANCE.md)")
		memProf = flag.String("memprofile", "", "write a pprof heap profile to this file at exit (see PERFORMANCE.md)")
	)
	flag.Parse()
	log.SetFlags(0)
	log.SetPrefix("faultcamp: ")

	stopProf, err := profiling.Start(*cpuProf, *memProf)
	if err != nil {
		log.Fatal(err)
	}

	if *dlAddr != "" {
		var err error
		if feed, err = downlink.DialFeed(*dlAddr, uint16(*dlLink)); err != nil {
			log.Fatal(err)
		}
		defer feed.Close()
		fmt.Printf("downlink engaged: link %d to %s\n", *dlLink, *dlAddr)
	}

	// The result cache replays arms whose (config, seed, code version)
	// key matches a prior run; a dir locked by another process degrades
	// to an uncached run rather than blocking the campaign.
	var store *resultcache.Store
	if *rcDir != "" {
		var err error
		store, err = resultcache.Open(*rcDir)
		if errors.Is(err, resultcache.ErrLocked) {
			log.Printf("result cache %s is locked by another process; running uncached", *rcDir)
		} else if err != nil {
			log.Fatal(err)
		}
	}

	cfg := experiments.Table7Config{Runs: *runs, Size: *size, Seed: *seed, Workers: *workers, Cache: store}
	tallies, tbl, err := experiments.Table7(cfg)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(tbl)

	// The safety verdict operators care about: SDC count under
	// protection.
	protectedSDC := tallies["3-MR"].Counts[fault.SDC] +
		tallies["EMR"].Counts[fault.SDC] +
		tallies["EMR + MBU"].Counts[fault.SDC]
	unprotectedSDC := tallies["None"].Counts[fault.SDC]
	fmt.Printf("silent corruptions: %d unprotected, %d under redundancy schemes, %d under the checksum guard\n",
		unprotectedSDC, protectedSDC, tallies["Checksum"].Counts[fault.SDC])
	fmt.Println("(the checksum guard detects memory strikes but is blind to pipeline strikes — paper §2.2)")
	if protectedSDC > 0 {
		ship(0, fmt.Sprintf("protection_failure campaign=table7 sdc=%d", protectedSDC))
		drainFeed()
		log.Fatal("PROTECTION FAILURE: SDC escaped a redundancy scheme")
	}
	ship(1, fmt.Sprintf("table7 runs=%d unprotected_sdc=%d protected_sdc=0", *runs, unprotectedSDC))
	ship(0, "campaign_complete campaign=table7 verdict=protected")
	drainFeed()
	if store != nil {
		st := store.Stats()
		if err := store.Close(); err != nil {
			log.Fatalf("result cache: %v", err)
		}
		fmt.Printf("resultcache: %d hits, %d misses (%.1f%% hit rate), %d entries, %d bytes in %s\n",
			st.Hits, st.Misses, 100*st.HitRate(), st.Entries, st.Bytes, *rcDir)
	}
	if err := stopProf(); err != nil {
		log.Fatal(err)
	}
}

// drainFeed flushes any unacknowledged frames before exit.
func drainFeed() {
	if feed == nil {
		return
	}
	if _, err := feed.Drain(dlNow+time.Millisecond, dlNow+time.Minute, time.Millisecond); err != nil {
		log.Fatalf("downlink: %v", err)
	}
}
