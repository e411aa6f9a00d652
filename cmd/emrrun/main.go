// Command emrrun executes one of the paper's workloads under a chosen
// redundancy scheme and reliability frontier, printing the full
// accounting report (runtime breakdown, votes, energy, cache behaviour).
//
// Usage:
//
//	emrrun -workload encryption -scheme emr -frontier dram -size 1048576
//	emrrun -workload image-processing -scheme 3mr
//	emrrun -workload dnn -scheme checksum
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"strings"

	"radshield/internal/emr"
	"radshield/internal/fault"
	"radshield/internal/workloads"
)

func parseScheme(s string) (fault.Scheme, error) {
	switch strings.ToLower(s) {
	case "emr":
		return fault.SchemeEMR, nil
	case "3mr", "serial", "serial3mr":
		return fault.SchemeSerial3MR, nil
	case "unprotected", "parallel":
		return fault.SchemeUnprotectedParallel, nil
	case "none":
		return fault.SchemeNone, nil
	case "checksum":
		return fault.SchemeChecksum, nil
	default:
		return 0, fmt.Errorf("unknown scheme %q (emr|3mr|unprotected|none|checksum)", s)
	}
}

func parseFrontier(s string) (emr.Frontier, error) {
	switch strings.ToLower(s) {
	case "dram":
		return emr.FrontierDRAM, nil
	case "storage", "disk":
		return emr.FrontierStorage, nil
	default:
		return 0, fmt.Errorf("unknown frontier %q (dram|storage)", s)
	}
}

// runFlags are the flags checkFlags vets.
type runFlags struct {
	workload, scheme, frontier string
	size                       int
	threshold                  float64
}

// checkFlags rejects flag values emrrun cannot run, before it builds a
// runtime: an unknown workload, scheme or frontier, an input size below
// one byte, or a replication threshold that is NaN or below 0. It
// returns the workload, scheme and frontier to run.
func checkFlags(f runFlags) (workloads.Builder, fault.Scheme, emr.Frontier, error) {
	b, err := workloads.ByName(f.workload)
	if err != nil {
		return workloads.Builder{}, 0, 0, err
	}
	sch, err := parseScheme(f.scheme)
	if err != nil {
		return workloads.Builder{}, 0, 0, err
	}
	fr, err := parseFrontier(f.frontier)
	if err != nil {
		return workloads.Builder{}, 0, 0, err
	}
	if f.size < 1 {
		return workloads.Builder{}, 0, 0, fmt.Errorf("-size %d, want at least 1", f.size)
	}
	if !(f.threshold >= 0) {
		return workloads.Builder{}, 0, 0, fmt.Errorf("-replication-threshold %v, want at least 0", f.threshold)
	}
	return b, sch, fr, nil
}

func main() {
	var (
		workload  = flag.String("workload", "encryption", "encryption|compression|intrusion-detection|image-processing|dnn")
		scheme    = flag.String("scheme", "emr", "emr|3mr|unprotected|none|checksum")
		frontier  = flag.String("frontier", "dram", "dram|storage")
		size      = flag.Int("size", 256<<10, "input size in bytes")
		seed      = flag.Int64("seed", 42, "synthetic data seed")
		threshold = flag.Float64("replication-threshold", 0.01, "common-data replication threshold (>1 disables, 0 replicates all)")
	)
	flag.Parse()
	log.SetFlags(0)
	log.SetPrefix("emrrun: ")

	b, sch, fr, err := checkFlags(runFlags{
		workload: *workload, scheme: *scheme, frontier: *frontier,
		size: *size, threshold: *threshold,
	})
	if err != nil {
		log.Print(err)
		os.Exit(2)
	}

	cfg := emr.DefaultConfig()
	cfg.Scheme = sch
	cfg.Frontier = fr
	if fr == emr.FrontierStorage {
		cfg.DRAMECC = false // the frontier-at-storage configuration has no ECC DRAM
	}
	cfg.DRAMSize = 512 << 20
	cfg.StorageSize = 512 << 20
	cfg.ReplicationThreshold = *threshold
	rt, err := emr.New(cfg)
	if err != nil {
		log.Fatal(err)
	}
	spec, err := b.Build(rt, *size, *seed)
	if err != nil {
		log.Fatal(err)
	}
	res, err := rt.Run(spec)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("workload: %s  (%d datasets, %d bytes input)\n", b.Name, res.Report.Datasets, res.Report.InputBytes)
	fmt.Println(res.Report.String())
	ok := 0
	for _, out := range res.Outputs {
		if out != nil {
			ok++
		}
	}
	fmt.Printf("outputs: %d/%d datasets completed\n", ok, len(res.Outputs))
	if b.Name == "image-processing" {
		if sad, y, x, err := workloads.BestMatch(res.Outputs); err == nil {
			fmt.Printf("global localization: best match at (x=%d, y=%d) with SAD %d\n", x, y, sad)
		}
	}
}
