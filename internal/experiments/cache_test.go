package experiments

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"strings"
	"testing"
	"time"

	"radshield/internal/power"
	"radshield/internal/resultcache"
)

// TestCachedArmSitesAreProven enforces the cached ⊆ proven contract
// from cache.go: every CachedArm or CachedArms call site in this
// package must sit inside a region radlint's armpurity analyzer proves
// deterministic — either a func literal passed as the job argument to
// sched.Map, or the body of an exported *Campaign entry point.
// Caching an unproven arm would replay results the determinism checker
// never vouched for; add the proof first.
func TestCachedArmSitesAreProven(t *testing.T) {
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, ".", func(fi fs.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	var proven []ast.Node // armpurity-proven regions, by source extent
	var sites []*ast.CallExpr
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				switch v := n.(type) {
				case *ast.FuncDecl:
					if v.Recv == nil && v.Name.IsExported() &&
						strings.HasSuffix(v.Name.Name, "Campaign") && v.Body != nil {
						proven = append(proven, v.Body)
					}
				case *ast.CallExpr:
					sel, ok := v.Fun.(*ast.SelectorExpr)
					if !ok {
						return true
					}
					if id, ok := sel.X.(*ast.Ident); ok && id.Name == "sched" &&
						sel.Sel.Name == "Map" && len(v.Args) > 2 {
						if fl, ok := v.Args[2].(*ast.FuncLit); ok {
							proven = append(proven, fl)
						}
					}
					if sel.Sel.Name == "CachedArm" || sel.Sel.Name == "CachedArms" {
						sites = append(sites, v)
					}
				}
				return true
			})
		}
	}
	if len(sites) < 11 {
		t.Fatalf("found %d CachedArm and CachedArms call sites, want at least one per cached campaign (11)", len(sites))
	}
	for _, site := range sites {
		covered := false
		for _, r := range proven {
			if site.Pos() >= r.Pos() && site.End() <= r.End() {
				covered = true
				break
			}
		}
		if !covered {
			t.Errorf("%s: cached-arm call site outside the armpurity-proven set "+
				"(must be inside a sched.Map job or an exported *Campaign body)",
				fset.Position(site.Pos()))
		}
	}
}

func openCacheStore(t testing.TB, dir string) *resultcache.Store {
	t.Helper()
	s, err := resultcache.Open(dir)
	if err != nil {
		t.Fatalf("open cache store: %v", err)
	}
	return s
}

func closeCacheStore(t testing.TB, s *resultcache.Store) resultcache.Stats {
	t.Helper()
	st := s.Stats()
	if err := s.Close(); err != nil {
		t.Fatalf("close cache store: %v", err)
	}
	return st
}

// cacheCampaigns drives every cached campaign through one seam-agnostic
// runner: run(workers, store) renders the campaign with the given cache
// store (nil = caching disabled).
var cacheCampaigns = []struct {
	name  string
	short bool // run under -short too
	run   func(workers int, store *resultcache.Store) (string, error)
}{
	{"MissionSurvival", false, func(workers int, store *resultcache.Store) (string, error) {
		c := DefaultMissionConfig()
		c.Missions = 2
		c.Duration = time.Hour
		c.Workers = workers
		c.Cache = store
		_, _, tbl, err := MissionSurvival(c)
		if err != nil {
			return "", err
		}
		return tbl.String(), nil
	}},
	{"Table2", true, func(workers int, store *resultcache.Store) (string, error) {
		c := equivSEL(workers)
		c.Cache = store
		_, tbl, err := Table2(c)
		if err != nil {
			return "", err
		}
		return tbl.String(), nil
	}},
	{"Fig10", true, func(workers int, store *resultcache.Store) (string, error) {
		c := equivSEL(workers)
		c.Cache = store
		fig, err := Fig10(c, 2)
		if err != nil {
			return "", err
		}
		return fig.String(), nil
	}},
	{"ThresholdSweep", true, func(workers int, store *resultcache.Store) (string, error) {
		c := equivSEL(workers)
		c.Cache = store
		_, tbl, err := ThresholdSweep(c, 2)
		if err != nil {
			return "", err
		}
		return tbl.String(), nil
	}},
	{"Table7", true, func(workers int, store *resultcache.Store) (string, error) {
		c := Table7Config{Runs: 4, Size: 16 << 10, Seed: 7, Workers: workers, Cache: store}
		_, tbl, err := Table7(c)
		if err != nil {
			return "", err
		}
		return tbl.String(), nil
	}},
	{"Fig11", true, func(workers int, store *resultcache.Store) (string, error) {
		c := SEUConfig{Size: 16 << 10, Seed: 42, Workers: workers, Cache: store}
		_, tbl, err := Fig11(c)
		if err != nil {
			return "", err
		}
		return tbl.String(), nil
	}},
	{"GuardCampaign", false, func(workers int, store *resultcache.Store) (string, error) {
		c := equivGuard(workers)
		c.SEL.Cache = store
		_, tbl, err := GuardCampaign(c)
		if err != nil {
			return "", err
		}
		return tbl.String(), nil
	}},
	{"WatchdogCampaign", true, func(workers int, store *resultcache.Store) (string, error) {
		c := DefaultWatchdogCampaignConfig()
		c.Workers = workers
		c.Cache = store
		_, tbl, err := WatchdogCampaign(c)
		if err != nil {
			return "", err
		}
		return tbl.String(), nil
	}},
	{"DownlinkCampaign", false, func(workers int, store *resultcache.Store) (string, error) {
		c := equivDownlink(workers)
		c.Cache = store
		_, tbl, err := DownlinkCampaign(c)
		if err != nil {
			return "", err
		}
		return tbl.String(), nil
	}},
	{"OSFaultCampaign", false, func(workers int, store *resultcache.Store) (string, error) {
		c := equivOSFault(workers)
		c.SEL.Cache = store
		_, tbl, err := OSFaultCampaign(c)
		if err != nil {
			return "", err
		}
		return tbl.String(), nil
	}},
	{"AdaptiveCampaign", false, func(workers int, store *resultcache.Store) (string, error) {
		c := equivAdaptive(workers)
		c.SEL.Cache = store
		_, tbl, err := AdaptiveCampaign(c)
		if err != nil {
			return "", err
		}
		return tbl.String(), nil
	}},
}

// TestCacheEquivalence is the soundness gate for the result cache:
// for every cached campaign, the rendered output must be byte-identical
// across (a) caching disabled, (b) a cold cache populating the store,
// and (c) a warm cache replaying every arm — and the warm run must be
// replays only (zero misses), at a different worker width than the run
// that populated it.
func TestCacheEquivalence(t *testing.T) {
	for _, tc := range cacheCampaigns {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			if testing.Short() && !tc.short {
				t.Skip("long campaign")
			}
			golden, err := tc.run(1, nil)
			if err != nil {
				t.Fatalf("uncached: %v", err)
			}
			if golden == "" {
				t.Fatal("uncached run rendered nothing")
			}

			dir := t.TempDir()
			s := openCacheStore(t, dir)
			cold, err := tc.run(1, s)
			coldStats := closeCacheStore(t, s)
			if err != nil {
				t.Fatalf("cold cache: %v", err)
			}
			if cold != golden {
				t.Errorf("cold-cache output differs from uncached\n--- uncached ---\n%s\n--- cold ---\n%s", golden, cold)
			}
			if coldStats.Misses == 0 || coldStats.Hits != 0 {
				t.Errorf("cold stats = %+v, want all misses and no hits", coldStats)
			}
			if coldStats.Entries == 0 {
				t.Error("cold run stored no entries")
			}

			s = openCacheStore(t, dir)
			warm, err := tc.run(4, s)
			warmStats := closeCacheStore(t, s)
			if err != nil {
				t.Fatalf("warm cache: %v", err)
			}
			if warm != golden {
				t.Errorf("warm-cache output differs from uncached\n--- uncached ---\n%s\n--- warm ---\n%s", golden, warm)
			}
			if warmStats.Misses != 0 {
				t.Errorf("warm stats = %+v, want zero misses (every arm replayed)", warmStats)
			}
			if warmStats.Hits == 0 {
				t.Error("warm run replayed nothing")
			}
		})
	}
}

// minWarmSpeedup floors cold time over warm time for a mission campaign
// replayed from the result cache. Replay measures hundreds of times
// faster, so a slow disk cannot flake the floor, while a store that
// silently recomputes (speedup ≈ 1) is still caught.
const minWarmSpeedup = 10

// BenchmarkMissionSurvivalWarmCache measures the result cache's replay
// speedup: one cold pass fills an isolated store, then each timed
// iteration re-runs the identical campaign from it. The warm rendering
// must equal the cold one, and the speedup must reach minWarmSpeedup.
// CI runs it once per commit (-benchtime 1x).
func BenchmarkMissionSurvivalWarmCache(b *testing.B) {
	cfg := DefaultMissionConfig()
	cfg.Missions = 4
	cfg.Duration = 4 * time.Hour
	dir := b.TempDir()
	run := func() string {
		cfg.Cache = openCacheStore(b, dir)
		_, _, tbl, err := MissionSurvival(cfg)
		closeCacheStore(b, cfg.Cache)
		if err != nil {
			b.Fatal(err)
		}
		return tbl.String()
	}

	golden := run()
	cold := b.Elapsed()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if run() != golden {
			b.Fatal("warm-cache rendering differs from the cold run")
		}
	}
	speedup := float64(cold) / float64(b.Elapsed()/time.Duration(b.N))
	b.ReportMetric(speedup, "warm-speedup")
	if speedup < minWarmSpeedup {
		b.Errorf("warm-speedup %.1f, want at least %d", speedup, minWarmSpeedup)
	}
}

// TestCacheChangedConfigRecomputes proves invalidation: warming the
// store under one config must not let a different config replay stale
// arms — changed inputs derive different keys, so every arm recomputes
// and the output matches an uncached run of the new config.
func TestCacheChangedConfigRecomputes(t *testing.T) {
	table7 := func(workers int, seed int64, store *resultcache.Store) string {
		t.Helper()
		c := Table7Config{Runs: 4, Size: 16 << 10, Seed: seed, Workers: workers, Cache: store}
		_, tbl, err := Table7(c)
		if err != nil {
			t.Fatalf("Table7 seed=%d: %v", seed, err)
		}
		return tbl.String()
	}

	dir := t.TempDir()
	s := openCacheStore(t, dir)
	table7(2, 7, s)
	closeCacheStore(t, s)

	goldenB := table7(1, 8, nil)
	s = openCacheStore(t, dir)
	gotB := table7(2, 8, s)
	stats := closeCacheStore(t, s)
	if gotB != goldenB {
		t.Errorf("changed-seed run replayed stale results\n--- uncached ---\n%s\n--- cached ---\n%s", goldenB, gotB)
	}
	if stats.Hits != 0 {
		t.Errorf("changed-seed run hit %d stale entries, want 0", stats.Hits)
	}
	if stats.Misses == 0 {
		t.Error("changed-seed run recorded no misses")
	}

	// The original config still replays fully from the same store.
	goldenA := table7(1, 7, nil)
	s = openCacheStore(t, dir)
	gotA := table7(2, 7, s)
	stats = closeCacheStore(t, s)
	if gotA != goldenA {
		t.Errorf("original config replay differs from uncached run")
	}
	if stats.Misses != 0 {
		t.Errorf("original config re-run missed %d arms, want full replay", stats.Misses)
	}
}

// TestCacheGuardCampaignGridIdentity pins the documented invalidation
// property that trial-index-seeded campaigns key on the grid index:
// shrinking the sweep grid changes arm identities, so a warmed store
// must not replay arms into different grid positions.
func TestCacheGuardCampaignGridIdentity(t *testing.T) {
	if testing.Short() {
		t.Skip("long campaign")
	}
	run := func(kinds []power.FaultKind, store *resultcache.Store) string {
		t.Helper()
		c := equivGuard(2)
		c.Kinds = kinds
		c.SEL.Cache = store
		_, tbl, err := GuardCampaign(c)
		if err != nil {
			t.Fatalf("GuardCampaign: %v", err)
		}
		return tbl.String()
	}

	dir := t.TempDir()
	s := openCacheStore(t, dir)
	run([]power.FaultKind{power.FaultStuck, power.FaultDropout}, s)
	closeCacheStore(t, s)

	golden := run([]power.FaultKind{power.FaultDropout}, nil)
	s = openCacheStore(t, dir)
	got := run([]power.FaultKind{power.FaultDropout}, s)
	closeCacheStore(t, s)
	if got != golden {
		t.Errorf("reshaped grid replayed stale arms\n--- uncached ---\n%s\n--- cached ---\n%s", golden, got)
	}
}
