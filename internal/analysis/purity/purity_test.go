package purity

import "testing"

func TestTaintString(t *testing.T) {
	cases := []struct {
		taint Taint
		want  string
	}{
		{0, "pure"},
		{WallClock, "wall-clock read"},
		{GlobalRand, "global randomness"},
		{WallClock | GlobalWrite, "wall-clock read, write of package-level state"},
		{CapturedWrite, "write to captured variable"},
	}
	for _, c := range cases {
		if got := c.taint.String(); got != c.want {
			t.Errorf("Taint(%b).String() = %q, want %q", c.taint, got, c.want)
		}
	}
}

func TestCauseDescribe(t *testing.T) {
	direct := Cause{Taint: WallClock, What: "time.Now"}
	if got, want := direct.Describe(), "time.Now (wall-clock read)"; got != want {
		t.Errorf("direct cause: %q, want %q", got, want)
	}
	chained := Cause{Taint: GlobalWrite, What: "package-level variable leaf.runs", Chain: []string{"mid.Count", "leaf.Bump"}}
	want := "package-level variable leaf.runs (write of package-level state) via mid.Count → leaf.Bump"
	if got := chained.Describe(); got != want {
		t.Errorf("chained cause: %q, want %q", got, want)
	}
}

func TestSummaryAddDedupsAndBounds(t *testing.T) {
	s := &Summary{}
	for i := 0; i < 3; i++ {
		s.add(Cause{Taint: WallClock, What: "time.Now"})
	}
	if len(s.Causes) != 1 {
		t.Errorf("duplicate causes recorded: %d", len(s.Causes))
	}
	for i := 0; i < 2*maxCauses; i++ {
		s.add(Cause{Taint: GlobalRead, What: "package-level variable p.v" + string(rune('a'+i))})
	}
	if len(s.Causes) > maxCauses {
		t.Errorf("causes unbounded: %d > %d", len(s.Causes), maxCauses)
	}
	if s.Taints&(WallClock|GlobalRead) != WallClock|GlobalRead {
		t.Errorf("taint bits lost past the cause bound: %v", s.Taints)
	}
	if !s.Pure(GlobalRand) || s.Pure(WallClock) {
		t.Errorf("Pure mask logic wrong: taints %v", s.Taints)
	}
}
