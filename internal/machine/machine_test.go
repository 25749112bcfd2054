package machine

import (
	"strings"
	"testing"
)

func TestNewValidation(t *testing.T) {
	cases := []struct {
		name          string
		clusters      []ClusterSpec
		add, mul, mem int
		wantErr       bool
	}{
		{"ok", []ClusterSpec{{1, 1, 1}}, 3, 3, 1, false},
		{"empty name handled separately", []ClusterSpec{{1, 1, 1}}, 3, 3, 1, false},
		{"no clusters", nil, 3, 3, 1, true},
		{"zero latency", []ClusterSpec{{1, 1, 1}}, 0, 3, 1, true},
		{"negative latency", []ClusterSpec{{1, 1, 1}}, 3, -1, 1, true},
		{"empty cluster", []ClusterSpec{{0, 0, 0}}, 3, 3, 1, true},
		{"negative count", []ClusterSpec{{-1, 1, 1}}, 3, 3, 1, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := New("m", tc.clusters, tc.add, tc.mul, tc.mem)
			if (err != nil) != tc.wantErr {
				t.Fatalf("New(%v) err=%v, wantErr=%v", tc.clusters, err, tc.wantErr)
			}
		})
	}
	if _, err := New("", []ClusterSpec{{1, 1, 1}}, 3, 3, 1); err == nil {
		t.Fatal("New with empty name should fail")
	}
}

func TestUnitLayout(t *testing.T) {
	c := MustNew("m", []ClusterSpec{{1, 2, 3}, {2, 1, 0}}, 3, 6, 1)
	if got := c.NumUnits(); got != 9 {
		t.Fatalf("NumUnits = %d, want 9", got)
	}
	if got := c.NumClusters(); got != 2 {
		t.Fatalf("NumClusters = %d, want 2", got)
	}
	if got := c.CountOfKind(Adder); got != 3 {
		t.Fatalf("CountOfKind(Adder) = %d, want 3", got)
	}
	if got := c.CountOfKind(Multiplier); got != 3 {
		t.Fatalf("CountOfKind(Multiplier) = %d, want 3", got)
	}
	if got := c.CountOfKind(MemPort); got != 3 {
		t.Fatalf("CountOfKind(MemPort) = %d, want 3", got)
	}
	// Each unit's Index must equal its position and be consistent with
	// AppendUnitsOfKind.
	for i := 0; i < c.NumUnits(); i++ {
		if c.Unit(i).Index != i {
			t.Fatalf("Unit(%d).Index = %d", i, c.Unit(i).Index)
		}
	}
	for _, k := range Kinds {
		for _, ui := range c.AppendUnitsOfKind(nil, k) {
			if c.Unit(ui).Kind != k {
				t.Fatalf("unit %d listed under kind %v but has kind %v", ui, k, c.Unit(ui).Kind)
			}
		}
	}
}

func TestClusterCountOfKind(t *testing.T) {
	c := Eval(3)
	for ci := 0; ci < 2; ci++ {
		if got := c.ClusterCountOfKind(ci, Adder); got != 1 {
			t.Fatalf("cluster %d adders = %d, want 1", ci, got)
		}
		if got := c.ClusterCountOfKind(ci, Multiplier); got != 1 {
			t.Fatalf("cluster %d muls = %d, want 1", ci, got)
		}
		if got := c.ClusterCountOfKind(ci, MemPort); got != 1 {
			t.Fatalf("cluster %d mems = %d, want 1", ci, got)
		}
	}
}

func TestLatency(t *testing.T) {
	c := Eval(6)
	if c.Latency(Adder) != 6 || c.Latency(Multiplier) != 6 || c.Latency(MemPort) != 1 {
		t.Fatalf("Eval(6) latencies = %d/%d/%d", c.Latency(Adder), c.Latency(Multiplier), c.Latency(MemPort))
	}
}

func TestUnify(t *testing.T) {
	c := Eval(3)
	u := c.Unify()
	if u.Clustered() {
		t.Fatal("Unify result should have one cluster")
	}
	if u.NumUnits() != c.NumUnits() {
		t.Fatalf("Unify changed unit count: %d vs %d", u.NumUnits(), c.NumUnits())
	}
	for _, k := range Kinds {
		if u.CountOfKind(k) != c.CountOfKind(k) {
			t.Fatalf("Unify changed %v count", k)
		}
		if u.Latency(k) != c.Latency(k) {
			t.Fatalf("Unify changed %v latency", k)
		}
	}
}

func TestPresets(t *testing.T) {
	p := PxLy(2, 6)
	if p.Name() != "P2L6" {
		t.Fatalf("PxLy name = %q", p.Name())
	}
	if p.CountOfKind(Adder) != 2 || p.CountOfKind(Multiplier) != 2 || p.CountOfKind(MemPort) != 3 {
		t.Fatalf("P2L6 unit counts wrong: %v", p.KindPressure())
	}
	if p.Latency(Adder) != 6 || p.Latency(MemPort) != 1 {
		t.Fatal("P2L6 latencies wrong")
	}
	if p.Clustered() {
		t.Fatal("Table 1 machines are unified (single cluster)")
	}

	cfgs := Table1Configs()
	wantNames := []string{"P1L3", "P1L6", "P2L3", "P2L6"}
	if len(cfgs) != len(wantNames) {
		t.Fatalf("Table1Configs len = %d", len(cfgs))
	}
	for i, c := range cfgs {
		if c.Name() != wantNames[i] {
			t.Fatalf("Table1Configs[%d] = %q, want %q", i, c.Name(), wantNames[i])
		}
	}

	ex := Example()
	if !ex.Clustered() || ex.NumClusters() != 2 {
		t.Fatal("Example machine must have 2 clusters")
	}
	if ex.CountOfKind(MemPort) != 4 {
		t.Fatalf("Example machine mem ports = %d, want 4", ex.CountOfKind(MemPort))
	}
}

func TestStringAndKinds(t *testing.T) {
	c := Eval(3)
	s := c.String()
	for _, want := range []string{"eval-L3", "2 cluster", "1add", "1mul", "1mem"} {
		if !strings.Contains(s, want) {
			t.Fatalf("String() = %q missing %q", s, want)
		}
	}
	if Adder.String() != "add" || Multiplier.String() != "mul" || MemPort.String() != "mem" {
		t.Fatal("FUKind.String wrong")
	}
	if FUKind(99).String() == "" {
		t.Fatal("unknown kind should still render")
	}
}

func TestSortedUnitIndices(t *testing.T) {
	c := MustNew("m", []ClusterSpec{{2, 1, 1}, {1, 2, 1}}, 3, 3, 1)
	idx := c.SortedUnitIndices()
	if len(idx) != c.NumUnits() {
		t.Fatalf("len = %d", len(idx))
	}
	for i := 1; i < len(idx); i++ {
		a, b := c.Unit(idx[i-1]), c.Unit(idx[i])
		if a.Kind > b.Kind || (a.Kind == b.Kind && a.Cluster > b.Cluster) {
			t.Fatalf("not sorted at %d: %+v then %+v", i, a, b)
		}
	}
}

func TestItoa(t *testing.T) {
	cases := map[int]string{0: "0", 1: "1", 42: "42", -7: "-7", 128: "128"}
	for v, want := range cases {
		if got := itoa(v); got != want {
			t.Fatalf("itoa(%d) = %q, want %q", v, got, want)
		}
	}
}
