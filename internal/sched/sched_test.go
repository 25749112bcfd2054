package sched

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"ncdrf/internal/ddg"
	"ncdrf/internal/loops"
	"ncdrf/internal/machine"
)

func TestResMII(t *testing.T) {
	g := ddg.New("r", 1)
	for i := 0; i < 5; i++ {
		g.AddNode(ddg.FADD, "")
	}
	for i := 0; i < 3; i++ {
		g.AddNode(ddg.LOAD, "")
	}
	m := machine.MustNew("m", []machine.ClusterSpec{{Adders: 2, Multipliers: 1, MemPorts: 2}}, 3, 3, 1)
	got, err := ResMII(g, m)
	if err != nil {
		t.Fatal(err)
	}
	// 5 adds on 2 adders -> 3; 3 mems on 2 ports -> 2.
	if got != 3 {
		t.Fatalf("ResMII = %d, want 3", got)
	}
}

func TestResMIIMissingUnit(t *testing.T) {
	g := ddg.New("r", 1)
	g.AddNode(ddg.FMUL, "")
	m := machine.MustNew("m", []machine.ClusterSpec{{Adders: 1, Multipliers: 0, MemPorts: 1}}, 3, 3, 1)
	if _, err := ResMII(g, m); err == nil {
		t.Fatal("want error for machine without multipliers")
	}
}

func TestRecMIIAcyclic(t *testing.T) {
	g := loops.PaperExample()
	if got := RecMII(g, machine.Example()); got != 1 {
		t.Fatalf("RecMII(acyclic) = %d, want 1", got)
	}
}

func TestRecMIIRecurrence(t *testing.T) {
	// Self-recurrence through a latency-3 adder at distance 1: the cycle
	// needs II >= 3.
	g := ddg.New("rec", 1)
	a := g.AddNode(ddg.FADD, "A")
	g.FlowD(a, a, 1)
	m := machine.Eval(3)
	if got := RecMII(g, m); got != 3 {
		t.Fatalf("RecMII = %d, want 3", got)
	}
	// Same recurrence with latency 6.
	if got := RecMII(g, machine.Eval(6)); got != 6 {
		t.Fatalf("RecMII = %d, want 6", got)
	}
}

func TestRecMIITwoNodeCycle(t *testing.T) {
	// A -> B (latency 3) and B -> A at distance 2 (latency 3): cycle
	// delay 6 over distance 2 -> RecMII = 3.
	g := ddg.New("rec2", 1)
	a := g.AddNode(ddg.FADD, "A")
	b := g.AddNode(ddg.FMUL, "B")
	g.Flow(a, b)
	g.FlowD(b, a, 2)
	if got := RecMII(g, machine.Eval(3)); got != 3 {
		t.Fatalf("RecMII = %d, want 3", got)
	}
}

func TestPaperExampleSchedule(t *testing.T) {
	// The scheduler must reproduce Figure 3 exactly: II=1, issue cycles
	// 0,0,1,4,7,10,13, with {L1,L2,M3,A4} on cluster 0 and {M5,A6,S7} on
	// cluster 1.
	g := loops.PaperExample()
	s, err := Run(g, machine.Example(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if s.II != 1 {
		t.Fatalf("II = %d, want 1", s.II)
	}
	wantStart := map[string]int{"L1": 0, "L2": 0, "M3": 1, "A4": 4, "M5": 7, "A6": 10, "S7": 13}
	wantCluster := map[string]int{"L1": 0, "L2": 0, "M3": 0, "A4": 0, "M5": 1, "A6": 1, "S7": 1}
	for name, want := range wantStart {
		id := g.NodeByName(name).ID
		if s.Start[id] != want {
			t.Errorf("start(%s) = %d, want %d", name, s.Start[id], want)
		}
		if s.Cluster(id) != wantCluster[name] {
			t.Errorf("cluster(%s) = %d, want %d", name, s.Cluster(id), wantCluster[name])
		}
	}
	if s.Stages() != 14 {
		t.Errorf("Stages = %d, want 14", s.Stages())
	}
}

func TestKernelRendering(t *testing.T) {
	g := loops.PaperExample()
	s, err := Run(g, machine.Example(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	k := s.Kernel()
	if !strings.Contains(k, "row 0:") {
		t.Fatalf("kernel missing row header:\n%s", k)
	}
	for _, want := range []string{"[0]L1", "[1]M3", "[4]A4", "[13]S7", "|c0|", "|c1|"} {
		if !strings.Contains(k, want) {
			t.Fatalf("kernel missing %q:\n%s", want, k)
		}
	}
}

func TestMinIIOption(t *testing.T) {
	g := loops.PaperExample()
	s, err := Run(g, machine.Example(), Options{MinII: 3})
	if err != nil {
		t.Fatal(err)
	}
	if s.II < 3 {
		t.Fatalf("II = %d, want >= 3", s.II)
	}
}

func TestScheduleSaturatedResources(t *testing.T) {
	// 6 memory ops on 2 ports: II must be 3 and both ports fully busy.
	src := ddg.New("mem", 1)
	var prev int
	for i := 0; i < 6; i++ {
		id := src.AddNode(ddg.LOAD, "")
		if i > 0 {
			_ = prev
		}
		prev = id
	}
	m := machine.Eval(3)
	s, err := Run(src, m, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if s.II != 3 {
		t.Fatalf("II = %d, want 3", s.II)
	}
}

func TestRecurrenceLimitedSchedule(t *testing.T) {
	// acc = acc@1 + load: RecMII = add latency.
	g := ddg.New("acc", 1)
	l := g.AddNode(ddg.LOAD, "L")
	a := g.AddNode(ddg.FADD, "A")
	st := g.AddNode(ddg.STORE, "S")
	g.Flow(l, a)
	g.FlowD(a, a, 1)
	g.Flow(a, st)
	for _, lat := range []int{3, 6} {
		s, err := Run(g, machine.Eval(lat), Options{})
		if err != nil {
			t.Fatal(err)
		}
		if s.II != lat {
			t.Fatalf("latency %d: II = %d, want %d", lat, s.II, lat)
		}
	}
}

func TestVerifyCatchesViolations(t *testing.T) {
	g := loops.PaperExample()
	s, err := Run(g, machine.Example(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Break a dependence.
	bad := *s
	bad.Start = append([]int(nil), s.Start...)
	bad.Start[g.NodeByName("M3").ID] = 0 // before L1 completes
	if err := bad.Verify(); err == nil {
		t.Fatal("Verify accepted dependence violation")
	}
	// Resource clash: two ops on one unit in the same row.
	bad2 := *s
	bad2.FU = append([]int(nil), s.FU...)
	bad2.Start = append([]int(nil), s.Start...)
	l1, l2 := g.NodeByName("L1").ID, g.NodeByName("L2").ID
	bad2.FU[l2] = bad2.FU[l1]
	if err := bad2.Verify(); err == nil {
		t.Fatal("Verify accepted resource clash")
	}
	// Wrong unit kind.
	bad3 := *s
	bad3.FU = append([]int(nil), s.FU...)
	adderUnit := -1
	for i := 0; i < machine.Example().NumUnits(); i++ {
		if machine.Example().Unit(i).Kind == machine.Adder {
			adderUnit = i
			break
		}
	}
	bad3.FU[l1] = adderUnit
	if err := bad3.Verify(); err == nil {
		t.Fatal("Verify accepted kind mismatch")
	}
}

// TestVerifyMessages pins Verify's error text for a seeded dependence
// violation and a seeded resource clash, at an II whose occupancy table
// fits Verify's stack buffer and at one that does not.
func TestVerifyMessages(t *testing.T) {
	g := loops.PaperExample()
	for _, c := range []struct {
		minII    int
		dep, res string
	}{
		{0, "sched: edge 0->2 flow d=0 violated: start(L1:load)=0, start(M3:fmul)=0, delay=1, II=1",
			"sched: nodes L1:load and L2:load share unit 2 at kernel row 0"},
		{200, "sched: edge 0->2 flow d=0 violated: start(L1:load)=0, start(M3:fmul)=0, delay=1, II=200",
			"sched: nodes L1:load and L2:load share unit 2 at kernel row 0"},
	} {
		s, err := Run(g, machine.Example(), Options{MinII: c.minII})
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Verify(); err != nil {
			t.Fatalf("II %d: valid schedule rejected: %v", s.II, err)
		}
		dep := *s
		dep.Start = append([]int(nil), s.Start...)
		dep.Start[g.NodeByName("M3").ID] = 0 // before L1 completes
		if err := dep.Verify(); err == nil || err.Error() != c.dep {
			t.Errorf("II %d: dependence violation reported as %v, want %q", s.II, err, c.dep)
		}
		res := *s
		res.FU = append([]int(nil), s.FU...)
		res.Start = append([]int(nil), s.Start...)
		l1, l2 := g.NodeByName("L1").ID, g.NodeByName("L2").ID
		res.FU[l2], res.Start[l2] = res.FU[l1], res.Start[l1]
		if err := res.Verify(); err == nil || err.Error() != c.res {
			t.Errorf("II %d: resource clash reported as %v, want %q", s.II, err, c.res)
		}
	}
}

// randomLoop builds a random schedulable loop graph.
func randomLoop(r *rand.Rand, n int) *ddg.Graph {
	g := ddg.New("rand", 1)
	ops := []ddg.OpCode{ddg.FADD, ddg.FSUB, ddg.FMUL, ddg.FDIV, ddg.LOAD, ddg.CONV, ddg.STORE}
	for i := 0; i < n; i++ {
		op := ops[r.Intn(len(ops))]
		g.AddNode(op, "")
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if r.Intn(3) == 0 && g.Node(i).Op.ProducesValue() {
				g.Flow(i, j)
			}
		}
	}
	// Occasional loop-carried recurrences.
	for k := 0; k < n/4; k++ {
		from, to := r.Intn(n), r.Intn(n)
		if g.Node(from).Op.ProducesValue() {
			g.FlowD(from, to, 1+r.Intn(2))
		}
	}
	return g
}

func TestPropertyRandomLoopsScheduleAndVerify(t *testing.T) {
	machines := []*machine.Config{
		machine.Eval(3), machine.Eval(6), machine.PxLy(1, 3), machine.PxLy(2, 6), machine.Example(),
	}
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		g := randomLoop(r, 2+r.Intn(18))
		m := machines[r.Intn(len(machines))]
		s, err := Run(g, m, Options{})
		if err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		// Run already verifies; double check MII lower bound here.
		mii, _, _, err := MII(g, m)
		if err != nil {
			return false
		}
		return s.II >= mii && s.Verify() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyIIAtMostSerialLength(t *testing.T) {
	// A schedule must always exist with II no greater than what a fully
	// serial execution would need; our II search must stay sane.
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		g := randomLoop(r, 2+r.Intn(12))
		m := machine.Eval(3)
		s, err := Run(g, m, Options{})
		if err != nil {
			return false
		}
		serial := 0
		for _, n := range g.Nodes() {
			serial += m.Latency(n.Op.FUKind())
		}
		return s.II <= serial+1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestRunRejectsInvalidGraph(t *testing.T) {
	g := ddg.New("bad", 1)
	a := g.AddNode(ddg.FADD, "A")
	b := g.AddNode(ddg.FMUL, "B")
	g.Flow(a, b)
	g.Flow(b, a) // zero-distance cycle
	if _, err := Run(g, machine.Eval(3), Options{}); err == nil {
		t.Fatal("invalid graph must be rejected")
	}
	empty := ddg.New("empty", 1)
	if _, err := Run(empty, machine.Eval(3), Options{}); err == nil {
		t.Fatal("empty graph must be rejected")
	}
}

func TestRunRejectsMissingUnitKind(t *testing.T) {
	g := ddg.New("mul", 1)
	g.AddNode(ddg.FMUL, "M")
	m := machine.MustNew("nomul", []machine.ClusterSpec{{Adders: 1, Multipliers: 0, MemPorts: 1}}, 3, 3, 1)
	if _, err := Run(g, m, Options{}); err == nil {
		t.Fatal("machine without multipliers must be rejected")
	}
}

func TestOptionsExplicitValues(t *testing.T) {
	g := loops.PaperExample()
	s, err := Run(g, machine.Example(), Options{BudgetRatio: 3, MaxIISlack: 5})
	if err != nil {
		t.Fatal(err)
	}
	if s.II != 1 {
		t.Fatalf("II = %d", s.II)
	}
	o := Options{}
	if o.budgetRatio() != 8 || o.maxIISlack() != 10 {
		t.Fatal("defaults wrong")
	}
	o2 := Options{BudgetRatio: 2, MaxIISlack: 4}
	if o2.budgetRatio() != 2 || o2.maxIISlack() != 4 {
		t.Fatal("explicit values ignored")
	}
}

func TestEvictionOnOutOfOrderRecurrence(t *testing.T) {
	// A cross-iteration cycle whose high-priority member is placed first
	// forces dependence evictions; the scheduler must still converge to
	// a valid schedule at RecMII.
	g := ddg.New("tangle", 1)
	a := g.AddNode(ddg.FADD, "A")
	b := g.AddNode(ddg.FMUL, "B")
	c := g.AddNode(ddg.FADD, "C")
	g.Flow(a, b)
	g.Flow(b, c)
	g.FlowD(c, a, 1) // 3-op cycle, delay 9, distance 1 -> RecMII 9
	s, err := Run(g, machine.Eval(3), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if s.II != 9 {
		t.Fatalf("II = %d, want 9", s.II)
	}
}

func TestModNegative(t *testing.T) {
	if mod(-3, 5) != 2 || mod(7, 5) != 2 || mod(0, 5) != 0 {
		t.Fatal("mod wrong")
	}
}

func TestStagesAndSlots(t *testing.T) {
	g := loops.PaperExample()
	s, err := Run(g, machine.Example(), Options{MinII: 2})
	if err != nil {
		t.Fatal(err)
	}
	for id := range s.Start {
		if s.Slot(id) != s.Start[id]%s.II {
			t.Fatal("Slot inconsistent")
		}
		if s.Stage(id) != s.Start[id]/s.II {
			t.Fatal("Stage inconsistent")
		}
	}
}

func TestHeightsMonotoneAlongChain(t *testing.T) {
	g := loops.PaperExample()
	m := machine.Example()
	h := heights(g, m, 1)
	get := func(name string) int { return h[g.NodeByName(name).ID] }
	if !(get("L1") > get("M3") && get("M3") > get("A4") && get("A4") > get("M5") &&
		get("M5") > get("A6") && get("A6") > get("S7")) {
		t.Fatalf("heights not monotone along critical chain: %v", h)
	}
	if get("L1") != 13 {
		t.Fatalf("height(L1) = %d, want 13", get("L1"))
	}
}

// TestNextUnscheduledExhausted pins the PR 4 panic conversion: a fully
// placed state reports -1 (which tryII turns into a contextual error)
// instead of panicking out of the whole sweep. It also exercises the
// worklist pointer: after the exhausted scan parks ptr at n, clearing a
// placed flag alone is not visible — the eviction path must rewind ptr
// through rank, which is exactly what evict does.
func TestNextUnscheduledExhausted(t *testing.T) {
	st := &imsState{
		n:      3,
		placed: []bool{true, true, true},
		order:  []int{2, 0, 1},
		rank:   []int{1, 2, 0},
	}
	if u := st.nextUnscheduled(); u != -1 {
		t.Fatalf("nextUnscheduled on placed state = %d, want -1", u)
	}
	st.placed[1] = false
	if st.rank[1] < st.ptr {
		st.ptr = st.rank[1] // the evict-path rewind
	}
	if u := st.nextUnscheduled(); u != 1 {
		t.Fatalf("nextUnscheduled = %d, want 1", u)
	}
}
