package core

import (
	"testing"

	"flexdp/internal/metrics"
	"flexdp/internal/relalg"
)

func TestMaxFreqErrorPaths(t *testing.T) {
	m := metrics.New()
	m.SetMF("t", "a", 5)
	a := NewAnalyzer(m)
	leaf := &relalg.TableRel{Table: "t"}
	attr := relalg.Attr{BaseTable: "t", Column: "a", Leaf: leaf}

	// Computed attribute: ⊥.
	if _, err := a.MaxFreqAt(relalg.Attr{Column: "count"}, leaf, 0); err == nil {
		t.Error("computed attribute should fail")
	}
	// Attribute of a different occurrence.
	other := &relalg.TableRel{Table: "t"}
	if _, err := a.MaxFreqAt(attr, other, 0); err == nil {
		t.Error("foreign occurrence should fail")
	}
	// mf over an ungrouped Count relation is undefined.
	cr := &relalg.CountRel{Input: leaf}
	if _, err := a.MaxFreqAt(attr, cr, 0); err == nil {
		t.Error("mf over Count should fail")
	}
	// Grouped CountRel passes through to the input.
	crg := &relalg.CountRel{Input: leaf, Grouped: true}
	v, err := a.MaxFreqAt(attr, crg, 2)
	if err != nil {
		t.Fatal(err)
	}
	if v != 7 {
		t.Errorf("mf through grouped count = %g, want 7", v)
	}
	// Attribute absent from a join.
	l2 := &relalg.TableRel{Table: "t"}
	r2 := &relalg.TableRel{Table: "t"}
	j := &relalg.JoinRel{Left: l2, Right: r2,
		LeftKey:  relalg.Attr{BaseTable: "t", Column: "a", Leaf: l2},
		RightKey: relalg.Attr{BaseTable: "t", Column: "a", Leaf: r2}}
	if _, err := a.MaxFreqAt(attr, j, 0); err == nil {
		t.Error("attribute not in join should fail")
	}
}

func TestStabilityPolyErrorPropagation(t *testing.T) {
	m := metrics.New() // no metrics registered
	a := NewAnalyzer(m)
	l := &relalg.TableRel{Table: "x"}
	r := &relalg.TableRel{Table: "y"}
	j := &relalg.JoinRel{Left: l, Right: r,
		LeftKey:  relalg.Attr{BaseTable: "x", Column: "a", Leaf: l},
		RightKey: relalg.Attr{BaseTable: "y", Column: "b", Leaf: r}}
	if _, err := a.StabilityPoly(j); err == nil {
		t.Error("missing metric should propagate through StabilityPoly")
	}
	if _, err := a.StabilityAt(j, 0); err == nil {
		t.Error("missing metric should propagate through StabilityAt")
	}
}

func TestSensitivityNoOutputs(t *testing.T) {
	m := metrics.New()
	a := NewAnalyzer(m)
	q := &relalg.Query{Rel: &relalg.TableRel{Table: "t"}}
	ss, err := a.SensitivityAt(q, 0)
	if err != nil || len(ss) != 0 {
		t.Errorf("query without outputs: sensitivities %v, err %v; want none", ss, err)
	}
}

func TestSumWithoutValueRange(t *testing.T) {
	m := metrics.New()
	a := NewAnalyzer(m)
	leaf := &relalg.TableRel{Table: "t"}
	q := &relalg.Query{Rel: leaf, Outputs: []relalg.Output{{
		Agg:  relalg.AggSum,
		Attr: relalg.Attr{BaseTable: "t", Column: "v", Leaf: leaf},
	}}}
	if _, err := a.SensitivityAt(q, 0); err == nil {
		t.Error("SUM without vr metric should fail")
	}
	if _, err := a.SensitivityPoly(q); err == nil {
		t.Error("SUM without vr metric should fail (poly)")
	}
	// Computed attribute also fails.
	q2 := &relalg.Query{Rel: leaf, Outputs: []relalg.Output{{
		Agg: relalg.AggSum, Attr: relalg.Attr{Column: "expr"},
	}}}
	if _, err := a.SensitivityAt(q2, 0); err == nil {
		t.Error("SUM of computed attribute should fail")
	}
}

func TestGroupedCountStabilityDoubling(t *testing.T) {
	m := metrics.New()
	a := NewAnalyzer(m)
	leaf := &relalg.TableRel{Table: "t"}
	plain := &relalg.CountRel{Input: leaf}
	grouped := &relalg.CountRel{Input: leaf, Grouped: true}
	sp, err := a.StabilityAt(plain, 3)
	if err != nil {
		t.Fatal(err)
	}
	sg, err := a.StabilityAt(grouped, 3)
	if err != nil {
		t.Fatal(err)
	}
	if sp != 1 || sg != 2 {
		t.Errorf("stabilities = %g, %g; want 1, 2", sp, sg)
	}
	pp, _ := a.StabilityPoly(plain)
	pg, _ := a.StabilityPoly(grouped)
	if pp.Eval(5) != 1 || pg.Eval(5) != 2 {
		t.Errorf("poly stabilities = %g, %g", pp.Eval(5), pg.Eval(5))
	}
}
