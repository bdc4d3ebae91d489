// Package core implements elastic sensitivity, the paper's primary
// contribution: a statically computable upper bound on the local sensitivity
// of SQL counting queries with general equijoins (Section 3).
//
// The recursive definitions follow Figure 1 exactly:
//
//   - elastic stability Ŝ_R^(k)(r, x) — Figure 1(b), with the non-self-join
//     max case and the three-term self-join case,
//   - maximum frequency at distance mf_k(a, r, x) — Figure 1(c),
//   - ancestors A(r) — Figure 1(d) (provided by package relalg),
//   - elastic sensitivity Ŝ^(k) — count queries take the stability of the
//     counted relation; histogram (grouped) queries double it.
//
// The public-table optimization of Section 3.6 falls out of the general
// formulas by assigning public tables stability 0 and distance-independent
// max frequencies. The SUM/AVG/MIN/MAX extensions of Section 3.7.2 scale by
// the value-range metric vr(a, r).
package core

import (
	"fmt"

	"flexdp/internal/metrics"
	"flexdp/internal/relalg"
)

// Analyzer computes elastic sensitivity for analyzed queries against a
// fixed metrics store.
type Analyzer struct {
	Metrics *metrics.Store
}

// NewAnalyzer returns an analyzer over the given metrics.
func NewAnalyzer(m *metrics.Store) *Analyzer {
	return &Analyzer{Metrics: m}
}

// MissingMetricError reports that a required mf metric is unavailable.
type MissingMetricError struct {
	Table  string
	Column string
}

func (e *MissingMetricError) Error() string {
	return fmt.Sprintf("core: no max-frequency metric for %s.%s", e.Table, e.Column)
}

// StabilityAt computes the elastic stability Ŝ_R^(k)(r, x) of a relation at
// distance k from the true database (Figure 1b).
func (a *Analyzer) StabilityAt(r relalg.Relation, k int) (float64, error) {
	if k < 0 {
		return 0, fmt.Errorf("core: negative distance %d", k)
	}
	switch x := r.(type) {
	case *relalg.TableRel:
		// Public tables need no protection, so changing a protected tuple
		// never changes their contents: stability 0 (Section 3.6).
		if a.Metrics.IsPublic(x.Table) {
			return 0, nil
		}
		return 1, nil

	case *relalg.JoinRel:
		sL, err := a.StabilityAt(x.Left, k)
		if err != nil {
			return 0, err
		}
		sR, err := a.StabilityAt(x.Right, k)
		if err != nil {
			return 0, err
		}
		mfL, err := a.MaxFreqAt(x.LeftKey, x.Left, k)
		if err != nil {
			return 0, err
		}
		mfR, err := a.MaxFreqAt(x.RightKey, x.Right, k)
		if err != nil {
			return 0, err
		}
		if relalg.AncestorsOverlap(x.Left, x.Right) {
			// Self join: changed rows in both operands (three classes,
			// Lemma 2 subcase 2).
			return mfL*sR + mfR*sL + sL*sR, nil
		}
		// Non-overlapping join: only one operand can change.
		return max(mfL*sR, mfR*sL), nil

	case *relalg.ProjectRel:
		return a.StabilityAt(x.Input, k)

	case *relalg.SelectRel:
		return a.StabilityAt(x.Input, k)

	case *relalg.CountRel:
		if !x.Grouped {
			// Count produces a single row: stability 1 (Figure 1b).
			return 1, nil
		}
		// Grouped count used as a relation: each changed input row moves at
		// most two histogram rows (the factor of Theorem 1's histogram
		// case), applied to the input's stability.
		s, err := a.StabilityAt(x.Input, k)
		if err != nil {
			return 0, err
		}
		return 2 * s, nil
	}
	return 0, fmt.Errorf("core: unknown relation %T", r)
}

// MaxFreqAt computes mf_k(a, r, x) (Figure 1c): an upper bound on the
// frequency of the most popular value of attribute a in relation r at
// distance k from the true database.
func (a *Analyzer) MaxFreqAt(attr relalg.Attr, r relalg.Relation, k int) (float64, error) {
	if attr.Computed() {
		// mf_k(a, Count(r), x) = ⊥: join keys computed by aggregation have
		// no metric (Section 3.7.1). The builder normally rejects these
		// before we get here.
		return 0, fmt.Errorf("core: mf_k undefined for computed attribute %q", attr.Column)
	}
	switch x := r.(type) {
	case *relalg.TableRel:
		if x != attr.Leaf {
			return 0, fmt.Errorf("core: attribute %s does not belong to table occurrence %s",
				attr, x.Table)
		}
		mf, ok := a.Metrics.MF(attr.BaseTable, attr.Column)
		if !ok {
			return 0, &MissingMetricError{Table: attr.BaseTable, Column: attr.Column}
		}
		if a.Metrics.IsPublic(x.Table) {
			// Public contents never change, so the frequency does not grow
			// with distance (Section 3.6).
			return float64(mf), nil
		}
		return float64(mf) + float64(k), nil

	case *relalg.JoinRel:
		// mf_k(a1, r1 ⋈_{a2=a3} r2): the popular value of a1 can pair with
		// every occurrence of the popular join key on the other side.
		if relalg.ContainsLeaf(x.Left, attr.Leaf) {
			fa, err := a.MaxFreqAt(attr, x.Left, k)
			if err != nil {
				return 0, err
			}
			fb, err := a.MaxFreqAt(x.RightKey, x.Right, k)
			if err != nil {
				return 0, err
			}
			return fa * fb, nil
		}
		if relalg.ContainsLeaf(x.Right, attr.Leaf) {
			fa, err := a.MaxFreqAt(attr, x.Right, k)
			if err != nil {
				return 0, err
			}
			fb, err := a.MaxFreqAt(x.LeftKey, x.Left, k)
			if err != nil {
				return 0, err
			}
			return fa * fb, nil
		}
		return 0, fmt.Errorf("core: attribute %s not found in join", attr)

	case *relalg.ProjectRel:
		return a.MaxFreqAt(attr, x.Input, k)

	case *relalg.SelectRel:
		return a.MaxFreqAt(attr, x.Input, k)

	case *relalg.CountRel:
		if !x.Grouped {
			return 0, fmt.Errorf("core: mf_k undefined over Count relation")
		}
		// Group keys of a grouped count: grouping only merges rows, so the
		// key frequency is bounded by its frequency in the input.
		return a.MaxFreqAt(attr, x.Input, k)
	}
	return 0, fmt.Errorf("core: unknown relation %T", r)
}

// SensitivityAt computes the elastic sensitivity Ŝ^(k)(q, x) of an analyzed
// query at distance k (Figure 1b, bottom): the stability of the queried
// relation, doubled for histogram queries, and scaled by the value range for
// the SUM/AVG extension of Section 3.7.2. For queries with multiple
// aggregated output columns it returns the per-column sensitivities.
func (a *Analyzer) SensitivityAt(q *relalg.Query, k int) ([]float64, error) {
	s, err := a.StabilityAt(q.Rel, k)
	if err != nil {
		return nil, err
	}
	if q.Histogram() {
		s *= 2
	}
	out := make([]float64, len(q.Outputs))
	for i, o := range q.Outputs {
		switch o.Agg {
		case relalg.AggCount, relalg.AggCountDistinct:
			// COUNT DISTINCT changes by at most as much as COUNT.
			out[i] = s
		case relalg.AggSum, relalg.AggAvg:
			vr, err := a.valueRange(o.Attr)
			if err != nil {
				return nil, err
			}
			out[i] = vr * s
		case relalg.AggMin, relalg.AggMax:
			// Stability does not matter: vr bounds the global (hence local)
			// sensitivity of MIN/MAX (Section 3.7.2).
			vr, err := a.valueRange(o.Attr)
			if err != nil {
				return nil, err
			}
			out[i] = vr
		default:
			return nil, fmt.Errorf("core: no sensitivity rule for %s", o.Agg)
		}
	}
	return out, nil
}

func (a *Analyzer) valueRange(attr relalg.Attr) (float64, error) {
	if attr.Computed() {
		return 0, fmt.Errorf("core: value range unavailable for computed attribute %q",
			attr.Column)
	}
	vr, ok := a.Metrics.VR(attr.BaseTable, attr.Column)
	if !ok {
		return 0, fmt.Errorf("core: no value-range metric for %s.%s",
			attr.BaseTable, attr.Column)
	}
	return vr, nil
}
