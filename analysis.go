package flex

import (
	"errors"
	"fmt"
	"time"

	"flexdp/internal/core"
	"flexdp/internal/relalg"
	"flexdp/internal/sqlparser"
)

// Analysis is the result of the static elastic-sensitivity analysis of one
// query (the "Elastic Sensitivity Analysis" box of Figure 2).
type Analysis struct {
	// SQL is the analyzed query text.
	SQL string
	// Histogram reports whether the query uses GROUP BY.
	Histogram bool
	// Joins is j(q), the number of joins.
	Joins int
	// Degree upper-bounds the degree of Ŝ(k) as a polynomial in k, used for
	// the Theorem 3 smooth-sensitivity search cutoff.
	Degree int
	// Polynomials renders the symbolic per-output sensitivity polynomials
	// (e.g. "3k^2 + 393k + 12871").
	Polynomials []string
	// OutputNames are the aggregate output column names in order.
	OutputNames []string
	// Elapsed is the wall time of the analysis, including the parse unless
	// the caller handed over a parsed statement (System.PrepareStmt).
	Elapsed time.Duration

	query *relalg.Query
	stmt  *sqlparser.SelectStmt
	// aggPos[i] is the result-set column index of output i; binPos are the
	// result-set column indexes of histogram bin labels in order.
	aggPos []int
	binPos []int
}

// Analyze statically computes the elastic sensitivity of a query without
// touching the data (beyond the precomputed metrics).
func (s *System) Analyze(sql string) (*Analysis, error) {
	start := time.Now()
	stmt, err := sqlparser.Parse(sql)
	if err != nil {
		return nil, err
	}
	return s.analyzeStmt(sql, stmt, start)
}

// analyzeStmt analyzes a statement already parsed from sql; the Analysis
// keeps stmt, so whatever executes it runs the AST the analysis lowered.
// Elapsed is measured from start.
func (s *System) analyzeStmt(sql string, stmt *sqlparser.SelectStmt, start time.Time) (*Analysis, error) {
	q, err := relalg.Build(stmt, catalog{eng: s.db.eng})
	if err != nil {
		return nil, err
	}
	a := &Analysis{
		SQL:       sql,
		Histogram: q.Histogram(),
		Joins:     relalg.JoinCount(q.Rel),
		query:     q,
		stmt:      stmt,
	}
	// The paper's Theorem 3 uses λ = j(q)²; the exact symbolic degree is
	// available and tighter, so use the max of the two safe bounds' minimum:
	// the polynomial degree when computable, else j².
	polys, err := s.analyzer().SensitivityPoly(q)
	if err != nil {
		return nil, err
	}
	deg := 0
	for _, p := range polys {
		a.Polynomials = append(a.Polynomials, p.String())
		if d := p.Degree(); d > deg {
			deg = d
		}
	}
	a.Degree = deg
	for _, o := range q.Outputs {
		a.OutputNames = append(a.OutputNames, o.Name)
	}
	if err := a.locateColumns(); err != nil {
		return nil, err
	}
	a.Elapsed = time.Since(start)
	return a, nil
}

// locateColumns maps aggregate outputs and bin labels to result-set column
// positions. The result set column order equals the select-list order for
// the statement that Build accepted (root-unwrapped queries re-anchor on the
// inner statement, whose select list drives the result shape in the same
// way).
func (a *Analysis) locateColumns() error {
	stmt := a.stmt
	// Root-unwrapped query: SELECT cols FROM (SELECT aggs ...): the outer
	// select list projects the inner output columns, so positions follow
	// the outer list but classification follows the inner.
	inner := stmt
	if len(stmt.From) == 1 {
		if sub, ok := stmt.From[0].(*sqlparser.SubqueryTable); ok && len(a.query.Outputs) > 0 {
			allRefs := true
			for _, item := range stmt.Columns {
				if item.Star || item.TableStar != "" {
					allRefs = false
					break
				}
				if _, ok := item.Expr.(*sqlparser.ColumnRef); !ok {
					allRefs = false
					break
				}
			}
			if allRefs && hasAggregateOutput(sub.Query) {
				inner = sub.Query
			}
		}
	}
	if inner != stmt {
		// Map outer projections onto inner classification by column name.
		aggName := make(map[string]bool)
		for _, o := range a.query.Outputs {
			aggName[lower(o.Name)] = true
		}
		for i, item := range stmt.Columns {
			ref := item.Expr.(*sqlparser.ColumnRef)
			if aggName[lower(ref.Name)] {
				a.aggPos = append(a.aggPos, i)
			} else {
				a.binPos = append(a.binPos, i)
			}
		}
	} else {
		for i, item := range stmt.Columns {
			if item.Expr != nil && sqlparser.ContainsAggregate(item.Expr) {
				a.aggPos = append(a.aggPos, i)
			} else {
				a.binPos = append(a.binPos, i)
			}
		}
	}
	if len(a.aggPos) != len(a.query.Outputs) {
		return fmt.Errorf("flex: %d aggregate columns located but analysis has %d outputs",
			len(a.aggPos), len(a.query.Outputs))
	}
	return nil
}

func hasAggregateOutput(stmt *sqlparser.SelectStmt) bool {
	for _, item := range stmt.Columns {
		if item.Expr != nil && sqlparser.ContainsAggregate(item.Expr) {
			return true
		}
	}
	return false
}

// ErrorCategory classifies analysis failures using the taxonomy of the
// paper's Section 5.1 success-rate experiment.
type ErrorCategory int

// Error categories.
const (
	CategorySuccess ErrorCategory = iota
	CategoryUnsupported
	CategoryParseError
	CategoryOther
)

func (c ErrorCategory) String() string {
	switch c {
	case CategorySuccess:
		return "success"
	case CategoryUnsupported:
		return "unsupported query"
	case CategoryParseError:
		return "parse error"
	case CategoryOther:
		return "other error"
	}
	return "?"
}

// Classify maps an error returned by Analyze or Run to its Section 5.1
// category. A nil error is CategorySuccess.
func Classify(err error) ErrorCategory {
	if err == nil {
		return CategorySuccess
	}
	var ue *relalg.UnsupportedError
	if errors.As(err, &ue) {
		return CategoryUnsupported
	}
	var pe *sqlparser.ParseError
	if errors.As(err, &pe) {
		return CategoryParseError
	}
	var le *sqlparser.LexError
	if errors.As(err, &le) {
		return CategoryParseError
	}
	var me *core.MissingMetricError
	if errors.As(err, &me) {
		return CategoryUnsupported
	}
	return CategoryOther
}

// UnsupportedReason extracts the fine-grained unsupported reason when the
// error is an UnsupportedError, for the Table 4-style breakdowns.
func UnsupportedReason(err error) (relalg.Reason, bool) {
	var ue *relalg.UnsupportedError
	if errors.As(err, &ue) {
		return ue.Reason, true
	}
	return 0, false
}
