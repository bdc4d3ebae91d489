package flex

import (
	"context"
	"errors"
	"os"
	"sync/atomic"
	"syscall"
	"testing"

	"flexdp/internal/smooth"
	"flexdp/internal/spill"
)

// Query-lifecycle resilience through the DP pipeline: cancellation, injected
// spill faults, and panics must abort a single run cleanly — the context (or
// fault) error comes back to the caller, the privacy budget holds no charge
// for the unanswered query, no temp files leak, and the System keeps
// answering afterwards.

// faultSystem builds a System over the 3000-row rideshare fixture with a
// budget small enough that the join query spills (the root spill_test proves
// it does at 256 bytes), plus an accounting Budget to observe refunds.
func faultSystem(t *testing.T) (*System, *Database, *smooth.Budget, string) {
	t.Helper()
	db := parallelTestSystemDB(t)
	dir := t.TempDir()
	db.SetTempDir(dir)
	db.Engine().SetMorselSize(64)
	budget := smooth.NewBudget(100, 1e-2)
	sys := NewSystem(db, Options{Seed: 87, MemoryBudget: 256, Budget: budget})
	sys.CollectMetrics()
	return sys, db, budget, dir
}

const faultJoinSQL = `SELECT COUNT(*) FROM trips JOIN drivers ON trips.driver_id = drivers.id WHERE drivers.home_city = 3`

func requireUncharged(t *testing.T, budget *smooth.Budget, when string) {
	t.Helper()
	if eps, delta := budget.Spent(); eps != 0 || delta != 0 {
		t.Fatalf("%s: budget charged (ε=%g, δ=%g) for an unanswered query", when, eps, delta)
	}
	if q := budget.Queries(); q != 0 {
		t.Fatalf("%s: %d queries counted without a release", when, q)
	}
}

func requireEmptyDir(t *testing.T, dir, when string) {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 0 {
		t.Fatalf("%s: %d leftover spill files", when, len(entries))
	}
}

// TestRunContextCancellationRefundsBudget cancels a run mid-spill (via the
// FaultFS OnOp hook) and pre-execution, for both System.RunContext and
// Prepared.RunContext: every abort returns context.Canceled, refunds the
// budget charge, and leaves no spill files.
func TestRunContextCancellationRefundsBudget(t *testing.T) {
	sys, db, budget, dir := faultSystem(t)

	// Pre-cancelled context: rejected before (or at) execution, uncharged.
	pre, cancelPre := context.WithCancel(context.Background())
	cancelPre()
	if _, err := sys.RunContext(pre, faultJoinSQL, 0.5, 1e-6); !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-cancelled RunContext: %v", err)
	}
	requireUncharged(t, budget, "pre-cancelled run")

	// Mid-spill cancellation: the hook fires on the first spill IO.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var fired atomic.Bool
	db.Engine().SetSpillFS(&spill.FaultFS{OnOp: func(string) {
		if fired.CompareAndSwap(false, true) {
			cancel()
		}
	}})
	if _, err := sys.RunContext(ctx, faultJoinSQL, 0.5, 1e-6); !errors.Is(err, context.Canceled) {
		t.Fatalf("mid-spill RunContext: %v", err)
	}
	if !fired.Load() {
		t.Fatal("query never spilled; cancellation hook never exercised")
	}
	requireUncharged(t, budget, "mid-spill cancellation")
	requireEmptyDir(t, dir, "mid-spill cancellation")

	// Prepared path: same contract.
	db.Engine().SetSpillFS(nil)
	prep, err := sys.Prepare(faultJoinSQL)
	if err != nil {
		t.Fatal(err)
	}
	pctx, pcancel := context.WithCancel(context.Background())
	defer pcancel()
	var pfired atomic.Bool
	db.Engine().SetSpillFS(&spill.FaultFS{OnOp: func(string) {
		if pfired.CompareAndSwap(false, true) {
			pcancel()
		}
	}})
	if _, err := prep.RunRequest(pctx, Request{Epsilon: 0.5, Delta: 1e-6}); !errors.Is(err, context.Canceled) {
		t.Fatalf("prepared mid-spill RunRequest: %v", err)
	}
	requireUncharged(t, budget, "prepared cancellation")
	requireEmptyDir(t, dir, "prepared cancellation")

	// The System still answers — and only answered queries are charged.
	db.Engine().SetSpillFS(nil)
	if _, err := sys.Run(faultJoinSQL, 0.5, 1e-6); err != nil {
		t.Fatalf("system wedged after cancellations: %v", err)
	}
	if eps, _ := budget.Spent(); eps != 0.5 {
		t.Fatalf("released answer charged ε=%g, want 0.5", eps)
	}
	if q := budget.Queries(); q != 1 {
		t.Fatalf("queries counted = %d, want 1", q)
	}
}

// TestSpillFaultRefundsBudget injects ENOSPC into a spilling run: the error
// surfaces to the caller with its cause intact, nothing is charged, nothing
// leaks, and clearing the fault restores service.
func TestSpillFaultRefundsBudget(t *testing.T) {
	sys, db, budget, dir := faultSystem(t)

	db.Engine().SetSpillFS(&spill.FaultFS{FailWriteAt: 1})
	_, err := sys.Run(faultJoinSQL, 0.5, 1e-6)
	if err == nil {
		t.Fatal("ENOSPC-injected run succeeded")
	}
	if !errors.Is(err, syscall.ENOSPC) {
		t.Fatalf("injected ENOSPC lost from the chain: %v", err)
	}
	requireUncharged(t, budget, "ENOSPC run")
	requireEmptyDir(t, dir, "ENOSPC run")

	db.Engine().SetSpillFS(nil)
	if _, err := sys.Run(faultJoinSQL, 0.5, 1e-6); err != nil {
		t.Fatalf("system wedged after ENOSPC: %v", err)
	}
	if eps, _ := budget.Spent(); eps != 0.5 {
		t.Fatalf("released answer charged ε=%g, want 0.5", eps)
	}
}

// TestAbortedRunsPreserveNoisyOutputs pins the noise-stream contract around
// aborts: a cancelled or failed run burns its call number (Spend-then-refund
// keeps the budget whole, but the sampler fork is not undone), so the
// answers of the queries that do succeed depend only on their own call
// positions — two systems with the same seed and the same sequence of
// admitted runs produce bit-identical released answers even when the aborted
// runs fail for different reasons (cancellation vs ENOSPC).
func TestAbortedRunsPreserveNoisyOutputs(t *testing.T) {
	db := parallelTestSystemDB(t)
	db.SetTempDir(t.TempDir())
	db.Engine().SetMorselSize(64)

	collect := func(abort func(sys *System)) [][]float64 {
		sys := NewSystem(db, Options{Seed: 87, MemoryBudget: 256})
		sys.CollectMetrics()
		if _, err := sys.Run(faultJoinSQL, 0.5, 1e-6); err != nil {
			t.Fatal(err)
		}
		abort(sys) // burns exactly one call number, releases nothing
		db.Engine().SetSpillFS(nil)
		res, err := sys.Run(faultJoinSQL, 0.5, 1e-6)
		if err != nil {
			t.Fatal(err)
		}
		db.SetMemoryBudget(0)
		return noisyMatrix(res)
	}

	cancelled := collect(func(sys *System) {
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		if _, err := sys.RunContext(ctx, faultJoinSQL, 0.5, 1e-6); !errors.Is(err, context.Canceled) {
			t.Fatalf("abort run: %v", err)
		}
	})
	faulted := collect(func(sys *System) {
		db.Engine().SetSpillFS(&spill.FaultFS{FailWriteAt: 1})
		if _, err := sys.Run(faultJoinSQL, 0.5, 1e-6); err == nil {
			t.Fatal("fault run succeeded")
		}
	})
	if diff := matrixEqualBits(cancelled, faulted); diff != "" {
		t.Fatalf("abort reason leaked into the noise stream: %s", diff)
	}
}
