package smooth

import (
	"errors"
	"math"
	"testing"
)

func TestPTRReleasesWhenFarFromHighSensitivity(t *testing.T) {
	// Constant low sensitivity: the database is arbitrarily far from any
	// high-sensitivity neighbor, so PTR must release.
	fn := func(k int) (float64, error) { return 1, nil }
	ptr := NewPTR(4)
	p := PrivacyParams{Epsilon: 1.0, Delta: 1e-6}
	got, err := ptr.Release(100, fn, 5, p, 10000)
	if err != nil {
		t.Fatalf("release refused: %v", err)
	}
	if math.Abs(got-100) > 100 {
		t.Errorf("released %g, implausibly far from 100", got)
	}
}

func TestPTRRefusesNearHighSensitivity(t *testing.T) {
	// Sensitivity exceeds the bound immediately: distance 0, must refuse
	// (up to the tiny probability the Laplace noise clears ln(1/δ)/ε ≈ 13.8).
	fn := func(k int) (float64, error) { return 1000, nil }
	ptr := NewPTR(4)
	p := PrivacyParams{Epsilon: 1.0, Delta: 1e-6}
	refused := 0
	for i := 0; i < 50; i++ {
		_, err := ptr.Release(100, fn, 5, p, 100)
		if errors.Is(err, ErrPTRRefused) {
			refused++
		}
	}
	if refused < 48 {
		t.Errorf("refused only %d/50 times near a high-sensitivity database", refused)
	}
}

func TestPTRValidation(t *testing.T) {
	ptr := NewPTR(1)
	fn := func(int) (float64, error) { return 1, nil }
	if _, err := ptr.Release(0, fn, 0, PrivacyParams{Epsilon: 1, Delta: 1e-6}, 10); err == nil {
		t.Error("zero bound should fail")
	}
	if _, err := ptr.Release(0, fn, 1, PrivacyParams{Epsilon: 0, Delta: 1e-6}, 10); err == nil {
		t.Error("bad params should fail")
	}
}

func TestDistanceToHighSensitivity(t *testing.T) {
	// Ŝ(k) = 10 + k crosses b = 14 at k = 5.
	fn := func(k int) (float64, error) { return 10 + float64(k), nil }
	d, err := DistanceToHighSensitivity(fn, 14, 100)
	if err != nil {
		t.Fatal(err)
	}
	if d != 5 {
		t.Errorf("distance = %d, want 5", d)
	}
	// Never crossing: returns maxK+1.
	d2, err := DistanceToHighSensitivity(func(int) (float64, error) { return 1, nil }, 14, 50)
	if err != nil {
		t.Fatal(err)
	}
	if d2 != 51 {
		t.Errorf("distance = %d, want 51", d2)
	}
}

func TestExponentialMechanismPrefersHighScores(t *testing.T) {
	m := NewExponentialMechanism(5)
	scores := []float64{0, 0, 50, 0}
	counts := make([]int, len(scores))
	for i := 0; i < 1000; i++ {
		idx, err := m.Choose(scores, 1, 1.0)
		if err != nil {
			t.Fatal(err)
		}
		counts[idx]++
	}
	if counts[2] < 950 {
		t.Errorf("high-score candidate chosen only %d/1000 times", counts[2])
	}
	// With ε → 0, selection approaches uniform.
	m2 := NewExponentialMechanism(6)
	counts2 := make([]int, len(scores))
	for i := 0; i < 4000; i++ {
		idx, err := m2.Choose(scores, 1, 0.0001)
		if err != nil {
			t.Fatal(err)
		}
		counts2[idx]++
	}
	for i, c := range counts2 {
		if c < 800 || c > 1200 {
			t.Errorf("ε≈0 candidate %d chosen %d/4000 times, want ≈1000", i, c)
		}
	}
}

func TestExponentialMechanismValidation(t *testing.T) {
	m := NewExponentialMechanism(1)
	if _, err := m.Choose(nil, 1, 1); err == nil {
		t.Error("empty candidates")
	}
	if _, err := m.Choose([]float64{1}, 0, 1); err == nil {
		t.Error("zero sensitivity")
	}
	if _, err := m.Choose([]float64{1}, 1, 0); err == nil {
		t.Error("zero epsilon")
	}
}
