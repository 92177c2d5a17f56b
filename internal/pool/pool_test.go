package pool

import "testing"

// TestWorkersResolution pins the clamping rules of the knob.
func TestWorkersResolution(t *testing.T) {
	if w := Workers(0, 100); w < 1 {
		t.Errorf("Workers(0, 100) = %d", w)
	}
	if w := Workers(-3, 100); w < 1 {
		t.Errorf("Workers(-3, 100) = %d", w)
	}
	if w := Workers(16, 4); w != 4 {
		t.Errorf("Workers(16, 4) = %d, want 4 (clamped to n)", w)
	}
	if w := Workers(2, 0); w != 1 {
		t.Errorf("Workers(2, 0) = %d, want 1", w)
	}
	if w := Workers(3, 100); w != 3 {
		t.Errorf("Workers(3, 100) = %d, want 3", w)
	}
}
