package fftref

import "testing"

// TestCloneSharesPlanOwnsScratch pins what makes Clone cheap and safe: the
// immutable plan and phase table are shared, the scratch buffer is not.
func TestCloneSharesPlanOwnsScratch(t *testing.T) {
	s := NewSpectral(64)
	c := s.Clone()
	if c.plan != s.plan || &c.phase[0] != &s.phase[0] {
		t.Fatal("clone did not share the plan and phase table")
	}
	if &c.buf[0] == &s.buf[0] {
		t.Fatal("clone shares scratch with the original")
	}
}
