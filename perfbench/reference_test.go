package main

import "testing"

// The kernel must allocate nothing once built: a garbage collection in
// a timed pass would charge the program's heap to the machine's speed.
func TestRefKernelAllocatesNothing(t *testing.T) {
	k := newKernel(t)
	if n := testing.AllocsPerRun(20, func() {
		if err := k.sample(1); err != nil {
			t.Fatal(err)
		}
	}); n > 0 {
		t.Fatalf("kernel pass allocated %v times", n)
	}
}

// The kernel does the same work on every pass.
func TestRefKernelDeterministic(t *testing.T) {
	k, k2 := newKernel(t), newKernel(t)
	a, err := k.run()
	if err != nil {
		t.Fatal(err)
	}
	b, err := k2.run()
	if err != nil {
		t.Fatal(err)
	}
	if c, err := k.run(); err != nil || a != b || a != c {
		t.Fatalf("kernel checksums differ: %v, %v, %v (%v)", a, b, c, err)
	}
}

func newKernel(t *testing.T) *refKernel {
	t.Helper()
	k, err := newRefKernel()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(k.close)
	return k
}

// stolenSince is the stolen share of the ticks between two readings.
func TestStolenSince(t *testing.T) {
	t0, t1 := ticks{steal: 10, total: 1000}, ticks{steal: 30, total: 1200}
	if got := t1.stolenSince(t0); got != 0.1 {
		t.Fatalf("stolen share %v, want 0.1", got)
	}
	if got := t0.stolenSince(t0); got != 0 {
		t.Fatalf("stolen share of no ticks %v, want 0", got)
	}
}
