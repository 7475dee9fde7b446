package batcher

import (
	"testing"
	"time"

	"repro/internal/keys"
)

// sleepProc simulates a processor whose batch time is a fixed
// per-batch cost plus a cost proportional to batch size, so the ideal
// batch for a target latency is about target/perQuery.
type sleepProc struct {
	perBatch time.Duration
	perQuery time.Duration
}

func (p *sleepProc) ProcessBatch(qs []keys.Query, rs *keys.ResultSet) {
	time.Sleep(p.perBatch + time.Duration(len(qs))*p.perQuery)
}

// submitRound submits n queries without waiting, then waits for all of
// them: queries pile up behind the batch in progress, so the batcher
// sees batches larger than one.
func submitRound(t *testing.T, b *Batcher, n int) {
	t.Helper()
	futs := make([]*Future, n)
	for i := range futs {
		f, err := b.Submit(keys.Search(keys.Key(i)))
		if err != nil {
			t.Fatal(err)
		}
		futs[i] = f
	}
	for _, f := range futs {
		f.Get()
	}
}

func TestAutoTuneConvergesDown(t *testing.T) {
	// 10µs per query, target 1ms -> ideal cap 100. Start way high: only
	// batches that overrun the target can shrink the cap.
	proc := &sleepProc{perQuery: 10 * time.Microsecond}
	b := New(proc, Config{
		MaxBatch:      8192,
		TargetLatency: time.Millisecond,
		MinBatch:      10,
	})
	defer b.Close()

	for round := 0; round < 100 && b.BatchCap() > 400; round++ {
		submitRound(t, b, 400)
	}
	cap := b.BatchCap()
	if cap > 400 {
		t.Fatalf("cap did not converge down: %d (ideal ~100)", cap)
	}
	if cap < 10 {
		t.Fatalf("cap fell below MinBatch: %d", cap)
	}
}

func TestAutoTuneConvergesUp(t *testing.T) {
	// 1µs per query, target 10ms -> ideal cap ~10000. Start tiny: full
	// batches cut at the cap finish well under the target.
	proc := &sleepProc{perQuery: time.Microsecond}
	b := New(proc, Config{
		MaxBatch:      64,
		TargetLatency: 10 * time.Millisecond,
		MaxBatchLimit: 1 << 16,
	})
	defer b.Close()

	for round := 0; round < 100 && b.BatchCap() <= 64; round++ {
		submitRound(t, b, 300)
	}
	if cap := b.BatchCap(); cap <= 64 {
		t.Fatalf("cap did not grow: %d", cap)
	}
}

func TestAutoTuneRespectsBounds(t *testing.T) {
	// Every lone query overruns the absurd target, so each one shrinks
	// the cap — halving at most per batch — down to MinBatch and no
	// further: 1000 → 500 → 250 → 125 → 62 → 50 → 50.
	proc := &sleepProc{perQuery: 100 * time.Microsecond}
	b := New(proc, Config{
		MaxBatch:      1000,
		TargetLatency: time.Microsecond, // absurd target -> ideal < 1
		MinBatch:      50,
	})
	defer b.Close()
	for round := 0; round < 6; round++ {
		submitRound(t, b, 1)
	}
	if cap := b.BatchCap(); cap != 50 {
		t.Fatalf("cap = %d, want MinBatch 50", cap)
	}
}

// TestAutoTuneIgnoresTrickle: under light load every batch is one
// query, far below the cap and well inside the target. Such a batch's
// per-query cost is all fixed per-batch cost and says nothing about
// what a full batch would cost, so it must not move the cap.
func TestAutoTuneIgnoresTrickle(t *testing.T) {
	proc := &sleepProc{perBatch: 200 * time.Microsecond}
	b := New(proc, Config{MaxBatch: 1000, TargetLatency: 20 * time.Millisecond})
	defer b.Close()
	for round := 0; round < 10; round++ {
		submitRound(t, b, 1)
	}
	if cap := b.BatchCap(); cap != 1000 {
		t.Fatalf("a trickle of lone queries moved the cap: %d, want 1000", cap)
	}
}

func TestAutoTuneDisabledKeepsCap(t *testing.T) {
	proc := &sleepProc{perQuery: time.Microsecond}
	b := New(proc, Config{MaxBatch: 777})
	defer b.Close()
	submitRound(t, b, 1)
	if b.BatchCap() != 777 {
		t.Fatalf("cap changed without TargetLatency: %d", b.BatchCap())
	}
}

func TestNewClampsBatchBounds(t *testing.T) {
	// Bounds only apply when tuning is enabled.
	b := New(&sleepProc{}, Config{MaxBatch: 5, MinBatch: 100, MaxBatchLimit: 200, TargetLatency: time.Second})
	defer b.Close()
	if b.BatchCap() != 100 {
		t.Fatalf("cap = %d, want clamped to MinBatch", b.BatchCap())
	}
	b2 := New(&sleepProc{}, Config{MaxBatch: 5000, MaxBatchLimit: 300, TargetLatency: time.Second})
	defer b2.Close()
	if b2.BatchCap() != 300 {
		t.Fatalf("cap = %d, want clamped to MaxBatchLimit", b2.BatchCap())
	}
	// Without tuning, a tiny fixed cap is honored verbatim.
	b3 := New(&sleepProc{}, Config{MaxBatch: 1})
	defer b3.Close()
	if b3.BatchCap() != 1 {
		t.Fatalf("cap = %d, want 1", b3.BatchCap())
	}
}
