package stats

import (
	"strings"
	"sync"
	"testing"
	"time"
)

func TestStageString(t *testing.T) {
	names := map[Stage]string{
		StageSort: "sort", StageQSAT1: "qsat-phase1", StageQSAT2: "qsat-phase2",
		StageCache: "cache", StageFind: "find", StageEvaluate: "evaluate",
		StageModify: "modify",
	}
	for s, want := range names {
		if s.String() != want {
			t.Errorf("%d.String() = %q, want %q", s, s.String(), want)
		}
	}
	if Stage(99).String() != "stage(99)" {
		t.Error("unknown stage formatting")
	}
	if len(Stages()) != int(numStages) {
		t.Error("Stages() incomplete")
	}
}

func TestBatchTimerAccumulates(t *testing.T) {
	b := NewBatch(2)
	sw := b.Timer(StageFind)
	time.Sleep(time.Millisecond)
	sw.Stop()
	if b.Elapsed[StageFind] <= 0 {
		t.Fatal("timer recorded nothing")
	}
	if b.TotalElapsed() != b.Elapsed[StageFind] {
		t.Fatal("TotalElapsed mismatch")
	}
}

func TestReductionRatio(t *testing.T) {
	b := NewBatch(1)
	if b.ReductionRatio() != 0 {
		t.Fatal("empty batch ratio")
	}
	b.BatchSize = 100
	b.RemainingQueries = 25
	if got := b.ReductionRatio(); got != 0.75 {
		t.Fatalf("ratio = %f, want 0.75", got)
	}
}

func TestBatchReset(t *testing.T) {
	b := NewBatch(3)
	b.BatchSize = 5
	b.LeafOps[1] = 7
	b.Elapsed[StageSort] = time.Second
	b.Reset()
	if b.BatchSize != 0 || b.LeafOps[1] != 0 || b.Elapsed[StageSort] != 0 {
		t.Fatalf("Reset left state: %+v", b)
	}
	if len(b.LeafOps) != 3 {
		t.Fatal("Reset lost LeafOps capacity")
	}
}

func TestAddTo(t *testing.T) {
	a := NewBatch(2)
	a.BatchSize, a.RemainingQueries, a.InferredReturns = 10, 4, 3
	a.CacheHits, a.CacheMisses, a.CacheFlushes = 1, 2, 3
	a.LeafOps[0], a.LeafOps[1] = 5, 6
	a.Elapsed[StageFind] = time.Second
	dst := NewBatch(2)
	a.AddTo(dst)
	a.AddTo(dst)
	if dst.BatchSize != 20 || dst.LeafOps[1] != 12 || dst.Elapsed[StageFind] != 2*time.Second {
		t.Fatalf("AddTo result: %+v", dst)
	}
	if dst.CacheHits != 2 || dst.CacheFlushes != 6 {
		t.Fatalf("cache counters: %+v", dst)
	}
}

func TestLeafOpImbalance(t *testing.T) {
	b := NewBatch(4)
	if b.LeafOpImbalance() != 1 {
		t.Fatal("zero-work imbalance must be 1")
	}
	b.LeafOps = []int64{10, 10, 10, 10}
	if got := b.LeafOpImbalance(); got != 1 {
		t.Fatalf("perfect balance = %f", got)
	}
	b.LeafOps = []int64{40, 0, 0, 0}
	if got := b.LeafOpImbalance(); got != 4 {
		t.Fatalf("imbalance = %f, want 4", got)
	}
	var empty Batch
	if empty.LeafOpImbalance() != 1 {
		t.Fatal("empty LeafOps")
	}
}

func TestBatchString(t *testing.T) {
	b := NewBatch(1)
	b.BatchSize, b.RemainingQueries = 100, 30
	b.Elapsed[StageFind] = 5 * time.Millisecond
	s := b.String()
	for _, want := range []string{"batch=100", "remaining=30", "70.0%", "find=5ms"} {
		if !strings.Contains(s, want) {
			t.Errorf("String() = %q missing %q", s, want)
		}
	}
}

func TestLatencyRecorder(t *testing.T) {
	var l LatencyRecorder
	if l.Mean() != 0 || l.Percentile(50) != 0 || l.Max() != 0 {
		t.Fatal("empty recorder must return zeros")
	}
	for _, d := range []time.Duration{4, 1, 3, 2, 5} {
		l.Record(d * time.Millisecond)
	}
	if l.Count() != 5 {
		t.Fatalf("Count = %d", l.Count())
	}
	if l.Mean() != 3*time.Millisecond {
		t.Fatalf("Mean = %v", l.Mean())
	}
	if l.Max() != 5*time.Millisecond {
		t.Fatalf("Max = %v", l.Max())
	}
	if p := l.Percentile(0); p != 1*time.Millisecond {
		t.Fatalf("P0 = %v", p)
	}
	if p := l.Percentile(100); p != 5*time.Millisecond {
		t.Fatalf("P100 = %v", p)
	}
	if p := l.Percentile(50); p != 3*time.Millisecond {
		t.Fatalf("P50 = %v", p)
	}
}

func TestThroughput(t *testing.T) {
	if Throughput(100, 0) != 0 {
		t.Fatal("zero elapsed")
	}
	if got := Throughput(1000, time.Second); got != 1000 {
		t.Fatalf("Throughput = %f", got)
	}
	if got := Throughput(500, 500*time.Millisecond); got != 1000 {
		t.Fatalf("Throughput = %f", got)
	}
}

func TestShardCounters(t *testing.T) {
	s := NewShard(4)
	if s.Imbalance() != 1 {
		t.Fatalf("empty Imbalance = %f, want 1", s.Imbalance())
	}
	s.RecordRouted(0, 10)
	s.RecordRouted(1, 20)
	s.RecordRouted(2, 30)
	s.RecordRouted(3, 40)
	s.RecordBatch()
	if got := s.RoutedTotal(); got != 100 {
		t.Fatalf("RoutedTotal = %d, want 100", got)
	}
	// max/mean = 40 / 25.
	if got := s.Imbalance(); got != 1.6 {
		t.Fatalf("Imbalance = %f, want 1.6", got)
	}
	s.RecordRebalance()
	s.RecordMove(12)
	if s.Rebalances != 1 || s.Moves != 1 || s.Migrated != 12 {
		t.Fatalf("rebalance counters = %d/%d/%d", s.Rebalances, s.Moves, s.Migrated)
	}
	str := s.String()
	for _, want := range []string{"shards=4", "imbalance=1.60", "migrated=12"} {
		if !strings.Contains(str, want) {
			t.Fatalf("String() = %q missing %q", str, want)
		}
	}
}

func TestShardImbalanceOneHot(t *testing.T) {
	s := NewShard(8)
	s.RecordRouted(5, 1000)
	if got := s.Imbalance(); got != 8 {
		t.Fatalf("one-hot Imbalance = %f, want 8", got)
	}
}

// TestShardCountersConcurrent runs routing and move records from
// several goroutines while another reads every summary: the counters
// are plain atomics over a fixed-length slice, so under -race nothing
// may be reported and the final totals must be exact.
func TestShardCountersConcurrent(t *testing.T) {
	const shards, writers, rounds = 4, 4, 2000
	s := NewShard(shards)
	done := make(chan struct{})
	var reader sync.WaitGroup
	reader.Add(1)
	go func() {
		defer reader.Done()
		for {
			select {
			case <-done:
				return
			default:
			}
			if s.RoutedTotal() < 0 || s.Imbalance() < 1 || !strings.Contains(s.String(), "shards=4") {
				t.Error("inconsistent snapshot")
				return
			}
		}
	}()
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				s.RecordRouted((w+i)%shards, 3)
				s.RecordBatch()
				if i%10 == 0 {
					s.RecordMove(7)
				}
			}
		}(w)
	}
	wg.Wait()
	close(done)
	reader.Wait()

	if got, want := s.RoutedTotal(), int64(writers*rounds*3); got != want {
		t.Fatalf("RoutedTotal = %d, want %d", got, want)
	}
	for sh, v := range s.Routed {
		if want := int64(writers * rounds * 3 / shards); v != want {
			t.Fatalf("Routed[%d] = %d, want %d", sh, v, want)
		}
	}
	if got := s.Imbalance(); got != 1 {
		t.Fatalf("Imbalance = %f, want 1", got)
	}
	moves := int64(writers * rounds / 10)
	if s.Batches != writers*rounds || s.Moves != moves || s.Migrated != 7*moves {
		t.Fatalf("batches/moves/migrated = %d/%d/%d, want %d/%d/%d",
			s.Batches, s.Moves, s.Migrated, writers*rounds, moves, 7*moves)
	}
}
