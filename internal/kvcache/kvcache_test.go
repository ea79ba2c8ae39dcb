package kvcache

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestLocationString(t *testing.T) {
	if GPU.String() != "gpu" || CPU.String() != "cpu" || Deleted.String() != "deleted" {
		t.Fatal("location names wrong")
	}
	if Location(9).String() == "" {
		t.Fatal("unknown location should still format")
	}
}

func TestTokenStoreAppendMove(t *testing.T) {
	s := NewTokenStore()
	for i := 0; i < 5; i++ {
		if got := s.Append(GPU); got != i {
			t.Fatalf("Append returned %d, want %d", got, i)
		}
	}
	if s.Count(GPU) != 5 || s.Count(CPU) != 0 {
		t.Fatalf("counts wrong: gpu=%d cpu=%d", s.Count(GPU), s.Count(CPU))
	}
	s.Move(1, CPU)
	s.Move(3, CPU)
	s.Move(1, Deleted)
	if s.Count(GPU) != 3 || s.Count(CPU) != 1 || s.Count(Deleted) != 1 {
		t.Fatalf("counts after moves: gpu=%d cpu=%d del=%d", s.Count(GPU), s.Count(CPU), s.Count(Deleted))
	}
	if s.Loc(3) != CPU || s.Loc(1) != Deleted {
		t.Fatal("locations wrong after moves")
	}
	// Move to the same location is a no-op.
	s.Move(3, CPU)
	if s.Count(CPU) != 1 {
		t.Fatal("self-move changed counts")
	}
}

func TestTokenStoreOldestNewest(t *testing.T) {
	s := NewTokenStore()
	for i := 0; i < 6; i++ {
		s.Append(GPU)
	}
	s.Move(0, CPU)
	s.Move(2, CPU)
	s.Move(5, CPU)
	if got := s.Oldest(CPU); got != 0 {
		t.Fatalf("Oldest(CPU) = %d, want 0", got)
	}
	if got := s.Newest(CPU); got != 5 {
		t.Fatalf("Newest(CPU) = %d, want 5", got)
	}
	if got := s.Oldest(GPU); got != 1 {
		t.Fatalf("Oldest(GPU) = %d, want 1", got)
	}
	if got := s.Newest(GPU); got != 4 {
		t.Fatalf("Newest(GPU) = %d, want 4", got)
	}
	if got := s.Oldest(Deleted); got != -1 {
		t.Fatalf("no deleted positions expected, Oldest = %d", got)
	}
	if got := s.Newest(Deleted); got != -1 {
		t.Fatalf("no deleted positions expected, Newest = %d", got)
	}
	// Evicting the oldest CPU position exposes the next one.
	s.Move(0, Deleted)
	if got := s.Oldest(CPU); got != 2 {
		t.Fatalf("Oldest(CPU) after eviction = %d, want 2", got)
	}
}

func TestTokenStoreCountsIn(t *testing.T) {
	s := NewTokenStore()
	for i := 0; i < 10; i++ {
		s.Append(GPU)
	}
	if got := s.CountsIn(2, 9); got != [3]int{7, 0, 0} {
		t.Fatalf("all-GPU CountsIn(2,9) = %v", got)
	}
	s.Move(3, CPU)
	s.Move(4, Deleted)
	s.Move(7, CPU)
	if got := s.CountsIn(0, 10); got != [3]int{7, 2, 1} {
		t.Fatalf("CountsIn(0,10) = %v, want [7 2 1]", got)
	}
	if got := s.CountsIn(4, 7); got != [3]int{2, 0, 1} {
		t.Fatalf("CountsIn(4,7) = %v, want [2 0 1]", got)
	}
	if got := s.CountsIn(8, 10); got != [3]int{2, 0, 0} {
		t.Fatalf("CountsIn(8,10) = %v, want [2 0 0]", got)
	}
	if got := s.CountsIn(5, 5); got != [3]int{} {
		t.Fatalf("empty range CountsIn = %v", got)
	}
	for _, r := range [][2]int{{-1, 3}, {0, 11}, {6, 5}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("CountsIn(%d,%d) should panic", r[0], r[1])
				}
			}()
			s.CountsIn(r[0], r[1])
		}()
	}
}

func TestTokenStoreOutOfRangePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewTokenStore().Loc(0)
}

// Property: counts always equal the number of positions at each location,
// and every position is in exactly one location.
func TestTokenStoreConservationProperty(t *testing.T) {
	f := func(ops []uint8) bool {
		s := NewTokenStore()
		for _, op := range ops {
			if s.Len() == 0 || op%5 == 0 {
				s.Append(Location(op % 3))
				continue
			}
			s.Move(int(op)%s.Len(), Location(op%3))
		}
		var counts [3]int
		for i := 0; i < s.Len(); i++ {
			counts[s.Loc(i)]++
		}
		return counts[GPU] == s.Count(GPU) &&
			counts[CPU] == s.Count(CPU) &&
			counts[Deleted] == s.Count(Deleted) &&
			counts[GPU]+counts[CPU]+counts[Deleted] == s.Len()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestBlockStoreAllocation(t *testing.T) {
	b := NewBlockStore(4)
	for i := 0; i < 9; i++ {
		grew := b.Append()
		wantGrow := i%4 == 0
		if grew != wantGrow {
			t.Fatalf("token %d: grew=%v, want %v", i, grew, wantGrow)
		}
	}
	if b.Tokens() != 9 || b.Blocks() != 3 {
		t.Fatalf("tokens=%d blocks=%d, want 9/3", b.Tokens(), b.Blocks())
	}
	// Fragmentation: 3 blocks hold capacity 12 for 9 tokens.
	if b.AllocatedTokens() != 12 {
		t.Fatalf("allocated tokens = %d, want 12", b.AllocatedTokens())
	}
}

func TestBlockStoreSwap(t *testing.T) {
	b := NewBlockStore(2)
	for i := 0; i < 8; i++ {
		b.Append()
	}
	if moved := b.SwapOut(3); moved != 3 {
		t.Fatalf("SwapOut moved %d, want 3", moved)
	}
	if b.BlocksIn(CPU) != 3 || b.BlocksIn(GPU) != 1 {
		t.Fatalf("blocks gpu=%d cpu=%d", b.BlocksIn(GPU), b.BlocksIn(CPU))
	}
	if moved := b.SwapIn(99); moved != 3 {
		t.Fatalf("SwapIn moved %d, want 3", moved)
	}
	if b.BlocksIn(GPU) != 4 {
		t.Fatal("swap in did not restore blocks")
	}
}

func TestBlockStoreBadSizePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewBlockStore(0)
}

func TestHeadStoreSplit(t *testing.T) {
	h := NewHeadStore(32, 24)
	if h.GPUFraction() != 0.75 {
		t.Fatalf("GPUFraction = %v, want 0.75", h.GPUFraction())
	}
	gpu, cpu := h.Split(1000)
	if gpu != 750 || cpu != 250 {
		t.Fatalf("Split = %d/%d, want 750/250", gpu, cpu)
	}
	h.Append()
	h.Append()
	if h.Tokens() != 2 {
		t.Fatal("token count wrong")
	}
}

func TestHeadStoreBadSplitPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewHeadStore(8, 9)
}

// Property: block-store allocated capacity is always within one block of
// the token count, and swaps conserve block counts.
func TestBlockStoreInvariantProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		b := NewBlockStore(1 + rng.Intn(8))
		for i := 0; i < 100; i++ {
			switch rng.Intn(3) {
			case 0:
				b.Append()
			case 1:
				b.SwapOut(rng.Intn(4))
			case 2:
				b.SwapIn(rng.Intn(4))
			}
			if b.BlocksIn(GPU)+b.BlocksIn(CPU) != b.Blocks() {
				return false
			}
			if b.AllocatedTokens() < b.Tokens() ||
				b.AllocatedTokens() >= b.Tokens()+b.BlockSize()+1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
