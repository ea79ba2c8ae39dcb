package kvcache

import (
	"math/rand"
	"testing"
)

// locations in a fixed order for sampling and recounting.
var allLocations = []Location{GPU, CPU, Deleted}

// recount tallies TokenStore locations the slow way, as the reference for
// the cached counters.
func recount(s *TokenStore) [3]int {
	var c [3]int
	for i := 0; i < s.Len(); i++ {
		c[s.Loc(i)]++
	}
	return c
}

// checkTokenStore asserts every TokenStore invariant: the three locations
// partition the token set, no counter is negative, and byte totals are
// exactly counts × tokenBytes.
func checkTokenStore(t *testing.T, s *TokenStore, tokenBytes int64) {
	t.Helper()
	ref := recount(s)
	gpu, cpu, del := s.Counts()
	if gpu != ref[GPU] || cpu != ref[CPU] || del != ref[Deleted] {
		t.Fatalf("cached counts (%d,%d,%d) != recount (%d,%d,%d)",
			gpu, cpu, del, ref[GPU], ref[CPU], ref[Deleted])
	}
	if gpu < 0 || cpu < 0 || del < 0 {
		t.Fatalf("negative counts (%d,%d,%d)", gpu, cpu, del)
	}
	if gpu+cpu+del != s.Len() {
		t.Fatalf("locations do not partition the token set: %d+%d+%d != %d", gpu, cpu, del, s.Len())
	}
	for _, loc := range allLocations {
		if s.Count(loc) != ref[loc] {
			t.Fatalf("Count(%v) = %d, recount %d", loc, s.Count(loc), ref[loc])
		}
	}
	gb, cb := s.Bytes(tokenBytes)
	if gb != int64(gpu)*tokenBytes || cb != int64(cpu)*tokenBytes {
		t.Fatalf("Bytes(%d) = (%d,%d), want (%d,%d)", tokenBytes, gb, cb,
			int64(gpu)*tokenBytes, int64(cpu)*tokenBytes)
	}
	if gb < 0 || cb < 0 {
		t.Fatalf("negative byte totals (%d,%d)", gb, cb)
	}
}

// checkQueries asserts the scheduler-facing queries against slow
// recounts: CountsIn over the whole store and over a random window, and
// Oldest/Newest at every location.
func checkQueries(t *testing.T, s *TokenStore, rng *rand.Rand) {
	t.Helper()
	n := s.Len()
	lo := rng.Intn(n + 1)
	hi := lo + rng.Intn(n-lo+1)
	for _, r := range [][2]int{{0, n}, {lo, hi}} {
		var want [3]int
		for i := r[0]; i < r[1]; i++ {
			want[s.Loc(i)]++
		}
		if got := s.CountsIn(r[0], r[1]); got != want {
			t.Fatalf("CountsIn(%d,%d) = %v, recount %v", r[0], r[1], got, want)
		}
	}
	for _, loc := range allLocations {
		oldest, newest := -1, -1
		for i := 0; i < n; i++ {
			if s.Loc(i) == loc {
				if oldest < 0 {
					oldest = i
				}
				newest = i
			}
		}
		if got := s.Oldest(loc); got != oldest {
			t.Fatalf("Oldest(%v) = %d, scan %d", loc, got, oldest)
		}
		if got := s.Newest(loc); got != newest {
			t.Fatalf("Newest(%v) = %d, scan %d", loc, got, newest)
		}
	}
}

// applyOp performs one random store op: append, a ranged AppendN of up
// to 16 positions (zero included), move in any direction (back to GPU
// included), reset, or replacement by a clone.
func applyOp(s *TokenStore, op, a, b uint8) *TokenStore {
	switch {
	case op < 112 || s.Len() == 0:
		s.Append(allLocations[a%3])
	case op < 128:
		s.AppendN(allLocations[a%3], int(b%17))
	case op < 240:
		s.Move(int(a)*int(b)%s.Len(), allLocations[op%3])
	case op < 248:
		c := s.Clone()
		// Mutating the original must not reach the clone.
		s.Append(CPU)
		s.Move(0, Deleted)
		return c
	default:
		s.Reset()
	}
	return s
}

// TestTokenStoreProperties drives random op sequences — append,
// AppendN, move, reset, clone — and checks the byte-accounting invariants and the
// scheduler-facing queries after every op.
func TestTokenStoreProperties(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		s := NewTokenStore()
		tokenBytes := int64(1 + rng.Intn(1<<20))
		for op := 0; op < 2000; op++ {
			s = applyOp(s, uint8(rng.Intn(256)), uint8(rng.Intn(256)), uint8(rng.Intn(256)))
			checkTokenStore(t, s, tokenBytes)
			checkQueries(t, s, rng)
		}
	}
}

// FuzzTokenStoreOps replays fuzzer-chosen op sequences (three bytes per
// op) and checks the same invariants as TestTokenStoreProperties.
func FuzzTokenStoreOps(f *testing.F) {
	f.Add([]byte{0, 0, 0, 0, 1, 0, 200, 1, 1, 250, 0, 0})
	f.Add([]byte{10, 2, 0, 10, 1, 0, 130, 0, 1, 245, 0, 0, 131, 1, 1})
	f.Fuzz(func(t *testing.T, ops []byte) {
		rng := rand.New(rand.NewSource(int64(len(ops))))
		s := NewTokenStore()
		for i := 0; i+2 < len(ops); i += 3 {
			s = applyOp(s, ops[i], ops[i+1], ops[i+2])
			checkTokenStore(t, s, 64)
			checkQueries(t, s, rng)
		}
	})
}

// TestTokenStoreAppendNMatchesAppends drives two stores through the same
// random interleaving of ranged appends and moves — one appending each
// range with AppendN(loc, k), the other with k Appends — and demands they
// agree on Loc, Counts, CountsIn, Oldest and Newest after every op.
func TestTokenStoreAppendNMatchesAppends(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		ranged, single := NewTokenStore(), NewTokenStore()
		if seed%2 == 1 {
			// Half the runs append into pre-sized stores.
			ranged.Grow(rng.Intn(512))
			single.Grow(rng.Intn(512))
		}
		for op := 0; op < 1000; op++ {
			if n := ranged.Len(); n == 0 || rng.Intn(3) == 0 {
				loc, k := allLocations[rng.Intn(3)], rng.Intn(24)
				ranged.AppendN(loc, k)
				for i := 0; i < k; i++ {
					single.Append(loc)
				}
			} else {
				i, to := rng.Intn(n), allLocations[rng.Intn(3)]
				ranged.Move(i, to)
				single.Move(i, to)
			}
			n := ranged.Len()
			if single.Len() != n {
				t.Fatalf("seed %d op %d: Len %d, appends %d", seed, op, n, single.Len())
			}
			for i := 0; i < n; i++ {
				if ranged.Loc(i) != single.Loc(i) {
					t.Fatalf("seed %d op %d: Loc(%d) = %v, appends %v", seed, op, i, ranged.Loc(i), single.Loc(i))
				}
			}
			rg, rc, rd := ranged.Counts()
			sg, sc, sd := single.Counts()
			if rg != sg || rc != sc || rd != sd {
				t.Fatalf("seed %d op %d: Counts (%d,%d,%d), appends (%d,%d,%d)", seed, op, rg, rc, rd, sg, sc, sd)
			}
			lo := rng.Intn(n + 1)
			hi := lo + rng.Intn(n-lo+1)
			if a, b := ranged.CountsIn(lo, hi), single.CountsIn(lo, hi); a != b {
				t.Fatalf("seed %d op %d: CountsIn(%d,%d) = %v, appends %v", seed, op, lo, hi, a, b)
			}
			for _, loc := range allLocations {
				if a, b := ranged.Oldest(loc), single.Oldest(loc); a != b {
					t.Fatalf("seed %d op %d: Oldest(%v) = %d, appends %d", seed, op, loc, a, b)
				}
				if a, b := ranged.Newest(loc), single.Newest(loc); a != b {
					t.Fatalf("seed %d op %d: Newest(%v) = %d, appends %d", seed, op, loc, a, b)
				}
			}
			checkTokenStore(t, ranged, 64)
		}
	}
}

// TestTokenStoreGrowPresizes: after Grow(n), n appends — single or
// ranged — keep the backing array Grow sized.
func TestTokenStoreGrowPresizes(t *testing.T) {
	s := NewTokenStore()
	s.Append(GPU)
	s.Grow(96)
	sized := cap(s.loc)
	if sized < 97 {
		t.Fatalf("Grow(96) on 1 position left capacity %d", sized)
	}
	s.AppendN(GPU, 64)
	for i := 0; i < 32; i++ {
		s.Append(CPU)
	}
	if cap(s.loc) != sized {
		t.Fatalf("appends after Grow reallocated: capacity %d, sized %d", cap(s.loc), sized)
	}
}

// TestBlockStoreProperties drives random append/swap sequences and checks
// block-level accounting: blocks partition across devices, token counts
// stay within the allocated capacity, and WouldGrow predicts exactly when
// Append allocates.
func TestBlockStoreProperties(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		bs := 1 + rng.Intn(32)
		b := NewBlockStore(bs)
		for op := 0; op < 2000; op++ {
			switch r := rng.Float64(); {
			case r < 0.6:
				predicted := b.WouldGrow()
				if grew := b.Append(); grew != predicted {
					t.Fatalf("seed %d: WouldGrow=%v but Append grew=%v", seed, predicted, grew)
				}
			case r < 0.8:
				n := rng.Intn(4)
				if moved := b.SwapOut(n); moved > n || moved > b.Blocks() {
					t.Fatalf("seed %d: SwapOut(%d) moved %d of %d blocks", seed, n, moved, b.Blocks())
				}
			default:
				n := rng.Intn(4)
				if moved := b.SwapIn(n); moved > n || moved > b.Blocks() {
					t.Fatalf("seed %d: SwapIn(%d) moved %d of %d blocks", seed, n, moved, b.Blocks())
				}
			}
			gpu, cpu, del := b.BlocksIn(GPU), b.BlocksIn(CPU), b.BlocksIn(Deleted)
			if gpu+cpu+del != b.Blocks() {
				t.Fatalf("seed %d: blocks do not partition: %d+%d+%d != %d", seed, gpu, cpu, del, b.Blocks())
			}
			if del != 0 {
				t.Fatalf("seed %d: paged store invented deleted blocks", seed)
			}
			if b.Tokens() > b.AllocatedTokens() {
				t.Fatalf("seed %d: %d tokens exceed capacity %d", seed, b.Tokens(), b.AllocatedTokens())
			}
			if b.AllocatedTokens()-b.Tokens() >= bs {
				t.Fatalf("seed %d: more than one partial block of slack (%d tokens, %d allocated, block %d)",
					seed, b.Tokens(), b.AllocatedTokens(), bs)
			}
			if b.AllocatedTokens() != b.Blocks()*bs {
				t.Fatalf("seed %d: capacity %d != %d blocks × %d", seed, b.AllocatedTokens(), b.Blocks(), bs)
			}
		}
		b.Reset()
		if b.Tokens() != 0 || b.Blocks() != 0 || !b.WouldGrow() {
			t.Fatalf("seed %d: Reset left state: %d tokens, %d blocks", seed, b.Tokens(), b.Blocks())
		}
	}
}

// TestHeadStoreProperties checks the static split: shares sum exactly to
// the total for random head splits and byte totals, and never go negative.
func TestHeadStoreProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 500; trial++ {
		heads := 1 + rng.Intn(96)
		gpuHeads := rng.Intn(heads + 1)
		h := NewHeadStore(heads, gpuHeads)
		if f := h.GPUFraction(); f < 0 || f > 1 {
			t.Fatalf("fraction %v outside [0,1]", f)
		}
		for i := 0; i < 10; i++ {
			total := rng.Int63n(1 << 40)
			gpu, cpu := h.Split(total)
			if gpu < 0 || cpu < 0 {
				t.Fatalf("negative split (%d,%d) of %d", gpu, cpu, total)
			}
			if gpu+cpu != total {
				t.Fatalf("split (%d,%d) does not sum to %d", gpu, cpu, total)
			}
		}
		n := rng.Intn(50)
		for i := 0; i < n; i++ {
			h.Append()
		}
		if h.Tokens() != n {
			t.Fatalf("tokens %d after %d appends", h.Tokens(), n)
		}
		h.Reset()
		if h.Tokens() != 0 {
			t.Fatalf("Reset left %d tokens", h.Tokens())
		}
	}
}
