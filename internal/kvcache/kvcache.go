// Package kvcache provides the KV-tensor placement bookkeeping for the
// three caching granularities the paper compares (Table I):
//
//   - TokenStore — ALISA's token-level placement: every token position is
//     individually on GPU, on CPU, or deleted (recomputable).
//   - BlockStore — vLLM-style paged blocks: fixed groups of tokens move
//     between devices as units, with partial-block allocation overhead.
//   - HeadStore — FlexGen-style head-level static split: a fixed fraction
//     of every token's KV lives on each device for the whole run.
//
// Stores track logical placement and byte accounting; the memsim system
// charges the actual transfer times.
package kvcache

import (
	"fmt"
	"slices"
)

// Location says where a token's KV tensors currently live.
type Location uint8

// Locations of KV tensors.
const (
	GPU Location = iota
	CPU
	Deleted
)

// String returns the location name.
func (l Location) String() string {
	switch l {
	case GPU:
		return "gpu"
	case CPU:
		return "cpu"
	case Deleted:
		return "deleted"
	}
	return fmt.Sprintf("location(%d)", uint8(l))
}

// TokenStore tracks per-token-position KV placement for a batch whose
// sequences advance in lockstep (the paper's system evaluation setting).
// Position i covers the KV of token i in every sequence of the batch.
//
// Besides the per-location populations, the store brackets each
// location's positions: every position at l lies in [lo[l], hi[l]). The
// brackets let Oldest/Newest start their scans near the answer and let
// CountsIn skip the all-GPU stretches of a range, so the scheduler's
// per-step queries do not grow with the prefix. A bracket is only
// meaningful while its location is populated.
type TokenStore struct {
	loc    []Location
	counts [3]int
	lo, hi [3]int
}

// NewTokenStore returns an empty token-level store.
func NewTokenStore() *TokenStore { return &TokenStore{} }

// Len returns the number of token positions tracked (including deleted).
func (s *TokenStore) Len() int { return len(s.loc) }

// Clone returns an independent deep copy of the store, for scheduler
// forking.
func (s *TokenStore) Clone() *TokenStore {
	c := *s
	c.loc = append([]Location(nil), s.loc...)
	return &c
}

// Append adds a new token position at the given location and returns its
// index.
func (s *TokenStore) Append(loc Location) int {
	i := len(s.loc)
	s.loc = append(s.loc, loc)
	s.enter(i, loc)
	return i
}

// AppendN adds k new token positions at the given location, in one
// step, with the same effect as k calls to Append — the prefill of a
// prompt range that lands in one place.
//
//alisa:hotpath
func (s *TokenStore) AppendN(loc Location, k int) {
	if k <= 0 {
		return
	}
	i := len(s.loc)
	s.loc = slices.Grow(s.loc, k)[:i+k]
	r := s.loc[i:]
	for p := range r {
		r[p] = loc
	}
	if s.counts[loc] == 0 {
		s.lo[loc] = i
	}
	s.hi[loc] = i + k
	s.counts[loc] += k
}

// Grow makes room for n more positions, so the next n appends do not
// reallocate — sizing a sequence's store once for its whole run.
func (s *TokenStore) Grow(n int) {
	if n > 0 {
		s.loc = slices.Grow(s.loc, n)
	}
}

// Loc returns the location of position i.
func (s *TokenStore) Loc(i int) Location {
	s.check(i)
	return s.loc[i]
}

// Move relocates position i to the given location. Moving a deleted token
// back to GPU models recomputation.
func (s *TokenStore) Move(i int, to Location) {
	s.check(i)
	from := s.loc[i]
	if from == to {
		return
	}
	s.counts[from]--
	// i was inside from's bracket; if it was an end, the bracket shrinks
	// past it.
	if i == s.lo[from] {
		s.lo[from] = i + 1
	}
	if i+1 == s.hi[from] {
		s.hi[from] = i
	}
	s.loc[i] = to
	s.enter(i, to)
}

// enter counts position i in at loc and widens loc's bracket to cover it.
func (s *TokenStore) enter(i int, loc Location) {
	if s.counts[loc] == 0 {
		s.lo[loc], s.hi[loc] = i, i+1
	} else {
		s.lo[loc] = min(s.lo[loc], i)
		s.hi[loc] = max(s.hi[loc], i+1)
	}
	s.counts[loc]++
}

// Count returns how many positions live at loc.
func (s *TokenStore) Count(loc Location) int { return s.counts[loc] }

// Counts returns the populations of all three locations at once — the
// partition the byte-accounting invariants are stated over.
func (s *TokenStore) Counts() (gpu, cpu, deleted int) {
	return s.counts[GPU], s.counts[CPU], s.counts[Deleted]
}

// CountsIn returns the GPU/CPU/Deleted populations of positions
// [lo, hi), indexed by Location. Positions outside the bracket of the
// CPU and Deleted locations are all on GPU, so only the overlap is
// scanned: a store with nothing off the GPU answers in O(1), and any
// other store in at most one pass over the range.
//
//alisa:hotpath
func (s *TokenStore) CountsIn(lo, hi int) [3]int {
	if lo < 0 || hi > len(s.loc) || lo > hi {
		s.badRange(lo, hi)
	}
	from, to := hi, lo
	for _, l := range [2]Location{CPU, Deleted} {
		if s.counts[l] > 0 {
			from = min(from, max(lo, s.lo[l]))
			to = max(to, min(hi, s.hi[l]))
		}
	}
	var c [3]int
	if from < to {
		for _, l := range s.loc[from:to] {
			c[l]++
		}
	}
	c[GPU] = hi - lo - c[CPU] - c[Deleted]
	return c
}

// Bytes returns the resident byte totals of the sequence at tokenBytes per
// position. Deleted positions hold no memory.
func (s *TokenStore) Bytes(tokenBytes int64) (gpu, cpu int64) {
	if tokenBytes < 0 {
		panic(fmt.Sprintf("kvcache: negative token bytes %d", tokenBytes))
	}
	return int64(s.counts[GPU]) * tokenBytes, int64(s.counts[CPU]) * tokenBytes
}

// Reset empties the store, releasing its positions for reuse — the
// free-on-completion hook of the serving loop. The backing array is
// retained so a recycled sequence reallocates nothing.
func (s *TokenStore) Reset() {
	s.loc = s.loc[:0]
	s.counts = [3]int{}
	s.lo, s.hi = [3]int{}, [3]int{}
}

// Oldest returns the lowest position at loc, or -1 when loc is empty —
// the eviction victim of both ALISA's offload heuristic ("store the
// preceding ones in the CPU") and its Phase III deletion ("delete the
// oldest KV tensors in the CPU"). The scan starts at loc's bracket and
// tightens it to the answer, so repeated oldest-first eviction costs
// amortized O(1) per victim.
//
//alisa:hotpath
func (s *TokenStore) Oldest(loc Location) int {
	if s.counts[loc] == 0 {
		return -1
	}
	for i := s.lo[loc]; ; i++ {
		if s.loc[i] == loc {
			s.lo[loc] = i
			return i
		}
	}
}

// Newest returns the highest position at loc, or -1 when loc is empty,
// tightening loc's bracket from above as Oldest does from below.
//
//alisa:hotpath
func (s *TokenStore) Newest(loc Location) int {
	if s.counts[loc] == 0 {
		return -1
	}
	for i := s.hi[loc] - 1; ; i-- {
		if s.loc[i] == loc {
			s.hi[loc] = i + 1
			return i
		}
	}
}

func (s *TokenStore) check(i int) {
	if i < 0 || i >= len(s.loc) {
		panic(fmt.Sprintf("kvcache: position %d out of range %d", i, len(s.loc)))
	}
}

func (s *TokenStore) badRange(lo, hi int) {
	panic(fmt.Sprintf("kvcache: range [%d,%d) out of range %d", lo, hi, len(s.loc)))
}

// BlockStore is vLLM-style paged placement: tokens fill fixed-size blocks;
// whole blocks move between devices. Allocation is block-granular, so the
// final partially filled block still occupies a full block of memory.
type BlockStore struct {
	blockSize int
	tokens    int
	blocks    []Location // one entry per allocated block
}

// NewBlockStore returns an empty paged store with the given block size.
func NewBlockStore(blockSize int) *BlockStore {
	if blockSize <= 0 {
		panic(fmt.Sprintf("kvcache: block size must be positive, got %d", blockSize))
	}
	return &BlockStore{blockSize: blockSize}
}

// BlockSize returns the tokens per block.
func (b *BlockStore) BlockSize() int { return b.blockSize }

// Clone returns an independent deep copy of the store, for scheduler
// forking.
func (b *BlockStore) Clone() *BlockStore {
	return &BlockStore{blockSize: b.blockSize, tokens: b.tokens, blocks: append([]Location(nil), b.blocks...)}
}

// Tokens returns the number of tokens stored.
func (b *BlockStore) Tokens() int { return b.tokens }

// Blocks returns the number of allocated blocks.
func (b *BlockStore) Blocks() int { return len(b.blocks) }

// Append adds one token, allocating a new GPU block when the current one
// is full. It reports whether a new block was allocated.
func (b *BlockStore) Append() bool {
	grew := false
	if b.tokens == len(b.blocks)*b.blockSize {
		b.blocks = append(b.blocks, GPU)
		grew = true
	}
	b.tokens++
	return grew
}

// AllocatedTokens returns the token capacity of all allocated blocks —
// the fragmentation-inclusive footprint vLLM's paging avoids wasting
// beyond one block.
func (b *BlockStore) AllocatedTokens() int { return len(b.blocks) * b.blockSize }

// WouldGrow reports whether the next Append allocates a new block —
// letting callers reserve the block's memory before mutating the store.
func (b *BlockStore) WouldGrow() bool { return b.tokens == len(b.blocks)*b.blockSize }

// Reset empties the store for reuse after its sequence completes.
func (b *BlockStore) Reset() {
	b.blocks = b.blocks[:0]
	b.tokens = 0
}

// BlocksIn counts blocks at the given location.
func (b *BlockStore) BlocksIn(loc Location) int {
	n := 0
	for _, l := range b.blocks {
		if l == loc {
			n++
		}
	}
	return n
}

// SwapOut moves up to n of the oldest GPU blocks to CPU, returning how
// many moved.
func (b *BlockStore) SwapOut(n int) int {
	moved := 0
	for i := 0; i < len(b.blocks) && moved < n; i++ {
		if b.blocks[i] == GPU {
			b.blocks[i] = CPU
			moved++
		}
	}
	return moved
}

// SwapIn moves up to n of the oldest CPU blocks back to GPU, returning how
// many moved.
func (b *BlockStore) SwapIn(n int) int {
	moved := 0
	for i := 0; i < len(b.blocks) && moved < n; i++ {
		if b.blocks[i] == CPU {
			b.blocks[i] = GPU
			moved++
		}
	}
	return moved
}

// HeadStore is FlexGen-style head-level static placement: GPUFraction of
// every token's KV bytes stay on GPU and the rest on CPU, fixed for the
// whole inference ("splits KV tensors along the head dimension and remains
// static", Fig. 7(a)).
type HeadStore struct {
	heads    int
	gpuHeads int
	tokens   int
}

// NewHeadStore returns a head-split store keeping gpuHeads of heads on GPU.
func NewHeadStore(heads, gpuHeads int) *HeadStore {
	if heads <= 0 || gpuHeads < 0 || gpuHeads > heads {
		panic(fmt.Sprintf("kvcache: bad head split %d/%d", gpuHeads, heads))
	}
	return &HeadStore{heads: heads, gpuHeads: gpuHeads}
}

// Append adds one token position.
func (h *HeadStore) Append() { h.tokens++ }

// Clone returns an independent copy of the store, for scheduler forking.
func (h *HeadStore) Clone() *HeadStore {
	c := *h
	return &c
}

// Reset empties the store for reuse after its sequence completes.
func (h *HeadStore) Reset() { h.tokens = 0 }

// Tokens returns the number of stored token positions.
func (h *HeadStore) Tokens() int { return h.tokens }

// GPUFraction returns the byte fraction resident on GPU.
func (h *HeadStore) GPUFraction() float64 { return float64(h.gpuHeads) / float64(h.heads) }

// Split divides total KV bytes between the devices.
func (h *HeadStore) Split(totalBytes int64) (gpu, cpu int64) {
	gpu = int64(float64(totalBytes) * h.GPUFraction())
	return gpu, totalBytes - gpu
}
