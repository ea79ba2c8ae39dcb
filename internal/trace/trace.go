// Package trace accumulates the per-category execution time and per-step
// memory usage that the paper's breakdown figures report: Fig. 1 (MHA /
// FFN / memory access), Fig. 2(c) (time and memory per step), and
// Fig. 12(a) (per-phase time and GPU/CPU memory).
package trace

import (
	"fmt"
	"strings"
)

// Category labels a slice of execution time.
type Category string

// Execution-time categories used by the engine.
const (
	CatPrefill     Category = "prefill"
	CatMHA         Category = "mha"
	CatFFN         Category = "ffn"
	CatTransfer    Category = "transfer"
	CatRecompute   Category = "recompute"
	CatQuant       Category = "quant"
	CatFullForward Category = "full-forward"
	CatOther       Category = "other"
)

// categories lists every Category in sorted order; a Breakdown's slot i
// holds categories[i], so walking the slots is walking the categories
// in the order String and Categories report them.
var categories = [...]Category{
	CatFFN, CatFullForward, CatMHA, CatOther, CatPrefill, CatQuant, CatRecompute, CatTransfer,
}

// slot returns the category's index in categories, or -1 for a string
// outside the closed set. It is a switch rather than a scan of
// categories because every charge resolves one; TestCategorySlots pins
// the two against each other.
func (c Category) slot() int {
	switch c {
	case CatFFN:
		return 0
	case CatFullForward:
		return 1
	case CatMHA:
		return 2
	case CatOther:
		return 3
	case CatPrefill:
		return 4
	case CatQuant:
		return 5
	case CatRecompute:
		return 6
	case CatTransfer:
		return 7
	}
	return -1
}

// Breakdown accumulates seconds by category in one fixed slot per
// category, so charging is an indexed add and every sum runs in the same
// category order.
type Breakdown struct {
	seconds [len(categories)]float64
}

// NewBreakdown returns an empty breakdown.
func NewBreakdown() *Breakdown {
	return &Breakdown{}
}

// Add charges dt seconds to the category; negative charges and
// categories outside the closed set panic.
func (b *Breakdown) Add(cat Category, dt float64) {
	if dt < 0 {
		panic(fmt.Sprintf("trace: negative charge %v to %s", dt, cat))
	}
	i := cat.slot()
	if i < 0 {
		panic(fmt.Sprintf("trace: unknown category %q", cat))
	}
	b.seconds[i] += dt
}

// Get returns the seconds charged to cat; 0 for an unknown category.
func (b *Breakdown) Get(cat Category) float64 {
	if i := cat.slot(); i >= 0 {
		return b.seconds[i]
	}
	return 0
}

// Total returns the sum across categories, added in sorted category
// order so the result is the same on every run.
func (b *Breakdown) Total() float64 {
	var t float64
	for _, v := range b.seconds {
		t += v
	}
	return t
}

// Merge adds every category of o into b.
func (b *Breakdown) Merge(o *Breakdown) {
	for i, v := range o.seconds {
		b.seconds[i] += v
	}
}

// Clone returns an independent copy of the breakdown.
func (b *Breakdown) Clone() *Breakdown {
	c := *b
	return &c
}

// Categories returns the non-zero categories in stable (sorted) order.
func (b *Breakdown) Categories() []Category {
	cats := make([]Category, 0, len(categories))
	for i, v := range b.seconds {
		if v > 0 {
			cats = append(cats, categories[i])
		}
	}
	return cats
}

// String formats the breakdown as "cat=1.234s" pairs in sorted order.
func (b *Breakdown) String() string {
	parts := make([]string, 0, len(categories))
	for i, v := range b.seconds {
		if v > 0 {
			parts = append(parts, fmt.Sprintf("%s=%.3fs", categories[i], v))
		}
	}
	return strings.Join(parts, " ")
}

// MemSample records device memory at one decode step.
type MemSample struct {
	Step     int
	GPUBytes int64
	CPUBytes int64
}

// MemSeries is the per-step memory trajectory of a run.
type MemSeries struct {
	Samples []MemSample
}

// Record appends a sample.
func (m *MemSeries) Record(step int, gpu, cpu int64) {
	m.Samples = append(m.Samples, MemSample{Step: step, GPUBytes: gpu, CPUBytes: cpu})
}

// PeakGPU returns the largest GPU sample, 0 when empty.
func (m *MemSeries) PeakGPU() int64 {
	var peak int64
	for _, s := range m.Samples {
		if s.GPUBytes > peak {
			peak = s.GPUBytes
		}
	}
	return peak
}

// PeakCPU returns the largest CPU sample, 0 when empty.
func (m *MemSeries) PeakCPU() int64 {
	var peak int64
	for _, s := range m.Samples {
		if s.CPUBytes > peak {
			peak = s.CPUBytes
		}
	}
	return peak
}

// At returns the sample at the given step, or false when absent.
func (m *MemSeries) At(step int) (MemSample, bool) {
	for _, s := range m.Samples {
		if s.Step == step {
			return s, true
		}
	}
	return MemSample{}, false
}
