package trace

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"
	"testing/quick"
)

func TestBreakdownAddGetTotal(t *testing.T) {
	b := NewBreakdown()
	b.Add(CatMHA, 1.5)
	b.Add(CatMHA, 0.5)
	b.Add(CatFFN, 1.0)
	if b.Get(CatMHA) != 2.0 {
		t.Fatalf("MHA = %v, want 2.0", b.Get(CatMHA))
	}
	if b.Total() != 3.0 {
		t.Fatalf("Total = %v, want 3.0", b.Total())
	}
	if b.Get(CatQuant) != 0 {
		t.Fatal("unset category should be zero")
	}
}

func TestBreakdownNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewBreakdown().Add(CatMHA, -1)
}

func TestBreakdownMerge(t *testing.T) {
	a := NewBreakdown()
	a.Add(CatMHA, 1)
	b := NewBreakdown()
	b.Add(CatMHA, 2)
	b.Add(CatTransfer, 3)
	a.Merge(b)
	if a.Get(CatMHA) != 3 || a.Get(CatTransfer) != 3 {
		t.Fatalf("merge wrong: %v", a)
	}
}

func TestBreakdownStringSorted(t *testing.T) {
	b := NewBreakdown()
	b.Add(CatTransfer, 2)
	b.Add(CatFFN, 1)
	s := b.String()
	if !strings.Contains(s, "ffn=1.000s") || !strings.Contains(s, "transfer=2.000s") {
		t.Fatalf("String = %q", s)
	}
	if strings.Index(s, "ffn") > strings.Index(s, "transfer") {
		t.Fatalf("categories not sorted: %q", s)
	}
}

func TestCategoriesOmitZero(t *testing.T) {
	b := NewBreakdown()
	b.Add(CatMHA, 0)
	b.Add(CatFFN, 1)
	cats := b.Categories()
	if len(cats) != 1 || cats[0] != CatFFN {
		t.Fatalf("Categories = %v", cats)
	}
}

func TestMemSeries(t *testing.T) {
	var m MemSeries
	m.Record(0, 100, 10)
	m.Record(1, 300, 20)
	m.Record(2, 200, 50)
	if m.PeakGPU() != 300 || m.PeakCPU() != 50 {
		t.Fatalf("peaks = %d/%d", m.PeakGPU(), m.PeakCPU())
	}
	s, ok := m.At(1)
	if !ok || s.GPUBytes != 300 {
		t.Fatalf("At(1) = %+v, %v", s, ok)
	}
	if _, ok := m.At(9); ok {
		t.Fatal("At(9) should miss")
	}
	var empty MemSeries
	if empty.PeakGPU() != 0 || empty.PeakCPU() != 0 {
		t.Fatal("empty series peaks should be zero")
	}
}

// Property: Total equals the sum of all category gets, under any sequence
// of additions.
func TestTotalConsistencyProperty(t *testing.T) {
	cats := []Category{CatPrefill, CatMHA, CatFFN, CatTransfer, CatRecompute, CatQuant, CatOther}
	f := func(charges []uint16) bool {
		b := NewBreakdown()
		for i, c := range charges {
			b.Add(cats[i%len(cats)], float64(c)/1000)
		}
		var sum float64
		for _, c := range cats {
			sum += b.Get(c)
		}
		return math.Abs(sum-b.Total()) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// mapBreakdown is the map-backed Breakdown the fixed-slot one replaced,
// kept as the reference for its String and Categories output.
type mapBreakdown map[Category]float64

func (m mapBreakdown) categories() []Category {
	var cats []Category
	for c, v := range m {
		if v > 0 {
			cats = append(cats, c)
		}
	}
	sort.Slice(cats, func(i, j int) bool { return cats[i] < cats[j] })
	return cats
}

func (m mapBreakdown) String() string {
	var parts []string
	for _, c := range m.categories() {
		parts = append(parts, fmt.Sprintf("%s=%.3fs", c, m[c]))
	}
	return strings.Join(parts, " ")
}

// TestBreakdownMatchesMapReference drives random charges (zero charges
// included) through a Breakdown and the map-backed reference, then
// checks Get, String, Categories, Merge and Clone agree byte for byte,
// and that Total is the sum in sorted category order.
func TestBreakdownMatchesMapReference(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for trial := 0; trial < 200; trial++ {
		b, ref := NewBreakdown(), mapBreakdown{}
		o, oref := NewBreakdown(), mapBreakdown{}
		for i := rng.Intn(40); i > 0; i-- {
			c := categories[rng.Intn(len(categories))]
			dt := rng.ExpFloat64()
			if rng.Intn(4) == 0 {
				dt = 0
			}
			if rng.Intn(2) == 0 {
				b.Add(c, dt)
				ref[c] += dt
			} else {
				o.Add(c, dt)
				oref[c] += dt
			}
		}
		clone := b.Clone()
		b.Merge(o)
		for c, v := range oref {
			ref[c] += v
		}
		for _, c := range categories {
			if b.Get(c) != ref[c] {
				t.Fatalf("trial %d: Get(%s) = %v, want %v", trial, c, b.Get(c), ref[c])
			}
		}
		if got, want := b.String(), ref.String(); got != want {
			t.Fatalf("trial %d: String %q, want %q", trial, got, want)
		}
		if got, want := b.Categories(), ref.categories(); !reflect.DeepEqual(got, want) && len(got)+len(want) > 0 {
			t.Fatalf("trial %d: Categories %v, want %v", trial, got, want)
		}
		var sum float64
		for _, c := range ref.categories() {
			sum += ref[c]
		}
		if b.Total() != sum {
			t.Fatalf("trial %d: Total %v, want sorted-order sum %v", trial, b.Total(), sum)
		}
		// The clone was taken before the merge and must not see it.
		for _, c := range categories {
			if clone.Get(c) == b.Get(c) && oref[c] > 0 {
				t.Fatalf("trial %d: clone shares state with the original (%s)", trial, c)
			}
		}
	}
}

// TestCategorySlots pins slot's switch to the categories order.
func TestCategorySlots(t *testing.T) {
	for i, c := range categories {
		if got := c.slot(); got != i {
			t.Errorf("%s.slot() = %d, want %d", c, got, i)
		}
	}
	if got := Category("bogus").slot(); got != -1 {
		t.Errorf("unknown category slot = %d, want -1", got)
	}
}

func TestBreakdownUnknownCategory(t *testing.T) {
	b := NewBreakdown()
	if b.Get("bogus") != 0 {
		t.Fatal("unknown category should read zero")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("charging an unknown category should panic")
		}
	}()
	b.Add("bogus", 1)
}
