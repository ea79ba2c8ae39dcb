package costmodel

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/memsim"
	"repro/internal/model"
)

// directLayer is DecodeLayerTime at batch 1 written out from the
// uncached primitives: the value every DecodeTable.LayerTime lookup must
// reproduce bit for bit.
func directLayer(c *Cost, cfg model.Config, sel, kvBytes int, swa bool) (mha, ffn float64) {
	ac := AttnConfig{Batch: 1, Hidden: cfg.Hidden, Heads: cfg.Heads, Attended: sel, BytesKV: kvBytes}
	if swa {
		ac.LocalWindow = sel / 2
	}
	mha = c.Attention(ac).Total()
	if swa {
		mha += sparseBookkeeping
	}
	return mha, c.FFNTime(1, cfg.Hidden, cfg.FFN, cfg.GatedFFN).Seconds
}

// directRagged is the fused ragged iteration charge written out from the
// uncached primitives, in the summation order the table must keep.
func directRagged(c *Cost, cfg model.Config, attended []int, kvBytes int, swa bool) (mha, ffn float64) {
	b := len(attended)
	if b == 0 {
		return 0, 0
	}
	h := int64(cfg.Hidden)
	mhaLayer := c.GEMM(int64(b), h, 4*h, 2).Seconds
	kernels := 3.0
	if swa {
		kernels = 5
	}
	for _, sel := range attended {
		ac := AttnConfig{Batch: 1, Hidden: cfg.Hidden, Heads: cfg.Heads, Attended: sel, BytesKV: kvBytes}
		if swa {
			ac.LocalWindow = sel / 2
		}
		br := c.Attention(ac)
		mhaLayer += br.Total() - br.QProj.Seconds
	}
	mhaLayer -= float64(b-1) * kernels * launchLatency
	if swa {
		mhaLayer += sparseBookkeeping
	}
	layers := float64(cfg.Layers)
	return mhaLayer * layers, c.FFNTime(b, cfg.Hidden, cfg.FFN, cfg.GatedFFN).Seconds * layers
}

// TestDecodeTableMatchesDirect pins the table's bit-identity contract on
// every registered model, both KV compute widths and both SWA modes:
// per-layer entries over attended lengths 1..4096, then ragged batches
// of 1..16 random lengths, each compared with == against the uncached
// expression and against the public Cost methods.
func TestDecodeTableMatchesDirect(t *testing.T) {
	c := New(memsim.V100_16G())
	rng := rand.New(rand.NewSource(14))
	for _, name := range model.Registered() {
		cfg := model.MustByName(name)
		for _, kvb := range []int{1, 2} {
			tab := NewDecodeTable(&c, cfg, kvb)
			for _, swa := range []bool{false, true} {
				// Fill high-to-low on one mode so out-of-order filling is
				// exercised as well as growth.
				for i := 1; i <= 4096; i++ {
					sel := i
					if swa {
						sel = 4097 - i
					}
					m, f := tab.LayerTime(sel, swa)
					wm, wf := directLayer(&c, cfg, sel, kvb, swa)
					if m != wm || f != wf {
						t.Fatalf("%s kv=%d swa=%v sel=%d: table (%b, %b) != direct (%b, %b)", name, kvb, swa, sel, m, f, wm, wf)
					}
					if dm, df := c.DecodeLayerTime(cfg, 1, sel, kvb, swa); m != dm || f != df {
						t.Fatalf("%s kv=%d swa=%v sel=%d: table (%b, %b) != DecodeLayerTime (%b, %b)", name, kvb, swa, sel, m, f, dm, df)
					}
				}
				for b := 1; b <= 16; b++ {
					attended := make([]int, b)
					for i := range attended {
						attended[i] = 1 + rng.Intn(8192)
					}
					m, f := tab.Ragged(attended, swa)
					wm, wf := directRagged(&c, cfg, attended, kvb, swa)
					if m != wm || f != wf {
						t.Fatalf("%s kv=%d swa=%v %v: table (%b, %b) != direct (%b, %b)", name, kvb, swa, attended, m, f, wm, wf)
					}
					if dm, df := c.RaggedDecodeTime(cfg, attended, kvb, swa); m != dm || f != df {
						t.Fatalf("%s kv=%d swa=%v %v: table (%b, %b) != RaggedDecodeTime (%b, %b)", name, kvb, swa, attended, m, f, dm, df)
					}
				}
			}
		}
	}
}

// TestDecodeTableWarmLookupsAllocateNothing pins that growth is a
// warm-up cost: once the lengths a run attends to have been seen,
// lookups never allocate.
func TestDecodeTableWarmLookupsAllocateNothing(t *testing.T) {
	c := New(memsim.V100_16G())
	tab := NewDecodeTable(&c, model.MustByName("opt-6.7b"), 1)
	attended := []int{3000, 17, 640, 1, 2048, 99, 1500, 8}
	tab.Ragged(attended, true)
	tab.LayerTime(3000, false)
	allocs := testing.AllocsPerRun(100, func() {
		tab.Ragged(attended, true)
		tab.LayerTime(640, false)
	})
	if allocs != 0 {
		t.Fatalf("warm table lookups allocate %v per run", allocs)
	}
}

// FuzzDecodeTable feeds fuzzer-chosen attended slices (two bytes per
// sequence) through one table and checks every ragged charge and every
// per-layer entry against the uncached expression.
func FuzzDecodeTable(f *testing.F) {
	f.Add([]byte{0, 1}, false)
	f.Add([]byte{0x10, 0, 0, 3, 0xff, 0xff, 1, 0}, true)
	c := New(memsim.V100_16G())
	cfg := model.MustByName("opt-6.7b")
	f.Fuzz(func(t *testing.T, data []byte, swa bool) {
		tab := NewDecodeTable(&c, cfg, 1)
		var attended []int
		for i := 0; i+1 < len(data); i += 2 {
			attended = append(attended, (int(data[i])<<8|int(data[i+1]))%8192)
		}
		for n := 0; n <= len(attended); n++ {
			m, fn := tab.Ragged(attended[:n], swa)
			wm, wf := directRagged(&c, cfg, attended[:n], 1, swa)
			if m != wm || fn != wf {
				t.Fatalf("swa=%v %v: table (%b, %b) != direct (%b, %b)", swa, attended[:n], m, fn, wm, wf)
			}
		}
		for _, sel := range attended {
			m, fn := tab.LayerTime(sel, swa)
			wm, wf := directLayer(&c, cfg, sel, 1, swa)
			if m != wm || fn != wf {
				t.Fatalf("swa=%v sel=%d: table (%b, %b) != direct (%b, %b)", swa, sel, m, fn, wm, wf)
			}
		}
	})
}

// BenchmarkRaggedDecode is the serving loop's per-iteration compute
// charge on a warm table at batch 1, 8 and 16 (replay engine settings:
// opt-6.7b, INT8 KV, SWA).
func BenchmarkRaggedDecode(b *testing.B) {
	c := New(memsim.V100_16G())
	cfg := model.MustByName("opt-6.7b")
	for _, batch := range []int{1, 8, 16} {
		b.Run(fmt.Sprintf("batch=%d", batch), func(b *testing.B) {
			tab := NewDecodeTable(&c, cfg, 1)
			attended := make([]int, batch)
			for i := range attended {
				attended[i] = 64 + 37*i
			}
			tab.Ragged(attended, true)
			b.ReportAllocs()
			b.ResetTimer()
			var sink float64
			for i := 0; i < b.N; i++ {
				m, f := tab.Ragged(attended, true)
				sink += m + f
			}
			_ = sink
		})
	}
}
