package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"sort"
	"strings"
	"sync"
	"syscall"
	"time"
)

// machineStamp describes where a run happened. Snapshots taken on
// different machines are never compared.
func machineStamp() map[string]any {
	commit := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				commit = s.Value
			}
		}
	}
	return map[string]any{
		"gomaxprocs":    runtime.GOMAXPROCS(0),
		"nproc":         runtime.NumCPU(),
		"go":            runtime.Version(),
		"goos":          runtime.GOOS,
		"goarch":        runtime.GOARCH,
		"cpu":           cpuModel(),
		"commit":        commit,
		"source_sha256": sourceDigest("."),
	}
}

// cpuModel reads the first model name from /proc/cpuinfo, or "unknown".
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// sourceDigest hashes every Go source and module file under root, in
// path order, skipping hidden directories (build output included). It
// identifies the code a run measured when the checkout carries no VCS
// metadata. The benchmark runs from the repository root.
func sourceDigest(root string) string {
	var paths []string
	_ = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() {
			if path != root && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(path, ".go") || d.Name() == "go.mod" {
			paths = append(paths, path)
		}
		return nil
	})
	sort.Strings(paths)
	h := sha256.New()
	for _, p := range paths {
		f, err := os.Open(p)
		if err != nil {
			continue
		}
		io.WriteString(h, filepath.ToSlash(p)+"\n")
		_, _ = io.Copy(h, f)
		f.Close()
	}
	return hex.EncodeToString(h.Sum(nil))
}

// heapSampler tracks the peak live heap — the bytes the last GC marked
// live — by sampling runtime/metrics, which does not stop the world.
// Live bytes, unlike the heap's size between collections, do not depend
// on when a sample lands in the GC cycle.
type heapSampler struct {
	quit chan struct{}
	done chan struct{}
	mu   sync.Mutex
	buf  []metrics.Sample // reused, so sampling does not allocate
	peak uint64
}

const heapLive = "/gc/heap/live:bytes"

func startHeapSampler(every time.Duration) *heapSampler {
	h := &heapSampler{quit: make(chan struct{}), done: make(chan struct{}),
		buf: []metrics.Sample{{Name: heapLive}}}
	go func() {
		defer close(h.done)
		t := time.NewTicker(every)
		defer t.Stop()
		for {
			h.sample()
			select {
			case <-h.quit:
				return
			case <-t.C:
			}
		}
	}()
	return h
}

func (h *heapSampler) sample() {
	h.mu.Lock()
	defer h.mu.Unlock()
	metrics.Read(h.buf)
	if v := h.buf[0].Value; v.Kind() == metrics.KindUint64 && v.Uint64() > h.peak {
		h.peak = v.Uint64()
	}
}

// takePeak returns the peak in MB since the last call and starts a new
// window.
func (h *heapSampler) takePeak() float64 {
	h.sample()
	h.mu.Lock()
	defer h.mu.Unlock()
	peak := h.peak
	h.peak = 0
	return float64(peak) / (1 << 20)
}

// stop stops the sampler and waits for it.
func (h *heapSampler) stop() {
	close(h.quit)
	<-h.done
}

// allocCounter measures heap allocations and GC cycles across a stretch
// of work.
type allocCounter struct{ mallocs, gcs uint64 }

func readAllocs() allocCounter {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return allocCounter{ms.Mallocs, uint64(ms.NumGC)}
}

func (a allocCounter) since(b allocCounter) (mallocs, gcs float64) {
	return float64(a.mallocs - b.mallocs), float64(a.gcs - b.gcs)
}

// cpuTimes returns the process's user and system CPU time.
func cpuTimes() (user, sys time.Duration) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, 0
	}
	return time.Duration(ru.Utime.Nano()), time.Duration(ru.Stime.Nano())
}
