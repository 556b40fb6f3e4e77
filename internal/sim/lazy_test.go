package sim

import (
	"bytes"
	"sync"
	"testing"

	"propeller/internal/codegen"
	"propeller/internal/linker"
	"propeller/internal/objfile"
	"propeller/internal/testprog"
)

// TestLoadAllocs pins Load at a handful of allocations whatever the text
// size: it builds the LSDA index and the (empty) page table, and decodes
// nothing. The eager decoder allocated one DecodeError per text offset
// that is not an instruction start.
func TestLoadAllocs(t *testing.T) {
	small := BuildModules(t, testprog.MultiModule(), codegen.Options{}, linker.Config{})
	big := small.Clone()
	big.Text = append(big.Text, make([]byte, 4<<20)...) // 4 MB of halts nobody runs
	var allocs [2]float64
	for i, bin := range []*objfile.Binary{small, big} {
		allocs[i] = testing.AllocsPerRun(5, func() {
			if _, err := Load(bin); err != nil {
				t.Fatal(err)
			}
		})
	}
	if allocs[0] != allocs[1] {
		t.Errorf("Load allocations depend on text size: %v for %d bytes, %v for %d bytes",
			allocs[0], len(small.Text), allocs[1], len(big.Text))
	}
	if allocs[1] > 8 {
		t.Errorf("Load made %v allocations, want a fixed handful", allocs[1])
	}
}

// TestDecodesOnlyFetchedPages: a run decodes the pages it fetches from and
// no others.
func TestDecodesOnlyFetchedPages(t *testing.T) {
	bin := BuildModules(t, testprog.MultiModule(), codegen.Options{}, linker.Config{})
	bin.Text = append(bin.Text, make([]byte, 16*pageSize)...)
	p, err := Load(bin)
	if err != nil {
		t.Fatal(err)
	}
	decoded := func() (n int) {
		for i := range p.pages {
			if p.pages[i].Load() != nil {
				n++
			}
		}
		return n
	}
	if n := decoded(); n != 0 {
		t.Fatalf("Load decoded %d pages", n)
	}
	if _, err := p.Run(Config{}); err != nil {
		t.Fatal(err)
	}
	if n := decoded(); n == 0 || n > len(p.pages)-16 {
		t.Errorf("run decoded %d of %d pages; the 16 appended ones are never fetched", n, len(p.pages))
	}
}

// TestColdStartConcurrentRuns starts eight runs at once on a Program that
// has decoded nothing, so they race to decode and publish the same pages;
// each must produce the profile a run on a private Program produces. Under
// -race this is the check on the page table's publication.
func TestColdStartConcurrentRuns(t *testing.T) {
	bin := BuildModules(t, testprog.MultiModule(), codegen.Options{}, linker.Config{})
	solo, err := Load(bin)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{LBRPeriod: 97}
	want := runProfileBytes(t, solo, cfg)

	for round := 0; round < 4; round++ {
		shared, err := Load(bin)
		if err != nil {
			t.Fatal(err)
		}
		const hosts = 8
		got := make([][]byte, hosts)
		errs := make([]error, hosts)
		start := make(chan struct{})
		var wg sync.WaitGroup
		for h := 0; h < hosts; h++ {
			wg.Add(1)
			go func(h int) {
				defer wg.Done()
				<-start
				res, err := shared.Run(cfg)
				if err != nil {
					errs[h] = err
					return
				}
				got[h] = res.Profile.AppendWire(nil)
			}(h)
		}
		close(start)
		wg.Wait()
		for h := 0; h < hosts; h++ {
			if errs[h] != nil {
				t.Fatalf("host %d: %v", h, errs[h])
			}
			if !bytes.Equal(got[h], want) {
				t.Errorf("round %d host %d: cold concurrent profile differs from solo run", round, h)
			}
		}
	}
}
