package prefetch

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"propeller/internal/bbaddrmap"
)

func testMap() *bbaddrmap.Map {
	return &bbaddrmap.Map{Funcs: []bbaddrmap.FuncEntry{
		{Name: "hot", Addr: 0x1000, Blocks: []bbaddrmap.BlockEntry{
			{ID: 0, Offset: 0, Size: 32},
			{ID: 1, Offset: 32, Size: 32},
		}},
	}}
}

func TestAnalyzeMapsMissesToBlocks(t *testing.T) {
	misses := map[uint64]uint64{
		0x1008: 5000, // block 0, offset 8
		0x1028: 3000, // block 1, offset 8
		0x1030: 10,   // below threshold
		0x9999: 9000, // unmapped
	}
	d := Analyze(testMap(), misses, Config{MinMisses: 100})
	sites := d["hot"]
	if len(sites) != 2 {
		t.Fatalf("got %d sites: %+v", len(sites), d)
	}
	want := []Site{
		{Fn: "hot", Block: 0, Off: 8, Delta: 256},
		{Fn: "hot", Block: 1, Off: 8, Delta: 256},
	}
	if !reflect.DeepEqual(sites, want) {
		t.Errorf("sites = %+v, want %+v", sites, want)
	}
}

func TestAnalyzeMaxSites(t *testing.T) {
	misses := map[uint64]uint64{}
	for i := uint64(0); i < 20; i++ {
		misses[0x1000+i] = 1000 + i
	}
	d := Analyze(testMap(), misses, Config{MaxSites: 3})
	total := 0
	for _, s := range d {
		total += len(s)
	}
	if total != 3 {
		t.Errorf("got %d sites, want 3", total)
	}
}

func TestWriteParseRoundTrip(t *testing.T) {
	d := Directives{
		"a": {{Fn: "a", Block: 1, Off: 12, Delta: 256}},
		"b": {{Fn: "b", Block: 0, Off: 0, Delta: 512}, {Fn: "b", Block: 2, Off: 7, Delta: 128}},
	}
	var buf bytes.Buffer
	if err := Write(&buf, d); err != nil {
		t.Fatal(err)
	}
	got, err := Parse(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(d, got) {
		t.Errorf("round trip: %+v vs %+v", d, got)
	}
}

func TestParseErrors(t *testing.T) {
	for name, in := range map[string]string{
		"site before fn": "@@1 2 3\n",
		"short site":     "@f\n@@1 2\n",
		"bad number":     "@f\n@@x 2 3\n",
		"empty fn":       "@\n",
		"junk":           "@f\nhello\n",
	} {
		if _, err := Parse(strings.NewReader(in)); err == nil {
			t.Errorf("%s: accepted %q", name, in)
		}
	}
}

func TestDefaults(t *testing.T) {
	var c Config
	if c.minMisses() == 0 || c.maxSites() == 0 {
		t.Error("zero defaults")
	}
}
