package layoutfile

import (
	"bytes"
	"reflect"
	"strings"
	"testing"
)

func TestDirectivesRoundTrip(t *testing.T) {
	d := Directives{
		"foo": {Clusters: [][]int{{0, 2, 5}, {3, 4}}},
		"bar": {Clusters: [][]int{{0}}},
	}
	var buf bytes.Buffer
	if err := WriteDirectives(&buf, d); err != nil {
		t.Fatal(err)
	}
	got, err := ParseDirectives(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(d, got) {
		t.Fatalf("round trip mismatch: %+v vs %+v", d, got)
	}
}

func TestDirectivesFormatStable(t *testing.T) {
	d := Directives{"zeta": {Clusters: [][]int{{0, 1}}}, "alpha": {Clusters: [][]int{{0}}}}
	var buf bytes.Buffer
	if err := WriteDirectives(&buf, d); err != nil {
		t.Fatal(err)
	}
	want := "!alpha\n!!0\n!zeta\n!!0 1\n"
	if buf.String() != want {
		t.Errorf("got %q, want %q", buf.String(), want)
	}
}

func TestParseDirectivesComments(t *testing.T) {
	in := "# comment\n!f\n\n!!0 1\n# another\n!!2\n"
	d, err := ParseDirectives(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	want := Directives{"f": {Clusters: [][]int{{0, 1}, {2}}}}
	if !reflect.DeepEqual(d, want) {
		t.Errorf("got %+v", d)
	}
}

func TestParseDirectivesErrors(t *testing.T) {
	cases := map[string]string{
		"cluster before function": "!!0 1\n",
		"bad block id":            "!f\n!!x\n",
		"empty cluster":           "!f\n!!\n",
		"empty function":          "!\n",
		"duplicate function":      "!f\n!f\n",
		"junk line":               "!f\nhello\n",
	}
	for name, in := range cases {
		if _, err := ParseDirectives(strings.NewReader(in)); err == nil {
			t.Errorf("%s: parse accepted %q", name, in)
		}
	}
}

func TestContains(t *testing.T) {
	c := ClusterSpec{Clusters: [][]int{{0, 2}, {7}}}
	for _, id := range []int{0, 2, 7} {
		if !c.Contains(id) {
			t.Errorf("Contains(%d) = false", id)
		}
	}
	if c.Contains(1) {
		t.Error("Contains(1) = true")
	}
}

func TestOrderRoundTrip(t *testing.T) {
	o := SymbolOrder{Symbols: []string{"main", "foo", "foo.cold", "bar.1"}}
	var buf bytes.Buffer
	if err := WriteOrder(&buf, o); err != nil {
		t.Fatal(err)
	}
	got, err := ParseOrder(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(o, got) {
		t.Fatalf("round trip mismatch: %+v vs %+v", o, got)
	}
}

func TestParseOrderRejectsDuplicates(t *testing.T) {
	if _, err := ParseOrder(strings.NewReader("a\nb\na\n")); err == nil {
		t.Error("duplicate symbols accepted")
	}
}

func TestParseOrderSkipsBlanksAndComments(t *testing.T) {
	got, err := ParseOrder(strings.NewReader("\n# c\n a \n"))
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Symbols) != 1 || got.Symbols[0] != "a" {
		t.Errorf("got %+v", got.Symbols)
	}
}

// FuzzParseDirectives: cc_prof.txt reaches ParseDirectives from files
// handed to wsc-cc and wsc-propeller and from the profile service's
// /publish path. It must never panic, and whatever it accepts must
// re-write to a fixed point: the written form parses, and writes again to
// the same bytes.
func FuzzParseDirectives(f *testing.F) {
	f.Add([]byte("!foo\n!!0 2 5\n!!3 4\n!bar\n!!0\n"))
	f.Add([]byte("# comment\n\n  !foo  \n!! 1\t2 \n"))
	f.Add([]byte("!!0\n"))
	f.Add([]byte("! !x\n!!0\n"))
	f.Add([]byte("!f\n!!-1 +2 99999999999999999999\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		d, err := ParseDirectives(bytes.NewReader(data))
		if err != nil {
			return
		}
		var first, second bytes.Buffer
		if err := WriteDirectives(&first, d); err != nil {
			t.Fatal(err)
		}
		again, err := ParseDirectives(bytes.NewReader(first.Bytes()))
		if err != nil {
			t.Fatalf("re-parse of the written form of an accepted input failed: %v\n%q", err, first.Bytes())
		}
		if err := WriteDirectives(&second, again); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatalf("written form is not a fixed point:\n%q\n%q", first.Bytes(), second.Bytes())
		}
	})
}

// FuzzParseOrder does the same for ld_prof.txt (wsc-ld, wsc-propeller,
// /publish).
func FuzzParseOrder(f *testing.F) {
	f.Add([]byte("main\nfoo.cold\nbar.1\n"))
	f.Add([]byte("# comment\n\n  main  \n"))
	f.Add([]byte("a\na\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		o, err := ParseOrder(bytes.NewReader(data))
		if err != nil {
			return
		}
		var first, second bytes.Buffer
		if err := WriteOrder(&first, o); err != nil {
			t.Fatal(err)
		}
		again, err := ParseOrder(bytes.NewReader(first.Bytes()))
		if err != nil {
			t.Fatalf("re-parse of the written form of an accepted input failed: %v\n%q", err, first.Bytes())
		}
		if err := WriteOrder(&second, again); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatalf("written form is not a fixed point:\n%q\n%q", first.Bytes(), second.Bytes())
		}
	})
}
