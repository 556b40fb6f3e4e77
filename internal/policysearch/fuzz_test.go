package policysearch

import (
	"bytes"
	"reflect"
	"testing"
)

// FuzzReadTable feeds arbitrary bytes to the -layout-table parser: it never
// panics, and a table it accepts writes to bytes that parse back to an equal
// table (an empty funcPolicies map is not written, and reads back as none)
// and write to the same bytes again (the first write may normalize: key
// order, number spelling, invalid UTF-8).
func FuzzReadTable(f *testing.F) {
	res, err := Search(Config{Seed: 1, Workers: 1}, fakeWorkloads())
	if err != nil {
		f.Fatal(err)
	}
	var seed bytes.Buffer
	if err := res.Table().WriteTable(&seed); err != nil {
		f.Fatal(err)
	}
	f.Add(seed.Bytes())
	f.Add([]byte(`{"version":"wsc-search-table-v1","seed":-1,"workloads":{"x":{"name":"\ud800","params":{}}}}`))
	f.Add([]byte(`{"version":"nope","workloads":{"x":{}}}`))
	f.Add([]byte(`{"version":"wsc-search-table-v1","workloads":{}}`))
	f.Add([]byte(`{"version":"wsc-search-table-v1","workloads":{"x":{"bogus":1}}}`))
	f.Add([]byte(`{"version":"wsc-search-table-v1","workloads":{"x":{"funcPolicies":{"f":null}}}} trailing`))
	f.Add([]byte(`{"version":"wsc-search-table-v1","workloads":{"x":{"funcPolicies":{}},"y":{"params":{"ForwardWeight":-0}}}}` + " \n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		table, err := ReadTable(bytes.NewReader(data))
		if err != nil {
			return
		}
		var first, second bytes.Buffer
		if err := table.WriteTable(&first); err != nil {
			t.Fatalf("an accepted table does not write: %v", err)
		}
		again, err := ReadTable(bytes.NewReader(first.Bytes()))
		if err != nil {
			t.Fatalf("a written table does not parse: %v\n%s", err, first.Bytes())
		}
		for name, pol := range table.Workloads {
			if len(pol.FuncPolicies) == 0 {
				pol.FuncPolicies = nil
				table.Workloads[name] = pol
			}
		}
		if !reflect.DeepEqual(table, again) {
			t.Fatalf("a written table reads back different:\n%+v\n%+v", table, again)
		}
		if err := again.WriteTable(&second); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatalf("not a fixed point:\n%s\n%s", first.Bytes(), second.Bytes())
		}
	})
}
