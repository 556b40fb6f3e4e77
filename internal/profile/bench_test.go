package profile_test

import (
	"bytes"
	"sync"
	"testing"

	"propeller/internal/profile"
	"propeller/internal/workload"
)

// benchProfile is the MySQL shape's training profile (the fleet-generation
// workload's shape), made once per test binary.
func benchProfile(b *testing.B) *profile.Profile {
	benchOnce.Do(func() {
		spec := workload.MySQL()
		spec.Requests /= 4
		benchProf = simProfile(b, spec)
	})
	return benchProf
}

var (
	benchOnce sync.Once
	benchProf *profile.Profile
)

// report adds what makes one benchmark line readable alone: records per
// second and the wire bytes a record costs in this format.
func report(b *testing.B, p *profile.Profile, wire []byte) {
	records := 0
	for _, s := range p.Samples {
		records += len(s.Records)
	}
	b.SetBytes(int64(len(wire)))
	b.ReportMetric(float64(records)*float64(b.N)/b.Elapsed().Seconds()/1e6, "Mrecords/s")
	b.ReportMetric(float64(len(wire))/float64(records), "wireB/record")
}

func BenchmarkAppendWire(b *testing.B) {
	p := benchProfile(b)
	for name, enc := range map[string]func([]byte) []byte{
		"wpr3": p.AppendWire,
		"ref":  func(dst []byte) []byte { return profile.RefAppendWire(p, dst) },
	} {
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			var wire []byte
			for i := 0; i < b.N; i++ {
				wire = enc(nil)
			}
			report(b, p, wire)
		})
	}
}

func BenchmarkRead(b *testing.B) {
	p := benchProfile(b)
	wire, ref := p.AppendWire(nil), profile.RefAppendWire(p, nil)
	for _, bc := range []struct {
		name string
		wire []byte
		read func() (*profile.Profile, error)
	}{
		{"wpr3", wire, func() (*profile.Profile, error) { return profile.Read(bytes.NewReader(wire)) }},
		{"wpr3-bytes", wire, func() (*profile.Profile, error) { return profile.ReadBytes(wire) }},
		{"ref", ref, func() (*profile.Profile, error) { return profile.RefRead(bytes.NewReader(ref)) }},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := bc.read(); err != nil {
					b.Fatal(err)
				}
			}
			report(b, p, bc.wire)
		})
	}
}
