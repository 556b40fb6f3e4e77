package profile

// The WPR2 codec as it stood before WPR3 replaced it, kept verbatim as the
// oracle of TestDecodeMatchesReference and the /ref sub-benchmarks: absolute
// varints written with encoding/binary, decoded one io.ByteReader call per
// byte, materialized through the copying arena. Nothing outside tests reads
// or writes this format any more. The entry points are exported to the
// external test package, which can import the simulator.

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
)

const (
	refMagicV1 = "WPRF"
	refMagicV2 = "WPR2"
)

func RefAppendWire(p *Profile, dst []byte) []byte {
	dst = append(dst, refMagicV2...)
	dst = binary.AppendUvarint(dst, uint64(len(p.Binary)))
	dst = append(dst, p.Binary...)
	dst = binary.AppendUvarint(dst, uint64(len(p.BuildID)))
	dst = append(dst, p.BuildID...)
	dst = binary.AppendUvarint(dst, p.Period)
	dst = binary.AppendUvarint(dst, uint64(len(p.Samples)))
	for _, s := range p.Samples {
		dst = binary.AppendUvarint(dst, uint64(len(s.Records)))
		for _, r := range s.Records {
			dst = binary.AppendUvarint(dst, r.From)
			dst = binary.AppendUvarint(dst, r.To)
		}
	}
	return dst
}

type refWireReader interface {
	io.Reader
	io.ByteReader
}

func refReadString(br refWireReader, what string, max uint64) (string, error) {
	n, err := binary.ReadUvarint(br)
	if err != nil {
		return "", fmt.Errorf("profile: truncated %s length: %w", what, err)
	}
	if n > max {
		return "", fmt.Errorf("profile: %s length %d exceeds cap %d", what, n, max)
	}
	buf := make([]byte, n)
	if _, err := io.ReadFull(br, buf); err != nil {
		return "", fmt.Errorf("profile: truncated %s: %w", what, err)
	}
	return string(buf), nil
}

func refReadHeader(br refWireReader) (Header, error) {
	var h Header
	var magic [4]byte
	if _, err := io.ReadFull(br, magic[:]); err != nil {
		return h, fmt.Errorf("profile: truncated magic: %w", err)
	}
	withBuildID := false
	switch string(magic[:]) {
	case refMagicV2:
		withBuildID = true
	case refMagicV1:
	default:
		return h, fmt.Errorf("profile: bad magic %q", magic)
	}
	var err error
	if h.Binary, err = refReadString(br, "binary name", maxNameLen); err != nil {
		return h, err
	}
	if withBuildID {
		if h.BuildID, err = refReadString(br, "build ID", maxBuildIDLen); err != nil {
			return h, err
		}
	}
	if h.Period, err = binary.ReadUvarint(br); err != nil {
		return h, fmt.Errorf("profile: truncated period: %w", err)
	}
	if h.Samples, err = binary.ReadUvarint(br); err != nil {
		return h, fmt.Errorf("profile: truncated sample count: %w", err)
	}
	if h.Samples > maxSamples {
		return h, fmt.Errorf("profile: implausible sample count %d", h.Samples)
	}
	return h, nil
}

func RefStream(r io.Reader, onHeader func(Header) error, onSample func(Sample) error) (Header, int, error) {
	br, ok := r.(refWireReader)
	if !ok {
		br = bufio.NewReader(r)
	}
	h, err := refReadHeader(br)
	if err != nil {
		return h, 0, err
	}
	if onHeader != nil {
		if err := onHeader(h); err != nil {
			return h, 0, err
		}
	}
	var buf [LBRDepth]Branch
	for i := uint64(0); i < h.Samples; i++ {
		nRec, err := binary.ReadUvarint(br)
		if err != nil {
			return h, int(i), fmt.Errorf("profile: truncated record count in sample %d: %w", i, err)
		}
		if nRec > LBRDepth {
			return h, int(i), fmt.Errorf("profile: sample with %d records exceeds LBR depth", nRec)
		}
		s := Sample{Records: buf[:nRec]}
		for j := range s.Records {
			if s.Records[j].From, err = binary.ReadUvarint(br); err != nil {
				return h, int(i), fmt.Errorf("profile: truncated record in sample %d: %w", i, err)
			}
			if s.Records[j].To, err = binary.ReadUvarint(br); err != nil {
				return h, int(i), fmt.Errorf("profile: truncated record in sample %d: %w", i, err)
			}
		}
		if err := onSample(s); err != nil {
			return h, int(i), err
		}
	}
	return h, int(h.Samples), nil
}

func RefRead(r io.Reader) (*Profile, error) {
	p := &Profile{}
	var arena refArena
	_, _, err := RefStream(r, func(h Header) error {
		p.Binary = h.Binary
		p.BuildID = h.BuildID
		p.Period = h.Period
		cap := h.Samples
		if cap > 1<<12 {
			cap = 1 << 12
		}
		p.Samples = make([]Sample, 0, cap)
		return nil
	}, func(s Sample) error {
		p.Samples = append(p.Samples, Sample{Records: arena.save(s.Records)})
		return nil
	})
	if err != nil {
		return nil, err
	}
	return p, nil
}

type refArena struct {
	block []Branch
}

func (a *refArena) save(recs []Branch) []Branch {
	n := len(recs)
	if len(a.block)+n > cap(a.block) {
		a.block = make([]Branch, 0, max(arenaBlockRecords, n))
	}
	l := len(a.block)
	a.block = a.block[:l+n]
	out := a.block[l : l+n : l+n]
	copy(out, recs)
	return out
}
