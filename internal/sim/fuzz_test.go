package sim_test

import (
	"math/rand"
	"testing"

	"repro/internal/sim"
)

// byteStream hands out fuzz input one byte at a time, then zeros.
type byteStream []byte

func (s *byteStream) next() int {
	if len(*s) == 0 {
		return 0
	}
	b := (*s)[0]
	*s = (*s)[1:]
	return int(b)
}

// fuzzLevels decodes one to three cache levels: line sizes of 4 to 64
// bytes, 1 to 4 ways and 1 to 6 sets (so 3, 5 and 6 take the modulo
// path), each write-back or write-through, write-allocate or not.
func fuzzLevels(s *byteStream) []sim.CacheConfig {
	n := 1 + s.next()%3
	cfgs := make([]sim.CacheConfig, n)
	for i := range cfgs {
		ls := 4 << (s.next() % 5)
		assoc := 1 + s.next()%4
		nsets := 1 + s.next()%6
		flags := s.next()
		cfgs[i] = sim.CacheConfig{Name: "L", Size: ls * assoc * nsets, LineSize: ls, Assoc: assoc}
		if flags&1 != 0 {
			cfgs[i].Policy = sim.WriteThrough
		}
		cfgs[i].NoWriteAllocate = flags&2 != 0
	}
	return cfgs
}

// FuzzHierarchyParity drives the fast Hierarchy and the reference Oracle
// with the same random access stream and requires every counter to
// agree after each operation, and the miss-ratio curves and timeline to
// agree at the end. The stream mixes loads and stores of 1 to 130 bytes
// (so accesses span lines) at random sites with Flush, ResetCounters
// and AddFlops in mid-stream.
func FuzzHierarchyParity(f *testing.F) {
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 8; i++ {
		seed := make([]byte, 64+r.Intn(1500))
		r.Read(seed)
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		s := byteStream(data)
		cfgs := fuzzLevels(&s)
		modes := s.next()
		mrc := modes&2 != 0
		for _, c := range cfgs {
			mrc = mrc && !c.NoWriteAllocate // the recorder rejects such levels
		}
		h, o, err := newPair(cfgs, modes&1 != 0, mrc)
		if err != nil {
			t.Fatal(err)
		}
		for op := 0; len(s) > 0; op++ {
			kind := s.next() % 16
			addr := int64(s.next()|s.next()<<8) % 2048
			size := 8
			if b := s.next(); b >= 128 {
				size = 1 + b%130
			}
			site := uint32(s.next() % 8)
			for _, m := range []simulator{h, o} {
				switch {
				case kind < 7:
					m.LoadSite(addr, size, site)
				case kind < 13:
					m.StoreSite(addr, size, site)
				case kind == 13:
					m.Flush()
				case kind == 14:
					m.ResetCounters()
				default:
					m.AddFlops(int64(size))
				}
			}
			if err := diffCounters(h, o); err != nil {
				t.Fatalf("op %d (kind %d, addr %d, size %d, site %d) on %+v: %v", op, kind, addr, size, site, cfgs, err)
			}
		}
		h.Flush()
		o.Flush()
		if err := diffCounters(h, o); err != nil {
			t.Fatalf("final flush on %+v: %v", cfgs, err)
		}
		if err := diffMRC(h.MRC(), o.MRC()); err != nil {
			t.Fatalf("%+v: %v", cfgs, err)
		}
	})
}
