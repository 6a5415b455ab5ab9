package blcr

import (
	"bytes"
	"math"
	"math/rand"
	"slices"
	"testing"
)

// logEntry is one Log.Entry call's arguments.
type logEntry struct {
	b     []byte
	zeros int64
	ints  [2]int64
}

// A Log holds what a Wire walk writes: an image whose slice is copied from a
// Log is byte for byte the one Wire.Entry writes for the same entries — past
// chunk boundaries, with zero runs long and short, and with entries larger
// than any chunk — and a LogReader gives every entry back as it went in.
func TestLogMatchesWire(t *testing.T) {
	edges := []int64{0, 1, -1, 63, 64, -65, 128, -129, 1 << 20, -1 << 40, math.MaxInt64, math.MinInt64}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 200; i++ {
		var l Log
		var es []logEntry
		for n := rng.Intn(3) * rng.Intn(400); n > 0; n-- {
			e := logEntry{ints: [2]int64{edges[rng.Intn(len(edges))], edges[rng.Intn(len(edges))]}}
			switch rng.Intn(4) {
			case 0:
				e.b = make([]byte, rng.Intn(20))
			case 1:
				e.b = make([]byte, 8)
				e.zeros = int64(rng.Intn(3) * rng.Intn(1<<17))
			case 2:
				e.b = make([]byte, rng.Intn(3)*rng.Intn(100<<10))
			}
			rng.Read(e.b)
			es = append(es, e)
			l.Entry(e.b, e.zeros, e.ints[:]...)
		}
		write := func(w *Wire, fromLog bool) {
			f := w.Struct()
			f.Int(0, 7)
			if f.Slice(1, l.Len()) {
				if fromLog {
					w.Log(&l)
				} else {
					for _, e := range es {
						w.Entry(e.b, e.zeros, e.ints[:]...)
					}
				}
			}
			f.End()
		}
		image := func(fromLog bool) []byte {
			var body Wire
			write(&body, fromLog)
			w := wireCodec.Writer("magic", &body)
			write(&w, fromLog)
			img, err := w.Image()
			if err != nil {
				t.Fatal(err)
			}
			return img
		}
		if l.Len() != len(es) {
			t.Fatalf("%d entries make a Log of %d", len(es), l.Len())
		}
		if got, want := image(true), image(false); !bytes.Equal(got, want) {
			t.Fatalf("log %d of %d entries: the Log's image differs from the walk's (%d and %d bytes)", i, len(es), len(got), len(want))
		}
		rd := l.Reader()
		var ints [2]int64
		for k, e := range es {
			b, zeros, ok := rd.Next(ints[:])
			if !ok || ints != e.ints || !bytes.Equal(b, e.b) || (b == nil) != (len(e.b) == 0) || zeros != e.zeros {
				t.Fatalf("log %d entry %d read back as %v %v, %d bytes and %d zeros; want %v, %d bytes and %d zeros",
					i, k, ok, ints, len(b), zeros, e.ints, len(e.b), e.zeros)
			}
		}
		if _, _, ok := rd.Next(ints[:]); ok {
			t.Fatalf("log %d reads past its %d entries", i, len(es))
		}
	}
	var nilLog *Log
	rd := nilLog.Reader()
	if _, _, ok := rd.Next(nil); ok || nilLog.Len() != 0 {
		t.Error("a nil Log is not empty")
	}
}

// Chunks double from 512 bytes to 64 KiB and are never regrown: appending
// 10,000 entries allocates each chunk once and grows the chunk list a few
// times, and a zero run costs its record, not its zeros.
func TestLogChunks(t *testing.T) {
	var l Log
	if n := testing.AllocsPerRun(5, func() {
		l = Log{}
		for i := 0; i < 10000; i++ {
			l.Entry([]byte{1, 2, 3, 4, 5, 6, 7, 8}, int64(i%2)<<16, int64(i))
		}
	}); n > 20 {
		t.Errorf("10,000 entries make %v allocations, want at most 20", n)
	}
	var sizes []int
	held := 0
	for _, c := range l.chunks {
		sizes = append(sizes, len(c.buf))
		held += len(c.buf)
	}
	if !slices.Equal(sizes[:8], []int{512, 1024, 2048, 4096, 8192, 16384, 32768, 65536}) || slices.Max(sizes) != maxChunk {
		t.Errorf("chunk sizes %v, want doubling from 512 to 65536", sizes)
	}
	if held > 30*10000 {
		t.Errorf("10,000 entries of 8 bytes, half with 64 KiB of zeros, hold %d bytes", held)
	}
}
