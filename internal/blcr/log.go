package blcr

import "encoding/binary"

// Log keeps the entries of an image's list in image form — each the struct
// Wire.Entry writes for the same arguments — so that an entry is encoded
// once however many images carry it: Entry appends one, Wire.Log copies
// them all into an image, and a LogReader reads them back. The bytes live in
// chunks that are never regrown or copied, each holding whole entries and
// twice the size of the one before, up to 64 KiB. A chunk leaves out the
// zeros an entry's []byte ends with and records the run instead, which an
// image, zeroed when made, skips. Truncation can drop whole chunks: each
// counts its entries. The zero Log is empty and ready to use.
type Log struct {
	n      int // entries
	chunks []chunk
}

// chunk is one allocation of a Log: its entries' bytes from the front and,
// from the back, a runSize-byte record of each zero run — the index in buf
// at which the zeros go, and how many there are.
type chunk struct {
	buf              []byte
	n, runs, entries int // bytes of entries, zero runs, entries
}

const (
	runSize  = 16
	minChunk = 512
	maxChunk = 64 << 10
)

// run returns zero run i of c, from 1.
func (c *chunk) run(i int) (at int, zeros int) {
	r := c.buf[len(c.buf)-runSize*i:]
	return int(binary.LittleEndian.Uint64(r)), int(binary.LittleEndian.Uint64(r[8:]))
}

// Len returns the number of entries in l, 0 for a nil Log.
func (l *Log) Len() int {
	if l == nil {
		return 0
	}
	return l.n
}

// Entry appends the struct Wire.Entry writes for the same arguments.
func (l *Log) Entry(b []byte, zeros int64, ints ...int64) {
	size, run := int64(len(b))+zeros, 0
	if zeros != 0 {
		run = runSize
	}
	// An integer takes at most 10 bytes, so an entry is counted first only
	// where the last chunk may be too full for it.
	k := len(l.chunks) - 1
	if k < 0 || l.chunks[k].free() < 10*len(ints)+10+len(b)+1+run {
		k = l.room(head(nil, 0, size, ints) + len(b) + 1 + run)
	}
	c := &l.chunks[k]
	n := head(c.buf, c.n, size, ints)
	n += copy(c.buf[n:], b)
	if zeros != 0 {
		c.runs++
		r := c.buf[len(c.buf)-runSize*c.runs:]
		binary.LittleEndian.PutUint64(r, uint64(n))
		binary.LittleEndian.PutUint64(r[8:], uint64(zeros))
	}
	c.buf[n] = 0
	c.n, c.entries, l.n = n+1, c.entries+1, l.n+1
}

// free returns the bytes c has left for entries and their zero runs.
func (c *chunk) free() int { return len(c.buf) - runSize*c.runs - c.n }

// room returns the index of the last chunk if it has need bytes free, else
// of a new one.
func (l *Log) room(need int) int {
	size := minChunk
	if k := len(l.chunks) - 1; k >= 0 {
		if l.chunks[k].free() >= need {
			return k
		}
		size = min(2*len(l.chunks[k].buf), maxChunk)
	}
	l.chunks = append(l.chunks, chunk{buf: make([]byte, max(size, need))})
	return len(l.chunks) - 1
}

// Log writes l's entries, as elements of a slice the caller opened: each
// chunk's bytes, and over each zero run only the count. A nil Log writes
// nothing.
func (w *Wire) Log(l *Log) {
	if l == nil {
		return
	}
	for i := range l.chunks {
		c := &l.chunks[i]
		from := 0
		for r := 1; r <= c.runs; r++ {
			at, zeros := c.run(r)
			w.put(c.buf[from:at])
			w.n += zeros
			from = at
		}
		w.put(c.buf[from:c.n])
	}
}

// LogReader reads a Log's entries back, oldest first.
type LogReader struct {
	l          *Log
	c, n, runs int // chunk, its next byte, its zero runs read
}

// Reader returns a reader at the first entry of l, which may be nil.
func (l *Log) Reader() LogReader { return LogReader{l: l} }

// Next reads the next entry: each of its integers into ints, of the length
// Entry was given, and its []byte as Entry was given it — b, then zeros zero
// bytes. b is nil for an empty []byte, and is l's memory: a caller that
// keeps it copies it. ok is false past the last entry.
func (r *LogReader) Next(ints []int64) (b []byte, zeros int64, ok bool) {
	if r.l == nil || r.c == len(r.l.chunks) {
		return nil, 0, false
	}
	c := &r.l.chunks[r.c]
	clear(ints)
	for i := -1; ; {
		d := int(c.buf[r.n])
		r.n++
		if d == 0 {
			break
		}
		i += d
		x := getUint(c.buf, &r.n)
		if i < len(ints) {
			ints[i] = int64(x>>1) ^ -int64(x&1)
			continue
		}
		if r.runs < c.runs {
			if at, z := c.run(r.runs + 1); at-r.n <= int(x) {
				zeros, r.runs = int64(z), r.runs+1
			}
		}
		end := r.n + int(int64(x)-zeros)
		b = c.buf[r.n:end:end]
		r.n += len(b)
	}
	if r.n == c.n {
		r.c, r.n, r.runs = r.c+1, 0, 0
	}
	return b, zeros, true
}

// getUint reads the gob unsigned integer at buf[*n:] and moves *n past it.
func getUint(buf []byte, n *int) uint64 {
	x := uint64(buf[*n])
	*n++
	if x < 0x80 {
		return x
	}
	k := int(-int8(x))
	x = 0
	for _, b := range buf[*n : *n+k] {
		x = x<<8 | uint64(b)
	}
	*n += k
	return x
}
