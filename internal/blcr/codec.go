package blcr

import (
	"bytes"
	"encoding/gob"
	"errors"
	"fmt"
	"math/bits"
	"sync"
)

// Codec serialises one snapshot section type with encoding/gob, paying for
// T's type descriptors once per process instead of once per image. Every
// image it writes is byte for byte what a fresh gob.NewEncoder writes for
// the value in this process: the descriptors, then the value message. Gob
// numbers types per process, so an image was never meaningful outside the
// process that wrote it, and the descriptors it caches are the ones a fresh
// encoder here would send.
//
// The zero Codec is ready to use and safe for concurrent use; it must not be
// copied after first use. Encode and decode the value through a *T.
type Codec[T any] struct {
	once sync.Once
	err  error
	// primer is one fresh encoder's stream for the zero T; its first
	// len(desc) bytes are the type descriptors, and id is T's type id as
	// the value message after them opens with it.
	primer []byte
	desc   []byte
	id     []byte

	mu  sync.Mutex
	buf bytes.Buffer // enc's writer: the value message of the call in progress
	enc *gob.Encoder // has sent T's descriptors into primer
	rd  bytes.Reader // dec's reader, holding an image's body during Decode
	dec *gob.Decoder // has read T's descriptors from primer
}

// init encodes the zero T twice on one encoder: the first message carries
// the descriptors, the second only the value, so their difference is what a
// fresh encoder sends before any value of T.
func (c *Codec[T]) init() error {
	c.once.Do(func() {
		var zero T
		c.enc = gob.NewEncoder(&c.buf)
		if c.err = c.enc.Encode(&zero); c.err != nil {
			return
		}
		c.primer = bytes.Clone(c.buf.Bytes())
		c.buf.Reset()
		if c.err = c.enc.Encode(&zero); c.err != nil {
			return
		}
		n := len(c.primer) - c.buf.Len()
		if n < 0 || !bytes.Equal(c.primer[n:], c.buf.Bytes()) {
			c.err = fmt.Errorf("blcr: gob stream for %T does not end in its value message", zero)
			return
		}
		c.desc = c.primer[:n]
		// The zero T's value message is its length, T's id and the 0 that
		// ends an empty struct.
		msg := c.primer[n:]
		if len(msg) < 3 || int(msg[0]) != len(msg)-1 || msg[len(msg)-1] != 0 {
			c.err = fmt.Errorf("blcr: gob value message for the zero %T is not length, id, 0", zero)
			return
		}
		c.id = msg[1 : len(msg)-1]
		c.err = c.prime()
	})
	return c.err
}

// prime gives the codec a decoder that has read T's descriptors. Called
// with mu held, or from init.
func (c *Codec[T]) prime() error {
	var zero T
	c.rd.Reset(c.primer)
	c.dec = gob.NewDecoder(&c.rd)
	err := c.dec.Decode(&zero)
	c.rd.Reset(nil)
	return err
}

// Append appends v's image — T's descriptors, then v's value message — to
// dst and returns the result, always a new slice: a snapshot's bytes can be
// corrupted in place, so no two images share storage.
func (c *Codec[T]) Append(dst []byte, v *T) ([]byte, error) {
	if err := c.init(); err != nil {
		return nil, err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.buf.Reset()
	if err := c.enc.Encode(v); err != nil {
		return nil, err
	}
	out := make([]byte, 0, len(dst)+len(c.desc)+c.buf.Len())
	return append(append(append(out, dst...), c.desc...), c.buf.Bytes()...), nil
}

// Decode reads an image Append (or a fresh gob encoder) wrote into v. An
// image that does not start with T's descriptors is an error; a body that
// fails to decode leaves the codec with a newly primed decoder, so a
// malformed image cannot affect the next one.
func (c *Codec[T]) Decode(img []byte, v *T) error {
	if err := c.init(); err != nil {
		return err
	}
	body, ok := bytes.CutPrefix(img, c.desc)
	if !ok {
		return fmt.Errorf("blcr: image does not start with the gob type descriptors of %T", *v)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.rd.Reset(body)
	err := c.dec.Decode(v)
	c.rd.Reset(nil)
	if err != nil {
		return errors.Join(err, c.prime())
	}
	return nil
}

// Writer returns a Wire over a new image: magic, T's descriptors, and the
// length and type id that open a value message whose body — a T's struct
// encoding — the counting Wire body measured. Walking the same data on it
// again fills the rest, so the image is byte for byte what Append writes
// for the T that data stands for, in one allocation. If T has no gob
// encoding the Wire only counts, and Image returns the error.
func (c *Codec[T]) Writer(magic string, body *Wire) Wire {
	if err := c.init(); err != nil {
		return Wire{err: err}
	}
	msg := len(c.id) + body.n
	w := Wire{buf: make([]byte, len(magic)+len(c.desc)+putUint(nil, 0, uint64(msg))+msg)}
	w.n = copy(w.buf, magic)
	w.n += copy(w.buf[w.n:], c.desc)
	w.n = putUint(w.buf, w.n, uint64(msg))
	w.n += copy(w.buf[w.n:], c.id)
	return w
}

// Wire writes gob's wire format by hand, for a caller that walks its own
// data in the layout of a struct instead of building that struct. The zero
// Wire only counts; each write either counts its bytes or, on a Codec's
// Writer, puts them in the image. A walk run on a counting Wire sizes the
// image, and the same walk on the Writer fills it.
type Wire struct {
	buf []byte // the image, zeroed at allocation; nil while counting
	n   int    // bytes written, or counted
	err error  // why a Writer has no image
}

// putUint writes x as a gob unsigned integer at buf[n:] — one byte below
// 0x80, else the negated byte count and the big-endian bytes — and returns
// the index after it. Past the end of buf, the counting Wire's nil one, it
// only counts.
func putUint(buf []byte, n int, x uint64) int {
	if x < 0x80 {
		return putByte(buf, n, byte(x))
	}
	k := 8 - bits.LeadingZeros64(x)>>3
	if n+k < len(buf) {
		b := buf[n : n+1+k]
		b[0] = byte(-k)
		for i := k; i > 0; i-- {
			b[i] = byte(x)
			x >>= 8
		}
	}
	return n + 1 + k
}

// putByte is putUint for an x below 0x80 — a field delta, a struct's end —
// and inlines.
func putByte(buf []byte, n int, x byte) int {
	if n < len(buf) {
		buf[n] = x
	}
	return n + 1
}

// put writes b, or on a counting Wire counts it.
func (w *Wire) put(b []byte) {
	if w.n+len(b) <= len(w.buf) {
		copy(w.buf[w.n:], b)
	}
	w.n += len(b)
}

// zigzag is x as gob sends a signed integer: the sign in the low bit.
func zigzag(x int64) uint64 { return uint64(x<<1) ^ uint64(x>>63) }

// Entry writes a struct whose fields are the integers ints — at most 126,
// so that every field delta is one byte — then a []byte holding b and zeros
// zero bytes, which the image already holds. Gob omits a zero field, opens
// each other one with its number's delta from the previous field's, and
// ends the struct with a 0.
func (w *Wire) Entry(b []byte, zeros int64, ints ...int64) {
	w.n = head(w.buf, w.n, int64(len(b))+zeros, ints)
	w.put(b)
	w.n = putByte(w.buf, w.n+int(zeros), 0)
}

// head writes an Entry up to its []byte's bytes — the non-zero ints, then
// the []byte's length unless size is 0 — at buf[n:], and returns the index
// after it.
func head(buf []byte, n int, size int64, ints []int64) int {
	last := -1
	for i, x := range ints {
		if x != 0 {
			n = putUint(buf, putByte(buf, n, byte(i-last)), zigzag(x))
			last = i
		}
	}
	if size != 0 {
		n = putUint(buf, putByte(buf, n, byte(len(ints)-last)), uint64(size))
	}
	return n
}

// Struct starts a struct written field by field, such as an image's top
// level.
func (w *Wire) Struct() Fields { return Fields{w: w, last: -1} }

// Fields writes one struct's fields in ascending order, as Entry does.
type Fields struct {
	w    *Wire
	last int
}

// field opens field i, and then writes x.
func (f *Fields) field(i int, x uint64) {
	f.w.n = putUint(f.w.buf, putUint(f.w.buf, f.w.n, uint64(i-f.last)), x)
	f.last = i
}

// Int writes an integer field.
func (f *Fields) Int(i int, x int64) {
	if x != 0 {
		f.field(i, zigzag(x))
	}
}

// Slice opens a slice field of n elements, each then written as an Entry
// or a Struct, and reports whether it did: an empty slice is omitted.
func (f *Fields) Slice(i, n int) bool {
	if n != 0 {
		f.field(i, uint64(n))
	}
	return n != 0
}

// End ends the struct.
func (f *Fields) End() { f.w.n = putByte(f.w.buf, f.w.n, 0) }

// Image returns the image a Writer filled. A walk that stopped short of what
// it counted is an error.
func (w *Wire) Image() ([]byte, error) {
	if w.err != nil {
		return nil, w.err
	}
	if w.n != len(w.buf) {
		return nil, fmt.Errorf("blcr: image filled to %d of its %d bytes", w.n, len(w.buf))
	}
	return w.buf, nil
}
