package blcr

import (
	"bytes"
	"encoding/gob"
	"errors"
	"fmt"
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
	// len(desc) bytes are the type descriptors.
	primer []byte
	desc   []byte

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
