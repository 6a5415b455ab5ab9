package blcr

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"sync"
	"testing"
)

// codecEntry is a slice-of-struct element, as the library state's queues are.
type codecEntry struct {
	Peer int
	Seq  int64
	Data []byte
}

// codecState has a field of every kind the snapshot sections use.
type codecState struct {
	Iter    int
	Sum     int64
	Hash    uint64
	Raw     []byte
	Field   []float64
	Entries []codecEntry
	Counts  map[string]int // at most one key: gob writes map entries in random order
}

var testCodec Codec[codecState]

// randomState draws a state whose fields are zero about a quarter of the
// time each, so omitted fields are covered too.
func randomState(rng *rand.Rand) codecState {
	var st codecState
	some := func() bool { return rng.Intn(4) != 0 }
	if some() {
		st.Iter = rng.Intn(1 << 20)
	}
	if some() {
		st.Sum = rng.Int63() - 1<<62
	}
	if some() {
		st.Hash = rng.Uint64()
	}
	if some() {
		st.Raw = make([]byte, 1+rng.Intn(40))
		rng.Read(st.Raw)
	}
	if some() {
		st.Field = make([]float64, 1+rng.Intn(10))
		for i := range st.Field {
			st.Field[i] = rng.NormFloat64()
		}
	}
	for i := rng.Intn(4); i > 0; i-- {
		e := codecEntry{Peer: rng.Intn(64)}
		if some() {
			e.Seq = rng.Int63n(1000)
		}
		if some() {
			e.Data = []byte{byte(rng.Intn(256)), 0, 8}
		}
		st.Entries = append(st.Entries, e)
	}
	if some() {
		st.Counts = map[string]int{fmt.Sprint(rng.Intn(100)): rng.Intn(100)}
	}
	return st
}

// An image is plain gob: Append writes what a fresh encoder writes, a fresh
// decoder reads it back, and Decode reads it back too — with four goroutines
// sharing the codec, so the race detector sees its mutex at work.
func TestCodecMatchesFreshGob(t *testing.T) {
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < 200; i++ {
				st := randomState(rng)
				img, err := testCodec.Append(nil, &st)
				if err != nil {
					t.Error(err)
					return
				}
				var fresh bytes.Buffer
				if err := gob.NewEncoder(&fresh).Encode(&st); err != nil {
					t.Error(err)
					return
				}
				if !bytes.Equal(img, fresh.Bytes()) {
					t.Errorf("seed %d image %d: Append wrote % x, a fresh encoder % x", seed, i, img, fresh.Bytes())
					return
				}
				var viaGob, viaCodec codecState
				if err := gob.NewDecoder(bytes.NewReader(img)).Decode(&viaGob); err != nil {
					t.Error(err)
					return
				}
				if err := testCodec.Decode(img, &viaCodec); err != nil {
					t.Error(err)
					return
				}
				if !reflect.DeepEqual(viaGob, viaCodec) {
					t.Errorf("seed %d image %d: a fresh decoder read %+v, Decode %+v", seed, i, viaGob, viaCodec)
					return
				}
			}
		}(int64(g + 1))
	}
	wg.Wait()
}

// Append keeps dst in front of the image and never hands out storage it
// writes again: every image is a new slice.
func TestCodecAppendPrefixAndFreshSlices(t *testing.T) {
	st := codecState{Iter: 3, Raw: []byte{1, 2}}
	a, err := testCodec.Append([]byte("hdr"), &st)
	if err != nil {
		t.Fatal(err)
	}
	b, err := testCodec.Append([]byte("hdr"), &st)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(a, []byte("hdr")) || !bytes.Equal(a, b) {
		t.Fatalf("two appends of one value: % x and % x", a, b)
	}
	a[len(a)-1] ^= 0xff
	if bytes.Equal(a, b) {
		t.Fatal("two images share storage")
	}
}

// A damaged image is an error, and does not damage the next decode: a
// flipped first byte (what Snapshot.Corrupt does) fails the descriptor
// check, a truncated body fails gob and leaves a newly primed decoder.
func TestCodecRejectsDamagedImages(t *testing.T) {
	st := codecState{Iter: 7, Entries: []codecEntry{{Peer: 1, Data: []byte{9}}}}
	img, err := testCodec.Append(nil, &st)
	if err != nil {
		t.Fatal(err)
	}
	flipped := bytes.Clone(img)
	flipped[0] ^= 0xff
	const noDescriptors = "does not start with the gob type descriptors"
	for _, bad := range []struct {
		name string
		img  []byte
		want string // in the error
	}{
		{"flipped", flipped, noDescriptors},
		{"truncated", img[:len(img)-3], "unexpected EOF"},
		{"bodiless", img[:len(testCodec.desc)], "EOF"},
		{"empty", nil, noDescriptors},
	} {
		var got codecState
		if err := testCodec.Decode(bad.img, &got); err == nil || !strings.Contains(err.Error(), bad.want) {
			t.Errorf("%s image: Decode = %+v, %v; want an error containing %q", bad.name, got, err, bad.want)
		}
		got = codecState{}
		if err := testCodec.Decode(img, &got); err != nil || !reflect.DeepEqual(got, st) {
			t.Errorf("after the %s image: Decode = %+v, %v; want %+v", bad.name, got, err, st)
		}
	}
}

// wireState is a struct whose layout TestWireMatchesAppend walks by hand.
type wireState struct {
	Entries []codecEntry
	Sum     int64
}

var wireCodec Codec[wireState]

// write walks st on w as gob lays out a wireState, with each entry's Data
// followed by pad zero bytes.
func (st *wireState) write(w *Wire, pad int64) {
	f := w.Struct()
	if f.Slice(0, len(st.Entries)) {
		for _, e := range st.Entries {
			w.Entry(e.Data, pad, int64(e.Peer), e.Seq)
		}
	}
	f.Int(1, st.Sum)
	f.End()
}

// A Wire walk writes what Append writes for the value it walks — integers at
// every varint length and sign, omitted zero fields, empty slices, padding —
// and an image the walk fills short of its count is an error.
func TestWireMatchesAppend(t *testing.T) {
	edges := []int64{0, 1, -1, 63, 64, -64, -65, 127, 128, -129, 1 << 20, -1 << 40, math.MaxInt64, math.MinInt64, math.MaxInt64 - 1}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 500; i++ {
		st := wireState{Sum: edges[rng.Intn(len(edges))]}
		pad := int64(rng.Intn(3) * rng.Intn(200))
		want := wireState{Sum: st.Sum}
		for n := rng.Intn(4); n > 0; n-- {
			e := codecEntry{Peer: int(edges[rng.Intn(len(edges))]), Seq: edges[rng.Intn(len(edges))]}
			switch rng.Intn(3) {
			case 0:
				e.Data = []byte{}
			case 1:
				e.Data = make([]byte, rng.Intn(300))
				rng.Read(e.Data)
			}
			st.Entries = append(st.Entries, e)
			e.Data = append(bytes.Clone(e.Data), make([]byte, pad)...)
			want.Entries = append(want.Entries, e)
		}
		img, err := wireCodec.Append([]byte("magic"), &want)
		if err != nil {
			t.Fatal(err)
		}
		var body Wire
		st.write(&body, pad)
		w := wireCodec.Writer("magic", &body)
		st.write(&w, pad)
		got, err := w.Image()
		if err != nil || !bytes.Equal(got, img) {
			t.Fatalf("%+v padded by %d: Wire wrote % x, %v; Append % x", st, pad, got, err, img)
		}
	}

	st := wireState{Sum: 5}
	var body Wire
	st.write(&body, 0)
	body.n++ // a count one byte past what the walk writes
	w := wireCodec.Writer("", &body)
	st.write(&w, 0)
	if img, err := w.Image(); err == nil || img != nil {
		t.Errorf("a walk one byte short: Image = % x, %v; want an error", img, err)
	}
}
