package mpi

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"math"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"testing"

	"gbcr/internal/ib"
	"gbcr/internal/obs"
	"gbcr/internal/sim"
)

// newJobWith is newTestJob with a configuration.
func newJobWith(t testing.TB, n int, cfg Config) (*sim.Kernel, *Job) {
	t.Helper()
	k := sim.NewKernel(1)
	f, err := ib.New(k, ib.PaperConfig())
	if err != nil {
		t.Fatal(err)
	}
	j, err := NewJob(k, f, cfg, n)
	if err != nil {
		t.Fatal(err)
	}
	return k, j
}

// loggedConfig is the default configuration with sender-based logging on.
func loggedConfig() Config {
	cfg := DefaultConfig()
	cfg.LogMessages = true
	return cfg
}

// exchangeOutcome is everything a run of exchangeJob exposes.
type exchangeOutcome struct {
	timeline string
	stats    []RankStats
	finish   sim.Time
	events   uint64
	recvSize []int64 // per rank: Status.Size of the ring receive
}

// exchangeJob runs the three calls content-free workloads make — a ring
// exchange, a Bcast and an Allgather — on four ranks, with n-byte payloads
// that are either real zero-filled buffers or lengths only. gated holds rank
// 0's sends to rank 1 behind a closed checkpoint gate for the first second.
func exchangeJob(t *testing.T, n int64, sizeOnly, logged, gated bool) exchangeOutcome {
	t.Helper()
	const ranks = 4
	cfg := DefaultConfig()
	cfg.LogMessages = logged
	k, j := newJobWith(t, ranks, cfg)
	var timeline bytes.Buffer
	bus := obs.NewBus(obs.NewJSONL(&timeline)) // every ib- and mpi-layer event
	j.Fabric().SetObs(bus)
	j.SetObs(bus)
	if gated {
		h := &spHooks{gate: map[int]bool{1: true}}
		j.Rank(0).SetHooks(h)
		k.At(sim.Second, func() {
			h.gate[1] = false
			j.Rank(0).ReleaseDst(1)
		})
	}
	out := exchangeOutcome{recvSize: make([]int64, ranks)}
	j.LaunchAll(func(e *Env) {
		w := e.World()
		me := e.Rank()
		right, left := (me+1)%ranks, (me-1+ranks)%ranks
		for it := 0; it < 3; it++ {
			e.Compute(sim.Millisecond)
			if sizeOnly {
				out.recvSize[me] = e.SendrecvSize(w, right, 1, n, left, 1).Size
				if got := e.BcastSize(w, it%ranks, n); got != n {
					t.Errorf("rank %d: BcastSize returned %d, want %d", me, got, n)
				}
				e.AllgatherSize(w, n)
				continue
			}
			_, st := e.sendrecv(w, right, 1, content(make([]byte, n)), left, 1)
			out.recvSize[me] = st.Size
			e.Bcast(w, it%ranks, make([]byte, n))
			e.Allgather(w, make([]byte, n))
		}
	})
	run(t, k)
	out.timeline = timeline.String()
	for i := 0; i < ranks; i++ {
		out.stats = append(out.stats, j.Rank(i).Stats())
	}
	out.finish = j.FinishTime()
	out.events = k.EventsProcessed()
	return out
}

// A size-only message is indistinguishable, in everything the simulation
// observes, from a zero-filled one of the same length.
func TestSizeOnlyEqualsZeroFilled(t *testing.T) {
	const eager = eagerThreshold
	sizes := []struct {
		name string
		n    int64
	}{
		{"empty", 0},
		{"eager-1KiB", 1 << 10},
		{"eager-at-threshold", eager},
		{"rendezvous-past-threshold", eager + 1},
		{"rendezvous-64KiB", 64 << 10},
		{"rendezvous-1MiB", 1 << 20},
	}
	modes := []struct {
		name          string
		logged, gated bool
	}{
		{"plain", false, false},
		{"logged", true, false},
		{"gated", false, true},
	}
	for _, sz := range sizes {
		for _, m := range modes {
			t.Run(sz.name+"/"+m.name, func(t *testing.T) {
				filled := exchangeJob(t, sz.n, false, m.logged, m.gated)
				sized := exchangeJob(t, sz.n, true, m.logged, m.gated)
				if filled.timeline != sized.timeline {
					t.Errorf("obs timelines differ:\n%s", firstDiff(filled.timeline, sized.timeline))
				}
				if len(filled.timeline) == 0 {
					t.Error("empty timeline: the comparison proves nothing")
				}
				for i := range filled.stats {
					if filled.stats[i] != sized.stats[i] {
						t.Errorf("rank %d stats differ:\n zero-filled %+v\n size-only   %+v",
							i, filled.stats[i], sized.stats[i])
					}
					if sized.recvSize[i] != sz.n {
						t.Errorf("rank %d size-only receive: Status.Size = %d, want %d", i, sized.recvSize[i], sz.n)
					}
				}
				if filled.finish != sized.finish {
					t.Errorf("finish time: zero-filled %v, size-only %v", filled.finish, sized.finish)
				}
				if filled.events != sized.events {
					t.Errorf("events processed: zero-filled %d, size-only %d", filled.events, sized.events)
				}
				if m.logged && sized.stats[0].BytesLogged == 0 && sz.n > 0 {
					t.Error("size-only sends were not charged to the log")
				}
				if m.gated && sized.stats[0].MsgsBuffered+sized.stats[0].ReqsBuffered == 0 {
					t.Error("the gate deferred nothing")
				}
			})
		}
	}
}

// firstDiff reports the first line at which two timelines part.
func firstDiff(a, b string) string {
	al, bl := strings.Split(a, "\n"), strings.Split(b, "\n")
	for i := 0; i < len(al) && i < len(bl); i++ {
		if al[i] != bl[i] {
			return fmt.Sprintf("line %d:\n zero-filled %s\n size-only   %s", i+1, al[i], bl[i])
		}
	}
	return fmt.Sprintf("lengths %d vs %d lines", len(al), len(bl))
}

// captureQueued puts one n-byte eager message in each place CaptureLibState
// looks — rank 0's unexpected queue, its outbox (held by a closed gate) and,
// when cfg logs, its sender log — and returns rank 0's captured library state.
func captureQueued(t *testing.T, cfg Config, mk func(n int64) payload, n int64) []byte {
	t.Helper()
	k, j := newJobWith(t, 2, cfg)
	h := &spHooks{gate: map[int]bool{1: true}}
	j.Rank(0).SetHooks(h)
	send := func(e *Env, w *Comm, dst int) {
		e.enter()
		defer e.exit()
		e.waitInternal(e.isendInternal(w, dst, 0, mk(n)))
	}
	var state []byte
	j.Launch(0, func(e *Env) {
		w := e.World()
		send(e, w, 1)
		e.Compute(10 * sim.Millisecond) // rank 1's message arrives unexpected
		r := e.r
		wantLog := 0
		if cfg.LogMessages {
			wantLog = 1
		}
		if len(r.unexpected) != 1 || outboxLen(r, 1) != 1 || r.peer(1).log.Len() != wantLog {
			t.Errorf("queues at capture: unexpected=%d outbox=%d log=%d, want 1, 1, %d",
				len(r.unexpected), outboxLen(r, 1), r.peer(1).log.Len(), wantLog)
		}
		var err error
		if state, err = r.CaptureLibState(); err != nil {
			t.Error(err)
		}
		h.gate[1] = false
		r.ReleaseDst(1)
		e.Recv(w, 1, 0)
	})
	j.Launch(1, func(e *Env) {
		w := e.World()
		send(e, w, 0)
		e.Recv(w, 0, 0)
	})
	run(t, k)
	return state
}

// Lib-state bytes are part of the timing model (their length is added to the
// storage write), so a size-only message must be captured exactly as a
// zero-filled one, and come back from a restore as that content. Either
// format's image is plain gob: what a fresh encoder writes for the mirror
// struct a fresh decoder reads from it.
func TestCaptureSizeOnlyAsZeros(t *testing.T) {
	const n = 1 << 10
	for _, logged := range []bool{false, true} {
		t.Run(fmt.Sprintf("logged=%v", logged), func(t *testing.T) {
			cfg := DefaultConfig()
			cfg.LogMessages = logged
			filled := captureQueued(t, cfg, func(n int64) payload { return content(make([]byte, n)) }, n)
			sized := captureQueued(t, cfg, func(n int64) payload { return payload{size: n} }, n)
			if len(sized) < 2*n {
				t.Fatalf("captured %d bytes: two %d-byte messages are not all in there", len(sized), n)
			}
			if !bytes.Equal(filled, sized) {
				t.Fatalf("lib state differs: zero-filled %d bytes, size-only %d bytes", len(filled), len(sized))
			}
			if fresh := freshGobImage(t, sized); !bytes.Equal(sized, fresh) {
				t.Fatalf("captured % x, a fresh gob encoder writes % x", sized, fresh)
			}

			// Round trip: restore onto a fresh rank whose gate keeps the
			// outbox in place, and capture again.
			_, j := newJobWith(t, 2, cfg)
			r := j.Rank(0)
			r.SetHooks(&spHooks{gate: map[int]bool{1: true}})
			if err := r.RestoreLibState(sized); err != nil {
				t.Fatal(err)
			}
			restored := []struct {
				where string
				payload
			}{
				{"unexpected", r.unexpected[0].payload},
				{"outbox", r.peer(1).outbox[0].pkt.payload},
			}
			if logged {
				restored = append(restored, struct {
					where string
					payload
				}{"log", logOf(r.peer(1))[0].payload})
			}
			for _, q := range restored {
				if q.size != n || !bytes.Equal(q.data, make([]byte, n)) {
					t.Errorf("restored %s message: size %d, %d data bytes; want %d zero bytes", q.where, q.size, len(q.data), n)
				}
			}
			r.commIndex = 1 // restore resets it for the body to re-create World(); the captured body had
			again, err := r.CaptureLibState()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(again, sized) {
				t.Fatal("capture → restore → capture is not the identity")
			}
		})
	}
}

// freshGobImage decodes a lib-state image into its format's mirror struct
// with a fresh gob decoder and returns what a fresh gob encoder writes for
// that struct, behind the same magic.
func freshGobImage(t *testing.T, image []byte) []byte {
	t.Helper()
	var buf bytes.Buffer
	var err error
	if body, v2 := bytes.CutPrefix(image, []byte(libStateV2Magic)); v2 {
		buf.WriteString(libStateV2Magic)
		var st libStateV2
		if err = gob.NewDecoder(bytes.NewReader(body)).Decode(&st); err == nil {
			err = gob.NewEncoder(&buf).Encode(&st)
		}
	} else {
		var st libState
		if err = gob.NewDecoder(bytes.NewReader(image)).Decode(&st); err == nil {
			err = gob.NewEncoder(&buf).Encode(&st)
		}
	}
	if err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// A SendrecvWord message held in the unexpected queue, an outbox (v1 and v2)
// or the sender log (v2) is captured as exactly the 8 bytes I64ToBytes gives
// its value, and after a restore — the log replayed where there is one —
// SendrecvWord reads the value back from that content.
func TestCaptureSendrecvWordAsContent(t *testing.T) {
	const v = 0x0102030405060708
	want := I64ToBytes([]int64{v})
	for _, logged := range []bool{false, true} {
		t.Run(fmt.Sprintf("logged=%v", logged), func(t *testing.T) {
			cfg := DefaultConfig()
			cfg.LogMessages = logged
			state := captureQueued(t, cfg, func(int64) payload { return payload{size: 8, word: v} }, 8)
			var st libStateV2
			if err := gob.NewDecoder(bytes.NewReader(bytes.TrimPrefix(state, []byte(libStateV2Magic)))).Decode(&st); err != nil {
				t.Fatal(err)
			}
			captured := [][]byte{st.Unexpected[0].Data, st.Outbox[0].Data}
			if logged {
				captured = append(captured, st.Log[0].Data)
			} else if len(st.Log) != 0 {
				t.Errorf("v1 capture carries %d log entries", len(st.Log))
			}
			for i, b := range captured {
				if !bytes.Equal(b, want) {
					t.Errorf("captured message %d is % x, want % x", i, b, want)
				}
			}

			k, j := newJobWith(t, 2, cfg)
			if err := j.Rank(0).RestoreLibState(state); err != nil {
				t.Fatal(err)
			}
			if logged && j.ReplayLogs() != 1 {
				t.Fatal("the logged word was not replayed")
			}
			got := make([]uint64, 2)
			j.LaunchAll(func(e *Env) {
				peer := 1 - e.Rank()
				got[e.Rank()], _ = e.SendrecvWord(e.World(), peer, 0, v, peer, 0)
			})
			run(t, k)
			for r, g := range got {
				if g != v {
					t.Errorf("restored rank %d: SendrecvWord returned %#x, want %#x", r, g, uint64(v))
				}
			}
		})
	}
}

// SendrecvWord matched by a message that is not 8 bytes long fails the run
// with one mpi error and returns 0, instead of panicking its process.
func TestSendrecvWordLengthMismatchFailsRun(t *testing.T) {
	k, j := newTestJob(t, 2)
	got := uint64(1)
	j.Launch(0, func(e *Env) {
		got, _ = e.SendrecvWord(e.World(), 1, 0, 7, 1, 0)
	})
	j.Launch(1, func(e *Env) {
		e.sendrecv(e.World(), 0, 0, content(make([]byte, 16)), 0, 0)
	})
	want := "mpi: rank 0: SendrecvWord received 16 bytes, want 8"
	if err := k.Run(); err == nil || err.Error() != want {
		t.Fatalf("Run() = %v, want %q", err, want)
	}
	if got != 0 {
		t.Errorf("SendrecvWord returned %d, want 0", got)
	}
}

// Capture writes every data-less payload's bytes straight into the image,
// and copies the log, which holds them in image form, so what it allocates
// does not grow with the number of logged words: under uncoord the whole log
// is copied at every capture. 1,000 entries cost no more allocations than
// 10; a buffer an entry would be 990 more.
func TestCaptureAllocsIndependentOfDatalessEntries(t *testing.T) {
	allocs := func(n int) float64 {
		_, j := newJobWith(t, 2, loggedConfig())
		r := j.Rank(0)
		pr := r.peer(1)
		logWords(pr, n)
		return testing.AllocsPerRun(5, func() {
			if _, err := r.CaptureLibState(); err != nil {
				t.Fatal(err)
			}
		})
	}
	if few, many := allocs(10), allocs(1000); many > few {
		t.Errorf("CaptureLibState makes %v allocations with 10 data-less log entries, %v with 1,000", few, many)
	}
}

// logWords logs n words toward pr as isendInternal does, word i with
// sequence number i.
func logWords(pr *peer, n int) {
	for i := 1; i <= n; i++ {
		pr.logged(payload{size: 8, word: uint64(i)}, 0, 0, 0, int64(i))
	}
}

// logEntry is a sender-log entry as the tests read it back.
type logEntry struct {
	comm, srcComm, tag, seq int64
	payload
}

// logOf reads pr's sender log back, oldest entry first.
func logOf(pr *peer) []logEntry {
	var out []logEntry
	var f [5]int64
	rd := pr.log.Reader()
	for b, zeros, ok := rd.Next(f[:]); ok; b, zeros, ok = rd.Next(f[:]) {
		out = append(out, logEntry{comm: f[1], srcComm: f[2], tag: f[3], seq: f[4], payload: logPayload(b, zeros)})
	}
	return out
}

// The sender log holds its entries in image form, in chunks (blcr.Log):
// 10,000 logged words are a few dozen allocations, not one an entry.
// ReplayLogs walks a log across its chunk boundaries in sequence order, from
// the first entry the receiver has not incorporated, and delivers a word as
// the content an image gives it and a data-less message longer than its
// word — whose zeros the log never holds — as that message.
func TestSendLogChunks(t *testing.T) {
	if n := testing.AllocsPerRun(5, func() {
		pr := peer{world: 1}
		logWords(&pr, 10000)
		if pr.log.Len() != 10000 {
			t.Fatalf("10,000 logged words left %d entries", pr.log.Len())
		}
	}); n > 25 {
		t.Errorf("10,000 logged words make %v allocations, want at most 25", n)
	}

	_, j := newJobWith(t, 2, loggedConfig())
	pr := j.Rank(0).peer(1)
	size := func(i int) int64 { return 8 + 92*int64(b2i(i%3 == 0)) }
	for i := 1; i <= 3000; i++ {
		pr.logged(payload{size: size(i), word: uint64(i)}, 0, 0, 0, int64(i))
	}
	const seen = 1500 // inside the 16 KiB chunk after the smaller ones
	j.Rank(1).peer(0).recvSeq = seen
	if n := j.ReplayLogs(); n != 3000-seen {
		t.Fatalf("ReplayLogs injected %d messages, want %d", n, 3000-seen)
	}
	for i, m := range j.Rank(1).unexpected {
		want := seen + 1 + i
		if m.u64(0) != uint64(want) || m.srcWorld != 0 || m.size != size(want) || (m.data == nil) != (want%3 == 0) {
			t.Fatalf("replayed message %d is %+v from rank %d, want word %d of %d bytes from rank 0, data-less if longer than 8", i, m.payload, m.srcWorld, want, size(want))
		}
	}
	if got := j.Rank(1).peer(0).recvSeq; got != 3000 {
		t.Errorf("after the replay rank 1 has incorporated up to %d, want 3000", got)
	}
}

// libFixture is rank 0 of a 4-rank job holding one unexpected word message
// and, toward each of its three peers, both sequence counters and 20 logged
// words; only the v2 format records the last two.
func libFixture(t testing.TB, cfg Config) *Rank {
	_, j := newJobWith(t, 4, cfg)
	r := j.Rank(0)
	r.unexpected = append(r.unexpected, inMsg{srcWorld: 1, tag: 3, eager: true, payload: payload{size: 8, word: 7}})
	for p := 1; p < 4; p++ {
		pr := r.peer(p)
		pr.sendSeq, pr.recvSeq = 20, 5
		logWords(pr, 20)
	}
	return r
}

// A capture allocates the image and nothing else, in either format; a v1
// restore allocates what it rebuilds, and a v2 one on a warm staging what it
// rebuilds and one arena for all the restored bytes. The library state's gob
// types are not sent or compiled again per image. A capture of 1,000 logged
// words is 15,337 bytes, as a gob encoder wrote it. The log of those words
// holds little more than the bytes they add to the image, and filling it
// allocates no more often than the 11 times the log of 64-byte entries did,
// which held 65,024 bytes.
func TestLibStateCodecAllocs(t *testing.T) {
	_, words := newJobWith(t, 2, loggedConfig())
	pr := words.Rank(1).peer(0)
	pr.sendSeq = 1000
	logWords(pr, 1000)

	_, bare := newJobWith(t, 2, loggedConfig())
	bare.Rank(1).peer(0).sendSeq = 1000
	withLog, err := words.Rank(1).CaptureLibState()
	if err != nil {
		t.Fatal(err)
	}
	without, err := bare.Rank(1).CaptureLibState()
	if err != nil {
		t.Fatal(err)
	}
	const fills = 10
	logs := make([]peer, fills)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := range logs {
		logWords(&logs[i], 1000)
	}
	runtime.ReadMemStats(&after)
	logBytes := len(withLog) - len(without)
	held, allocs := (after.TotalAlloc-before.TotalAlloc)/fills, (after.Mallocs-before.Mallocs)/fills
	if 2*held > 3*uint64(logBytes) || allocs > 11 {
		t.Errorf("filling a log of 1,000 words allocates %d bytes in %d allocations, for %d bytes of image: want at most 1.5 times those bytes in 11", held, allocs, logBytes)
	}
	for _, tc := range []struct {
		name string
		r    *Rank
		len  int // of the image; 0 for any
	}{
		{"v1", libFixture(t, DefaultConfig()), 0},
		{"v2", libFixture(t, loggedConfig()), 0},
		{"1,000 logged words", words.Rank(1), 15337},
	} {
		var img []byte
		if n := testing.AllocsPerRun(20, func() {
			var err error
			if img, err = tc.r.CaptureLibState(); err != nil {
				t.Fatal(err)
			}
		}); n != 1 {
			t.Errorf("%s: CaptureLibState makes %v allocations, want 1", tc.name, n)
		}
		if tc.len != 0 && len(img) != tc.len {
			t.Errorf("%s: the image is %d bytes, want %d", tc.name, len(img), tc.len)
		}
	}

	img, err := libFixture(t, DefaultConfig()).CaptureLibState()
	if err != nil {
		t.Fatal(err)
	}
	const runs = 20
	fresh := make([]*Rank, runs+1) // AllocsPerRun makes one warm-up call
	for i := range fresh {
		_, j := newJobWith(t, 4, DefaultConfig())
		fresh[i] = j.Rank(0)
	}
	if n := testing.AllocsPerRun(runs, func() {
		if err := fresh[0].RestoreLibState(img); err != nil {
			t.Fatal(err)
		}
		fresh = fresh[1:]
	}); n > 10 {
		t.Errorf("a v1 RestoreLibState makes %v allocations, want at most 10", n)
	}

	// The image of 1,000 logged words toward rank 0, each written as 8
	// bytes of content, restored on fresh ranks 1, 2, … of one job: a
	// []byte decoded per entry was three allocations an entry.
	if img, err = words.Rank(1).CaptureLibState(); err != nil {
		t.Fatal(err)
	}
	_, j := newJobWith(t, runs+2, loggedConfig())
	next := 1
	if n := testing.AllocsPerRun(runs, func() {
		if err := j.Rank(next).RestoreLibState(img); err != nil {
			t.Fatal(err)
		}
		next++
	}); n > 30 {
		t.Errorf("a v2 RestoreLibState of 1,000 log entries on a warm staging makes %v allocations, want at most 30", n)
	}
}

// libImage encodes st as a v2 library-state image.
func libImage(t *testing.T, st libStateV2) []byte {
	t.Helper()
	img, err := libStateV2Codec.Append([]byte(libStateV2Magic), &st)
	if err != nil {
		t.Fatal(err)
	}
	return img
}

// restoredLib is what RestoreLibState rebuilt on a rank, with the deferred
// packets dereferenced, for reflect.DeepEqual.
type restoredLib struct {
	Unexpected []inMsg
	Peers      []restoredPeer
}

type restoredPeer struct {
	World            int
	SendSeq, RecvSeq int64
	Log              []logEntry
	Outbox           []wirePkt
}

func restoredOf(r *Rank) restoredLib {
	out := restoredLib{Unexpected: slices.Clone(r.unexpected)}
	for _, pr := range r.peers {
		rp := restoredPeer{World: pr.world, SendSeq: pr.sendSeq, RecvSeq: pr.recvSeq, Log: logOf(pr)}
		for _, it := range pr.outbox {
			rp.Outbox = append(rp.Outbox, *it.pkt)
		}
		out.Peers = append(out.Peers, rp)
	}
	return out
}

// A v2 restore decodes into its job's staging, which gob fills in place:
// each restore must come out as it does on a fresh job, whatever the ranks
// captured or restored before it left there. Rank 0 captures a log of
// content first. Rank 1 then restores an image whose every field is
// non-zero, rank 2 one with other bytes, a zero tag and fewer entries, and
// rank 3 one whose entries are zero or empty; then every image is
// corrupted. Each rank must still hold what a fresh job restores from a
// pristine copy, rank 3 no data where its image has none, and rank 0 its
// log as it sent it.
func TestStagedRestoreMatchesFresh(t *testing.T) {
	fill := func(n int, b byte) []byte { return bytes.Repeat([]byte{b}, n) }
	full := libStateV2{
		Unexpected: []savedMsg{{Comm: 7, SrcComm: 2, SrcWorld: 3, Tag: 11, Data: fill(24, 'u')}, {Comm: 8, SrcComm: 1, SrcWorld: 2, Tag: 12, Data: fill(8, 'v')}},
		Outbox:     []savedOutV2{{Dst: 3, Comm: 7, SrcComm: 1, Tag: 13, Seq: 9, Data: fill(40, 'o')}},
		CommIndex:  4,
		SendSeq:    []seqEntry{{Peer: 2, Seq: 9}, {Peer: 3, Seq: 4}},
		RecvSeq:    []seqEntry{{Peer: 2, Seq: 5}, {Peer: 3, Seq: 6}},
	}
	for i := 1; i <= 20; i++ {
		full.Log = append(full.Log, savedLog{Dst: 2 + i%2, Comm: 7, SrcComm: 1, Tag: 20 + i, Seq: int64(i), Data: fill(i, byte(i))})
	}
	other := libStateV2{
		Unexpected: []savedMsg{{Comm: 9, SrcWorld: 3, Data: fill(16, 'w')}},
		Outbox:     []savedOutV2{{Dst: 0, Comm: 9, Tag: 1, Seq: 2, Data: fill(30, 'p')}},
		SendSeq:    []seqEntry{{Peer: 3, Seq: 2}},
		Log:        []savedLog{{Dst: 0, Comm: 9, Seq: 1, Data: fill(12, 'x')}, {Dst: 3, Tag: 2, Seq: 2, Data: fill(5, 'y')}},
	}
	empty := libStateV2{
		Unexpected: []savedMsg{{}, {Tag: 1}},
		Outbox:     []savedOutV2{{Dst: 0}},
		SendSeq:    []seqEntry{{Peer: 0, Seq: 1}},
		RecvSeq:    []seqEntry{{Peer: 0, Seq: 2}},
		Log:        []savedLog{{Dst: 0}, {Dst: 0, Seq: 1, Data: []byte{}}},
	}
	imgs := [][]byte{libImage(t, full), libImage(t, other), libImage(t, empty)}
	_, staged := newJobWith(t, 4, loggedConfig())
	sent := staged.Rank(0).peer(1)
	for i := 1; i <= 30; i++ {
		sent.logged(content(fill(64, 'L')), 0, 0, 0, int64(i))
	}
	if _, err := staged.Rank(0).CaptureLibState(); err != nil {
		t.Fatal(err)
	}
	for i, img := range imgs {
		if err := staged.Rank(1 + i).RestoreLibState(img); err != nil {
			t.Fatal(err)
		}
	}
	pristine := make([][]byte, len(imgs))
	for i, img := range imgs {
		pristine[i] = bytes.Clone(img)
		for b := range img {
			img[b] ^= 0xff
		}
	}
	for i, img := range pristine {
		_, fresh := newJobWith(t, 4, loggedConfig())
		if err := fresh.Rank(1 + i).RestoreLibState(img); err != nil {
			t.Fatal(err)
		}
		got, want := restoredOf(staged.Rank(1+i)), restoredOf(fresh.Rank(1+i))
		if !reflect.DeepEqual(got, want) {
			t.Errorf("rank %d restored on a staging used before:\n%+v\nwant, as on a fresh job:\n%+v", 1+i, got, want)
		}
	}
	for _, le := range logOf(staged.Rank(0).peer(1)) {
		if !bytes.Equal(le.data, fill(64, 'L')) {
			t.Fatalf("rank 0's logged message %d reads %q after the restores, want the 64 bytes it sent", le.seq, le.data)
		}
	}
	got := restoredOf(staged.Rank(3))
	var ps []payload
	for _, m := range got.Unexpected {
		ps = append(ps, m.payload)
	}
	for _, pr := range got.Peers {
		for _, le := range pr.Log {
			ps = append(ps, le.payload)
		}
		for _, pkt := range pr.Outbox {
			ps = append(ps, pkt.payload)
		}
	}
	if len(ps) != 5 {
		t.Fatalf("the image of empty entries restored %d messages, want 5", len(ps))
	}
	for _, p := range ps {
		if p.data != nil || p.size != 0 {
			t.Errorf("an empty entry restored as %+v, want a data-less empty message", p)
		}
	}
}

// A lib-state image that fails to decode is an error naming the rank; a
// damaged image leaves nothing behind, so a good one restores right after.
func TestRestoreLibStateErrorNamesRank(t *testing.T) {
	for _, logged := range []bool{false, true} {
		cfg := DefaultConfig()
		cfg.LogMessages = logged
		good, err := libFixture(t, cfg).CaptureLibState()
		if err != nil {
			t.Fatal(err)
		}
		flipped := bytes.Clone(good)
		flipped[0] ^= 0xff // what blcr.Snapshot.Corrupt does
		for _, bad := range []struct {
			name string
			img  []byte
		}{{"flipped", flipped}, {"truncated", good[:len(good)-5]}} {
			_, j := newJobWith(t, 4, cfg)
			err := j.Rank(2).RestoreLibState(bad.img)
			if err == nil || !strings.HasPrefix(err.Error(), "mpi: rank 2: library state: ") {
				t.Errorf("logged=%v, %s image: RestoreLibState = %v, want an error naming rank 2", logged, bad.name, err)
			}
			r := j.Rank(0)
			if err := r.RestoreLibState(good); err != nil {
				t.Fatalf("logged=%v: a good image after the %s one: %v", logged, bad.name, err)
			}
			if len(r.unexpected) != 1 || r.unexpected[0].tag != 3 {
				t.Errorf("logged=%v: a good image after the %s one restored %d unexpected messages", logged, bad.name, len(r.unexpected))
			}
		}
	}
}

// pollAgree is the safe-point poll's agreement (CollectiveCheckpoint) on v:
// the value rides in the payload's word.
func pollAgree(e *Env, w *Comm, v float64) float64 {
	return e.allreduce(w, payload{size: 8, word: math.Float64bits(v)}, OpMax).f64(0)
}

// A poll message held in the unexpected queue, an outbox or the sender log is
// captured as the 8 bytes F64ToBytes gives its value, comes back from a
// restore as that content, and the restored job's polls fold it. Three ranks
// poll twice with values 7, 8 and 9; rank 0, the root, gates rank 1, so at
// its capture between the polls it holds poll 1's broadcast to rank 1 in the
// outbox, rank 2's poll 2 contribution as unexpected and, when logging, both
// of poll 1's broadcasts in the log.
func TestCapturePollWordAsContent(t *testing.T) {
	const agreed = 9
	for _, logged := range []bool{false, true} {
		t.Run(fmt.Sprintf("logged=%v", logged), func(t *testing.T) {
			cfg := DefaultConfig()
			cfg.LogMessages = logged
			k, j := newJobWith(t, 3, cfg)
			h := &spHooks{gate: map[int]bool{1: true}}
			j.Rank(0).SetHooks(h)
			var state, asContent []byte
			got := make([]float64, 6)
			j.LaunchAll(func(e *Env) {
				w := e.World()
				me := e.Rank()
				got[me] = pollAgree(e, w, float64(7+me))
				if me != 0 {
					got[3+me] = pollAgree(e, w, float64(7+me))
					return
				}
				e.Compute(10 * sim.Millisecond) // rank 2's poll 2 contribution arrives
				r := e.r
				wantLog := 0
				if logged {
					wantLog = 1
				}
				if len(r.unexpected) != 1 || outboxLen(r, 1) != 1 || r.peer(1).log.Len() != wantLog || r.peer(2).log.Len() != wantLog {
					t.Errorf("queues at capture: unexpected=%d outbox=%d log=%d+%d, want 1, 1, %d+%d",
						len(r.unexpected), outboxLen(r, 1), r.peer(1).log.Len(), r.peer(2).log.Len(), wantLog, wantLog)
				}
				var err error
				if state, err = r.CaptureLibState(); err != nil {
					t.Error(err)
				}
				// The same state with every poll message as content. The log
				// holds its messages as the image does: content already.
				toContent := func(where string, p *payload) {
					if p.data != nil || p.size != 8 || p.word == 0 {
						t.Errorf("%s poll message is %+v, want its value in the word", where, *p)
					}
					*p = content(F64ToBytes([]float64{p.f64(0)}))
				}
				for i := range r.unexpected {
					toContent("unexpected", &r.unexpected[i].payload)
				}
				for i := range r.peers {
					for _, it := range r.peers[i].outbox {
						toContent("outbox", &it.pkt.payload)
					}
				}
				if asContent, err = r.CaptureLibState(); err != nil {
					t.Error(err)
				}
				h.gate[1] = false
				r.ReleaseDst(1)
				got[3] = pollAgree(e, w, 7)
			})
			run(t, k)
			for i, v := range got {
				if v != agreed {
					t.Errorf("rank %d poll %d agreed on %v, want %v", i%3, 1+i/3, v, float64(agreed))
				}
			}
			if !bytes.Equal(state, asContent) {
				t.Fatalf("lib state differs: %d bytes with words, %d with content", len(state), len(asContent))
			}

			// Round trip: restore onto a fresh rank whose gate keeps the
			// outbox in place, and capture again.
			_, j2 := newJobWith(t, 3, cfg)
			r := j2.Rank(0)
			r.SetHooks(&spHooks{gate: map[int]bool{1: true}})
			if err := r.RestoreLibState(state); err != nil {
				t.Fatal(err)
			}
			r.commIndex = 1 // restore resets it for the body to re-create World(); the captured body had
			again, err := r.CaptureLibState()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(again, state) {
				t.Fatal("capture → restore → capture is not the identity")
			}

			// The restored job resumes where rank 0 captured: rank 1 still
			// waits for poll 1's broadcast, rank 2 for poll 2's, and rank 0
			// holds rank 2's poll 2 contribution, which now carries content.
			k3, j3 := newJobWith(t, 3, cfg)
			r = j3.Rank(0)
			if err := r.RestoreLibState(state); err != nil {
				t.Fatal(err)
			}
			for _, pr := range r.peers { // the others' own snapshots would say the same
				j3.Rank(pr.world).peer(0).sendSeq = pr.recvSeq
			}
			got = make([]float64, 4)
			j3.LaunchAll(func(e *Env) {
				w := e.World()
				switch e.Rank() {
				case 0:
					w.AdvanceCollSeq(2)
					got[0] = pollAgree(e, w, 7)
				case 1:
					w.AdvanceCollSeq(1)
					got[1] = e.bcast(w, 0, payload{}).f64(0)
					got[2] = pollAgree(e, w, 8)
				case 2:
					w.AdvanceCollSeq(3)
					got[3] = e.bcast(w, 0, payload{}).f64(0)
				}
			})
			run(t, k3)
			for i, v := range got {
				if v != agreed {
					t.Errorf("restored job: result %d is %v, want %v", i, v, float64(agreed))
				}
			}
		})
	}
}

// allocatedBy reports the heap bytes allocated while building and running a
// job.
func allocatedBy(t *testing.T, ranks int, cfg Config, body func(e *Env)) uint64 {
	t.Helper()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	k, j := newJobWith(t, ranks, cfg)
	j.LaunchAll(body)
	run(t, k)
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// What a size-only message costs the host does not depend on its length. The
// two lengths fall either side of the eager threshold, so the runs differ by
// the rendezvous handshake's bookkeeping — a few hundred bytes a message —
// and the slack allows for that; a single materialised 1 MiB payload is
// sixteen times the slack.
func TestSizeOnlyAllocationIndependentOfLength(t *testing.T) {
	const slack = 64 << 10
	cases := []struct {
		name  string
		ranks int
		cfg   Config
		body  func(n int64) func(e *Env)
	}{
		{"bcast32", 32, DefaultConfig(), func(n int64) func(e *Env) {
			return func(e *Env) {
				w := e.World()
				for i := 0; i < 4; i++ {
					e.BcastSize(w, 0, n)
				}
			}
		}},
		{"logged-send", 2, loggedConfig(), func(n int64) func(e *Env) {
			return func(e *Env) {
				w := e.World()
				peer := 1 - e.Rank()
				for i := 0; i < 16; i++ {
					e.SendrecvSize(w, peer, 0, n, peer, 0)
				}
			}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			allocatedBy(t, tc.ranks, tc.cfg, tc.body(1<<10)) // warm the runtime's own caches
			small := allocatedBy(t, tc.ranks, tc.cfg, tc.body(1<<10))
			large := allocatedBy(t, tc.ranks, tc.cfg, tc.body(1<<20))
			t.Logf("allocated: %d B at 1 KiB, %d B at 1 MiB", small, large)
			if large > small+slack {
				t.Errorf("allocation grows with payload length: %d B at 1 KiB, %d B at 1 MiB", small, large)
			}
		})
	}
}

// A receiver cannot tell in advance which kind of send it will match: a
// size-only message completes an ordinary receive with nil data and the
// sender's length.
func TestSizeOnlyReceiveHasNoData(t *testing.T) {
	for _, n := range []int64{1 << 10, 1 << 20} {
		k, j := newTestJob(t, 2)
		var got []byte
		var st, back Status
		j.Launch(0, func(e *Env) {
			back = e.SendrecvSize(e.World(), 1, 0, n, 1, 0)
		})
		j.Launch(1, func(e *Env) {
			var p payload
			p, st = e.sendrecv(e.World(), 0, 0, content([]byte("x")), 0, 0)
			got = p.data
		})
		run(t, k)
		if got != nil || st.Size != n {
			t.Errorf("n=%d: received %d data bytes, Status.Size %d; want nil data and the length", n, len(got), st.Size)
		}
		if back.Size != 1 {
			t.Errorf("n=%d: the content-carrying reply reported Size %d, want 1", n, back.Size)
		}
	}
}

func TestNegativeSizeFailsRun(t *testing.T) {
	calls := []struct {
		name string
		call func(e *Env)
	}{
		{"SendrecvSize", func(e *Env) { e.SendrecvSize(e.World(), 1-e.Rank(), 0, -1, 1-e.Rank(), 0) }},
		{"BcastSize", func(e *Env) { e.BcastSize(e.World(), 0, -1) }},
		{"AllgatherSize", func(e *Env) { e.AllgatherSize(e.World(), -1) }},
	}
	for _, tc := range calls {
		t.Run(tc.name, func(t *testing.T) {
			k, j := newTestJob(t, 2)
			j.LaunchAll(tc.call)
			err := k.Run()
			if err == nil || !strings.Contains(err.Error(), "negative message size -1") {
				t.Fatalf("Run() = %v, want a negative-size error", err)
			}
		})
	}
}

func TestSelfSendFailsRun(t *testing.T) {
	k, j := newTestJob(t, 2)
	returned := false
	j.Launch(0, func(e *Env) {
		e.Send(e.World(), 0, 0, []byte("me"))
		returned = true
	})
	j.Launch(1, func(e *Env) {})
	err := k.Run()
	if err == nil || !strings.Contains(err.Error(), "rank 0 sending to itself") {
		t.Fatalf("Run() = %v, want a self-send error", err)
	}
	if !returned {
		t.Fatal("the failed send left its caller blocked")
	}
}

// A peer rank outside the communicator fails the run with one mpi error and
// returns as a self-send does, instead of panicking the sender's process or
// leaving the receiver waiting for a rank that cannot send.
func TestBadRankFailsRun(t *testing.T) {
	calls := []struct {
		name string
		call func(e *Env)
		want string
	}{
		{"Send to 99", func(e *Env) { e.Send(e.World(), 99, 0, []byte("x")) },
			"mpi: rank 0: send to comm rank 99 out of range [0,4)"},
		{"Recv from 99", func(e *Env) { e.Recv(e.World(), 99, 0) },
			"mpi: rank 0: receive from comm rank 99 out of range [0,4)"},
	}
	for _, tc := range calls {
		t.Run(tc.name, func(t *testing.T) {
			k, j := newTestJob(t, 4)
			returned := false
			j.Launch(0, func(e *Env) {
				tc.call(e)
				returned = true
			})
			for i := 1; i < 4; i++ {
				j.Launch(i, func(e *Env) {})
			}
			if err := k.Run(); err == nil || err.Error() != tc.want {
				t.Fatalf("Run() = %v, want %q", err, tc.want)
			}
			if !returned {
				t.Fatal("the failed call left its caller blocked")
			}
		})
	}
}

// An application tag at or above the collectives' range, or a negative one
// other than ANY, fails the run; the call returns as a self-send's does.
func TestInvalidTagFailsRun(t *testing.T) {
	calls := []struct {
		name string
		tag  int
		call func(e *Env, tag int)
	}{
		{"SendNegative", -2, func(e *Env, tag int) { e.Send(e.World(), 1, tag, []byte("x")) }},
		{"Send", collTagBase, func(e *Env, tag int) { e.Send(e.World(), 1, tag, []byte("x")) }},
	}
	for _, tc := range calls {
		t.Run(tc.name, func(t *testing.T) {
			k, j := newTestJob(t, 2)
			returned := false
			j.Launch(0, func(e *Env) {
				tc.call(e, tc.tag)
				returned = true
			})
			j.Launch(1, func(e *Env) {})
			err := k.Run()
			want := fmt.Sprintf("rank 0: invalid application tag %d", tc.tag)
			if err == nil || !strings.Contains(err.Error(), want) {
				t.Fatalf("Run() = %v, want an error containing %q", err, want)
			}
			if !returned {
				t.Fatal("the failed send left its caller blocked")
			}
		})
	}
}

// A collective on a communicator the caller is not in fails the run with one
// mpi error, and every collective returns to its caller rather than unwinding
// the process.
func TestForeignCommCollectiveFailsRun(t *testing.T) {
	calls := []struct {
		name string
		call func(e *Env, c *Comm)
	}{
		{"Barrier", func(e *Env, c *Comm) { e.Barrier(c) }},
		{"BcastSize", func(e *Env, c *Comm) { e.BcastSize(c, 0, 8) }},
		{"AllreduceF64", func(e *Env, c *Comm) { e.AllreduceF64(c, []float64{1}, OpSum) }},
		{"AllgatherSize", func(e *Env, c *Comm) { e.AllgatherSize(c, 8) }},
		{"CollectiveCheckpoint", func(e *Env, c *Comm) { e.CollectiveCheckpoint(c) }},
	}
	for _, tc := range calls {
		t.Run(tc.name, func(t *testing.T) {
			k, j := newTestJob(t, 2)
			returned := false
			j.Launch(0, func(e *Env) {
				tc.call(e, e.NewComm([]int{1}))
				returned = true
			})
			j.Launch(1, func(e *Env) {})
			err := k.Run()
			if err == nil || !strings.HasPrefix(err.Error(), "mpi: rank 0 is not a member of comm ") ||
				strings.Contains(err.Error(), "\n") {
				t.Fatalf("Run() = %v, want one line naming the foreign communicator", err)
			}
			if !returned {
				t.Fatal("the failed collective did not return to its caller")
			}
		})
	}
}

// Reduce vectors of different lengths fail the run with one mpi error at the
// rank that receives the odd one out, not a panic of its process.
func TestReduceLengthMismatchFailsRun(t *testing.T) {
	k, j := newTestJob(t, 2)
	j.LaunchAll(func(e *Env) {
		e.AllreduceF64(e.World(), make([]float64, 2+e.Rank()), OpSum)
	})
	err := k.Run()
	want := "mpi: rank 0: AllreduceF64 of 2 values got 3"
	if err == nil || err.Error() != want {
		t.Fatalf("Run() = %v, want %q", err, want)
	}
}
